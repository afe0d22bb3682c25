"""The klgeo benchmark: `klgeo sweep` workloads, timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
`src/` tree.  Each repetition runs one workload invocation in a fresh
interpreter (bench/worker.py), which calls `klgeo.cli.main` in-process.
A repetition is started only while the longest one so far still fits in S
seconds (there is at least one), so a run lasts about S seconds, and every
repetition's outputs are checked (bench/check.py).

--trace 0 reports the end-to-end metrics, scaled to the reference host
speed:
  wall_norm_s  time of the cli.main call, median over the repetitions
  cpu_norm_s   user+sys CPU time of that call (all threads), median
  setup_s      fresh interpreter start through `import klgeo.cli`, median
               of one separate interpreter start after each repetition and
               at least SETUP_PROBES in all
  peak_rss_mb  peak resident set of the worker process, median, not scaled
On a shared host the speed a process gets drifts by tens of percent within
seconds, so plain times of the same code spread between runs by about as
much as a useful regression bound.  During each untraced call the worker
therefore runs short bursts of a fixed calibration loop, every 0.1 s
(worker.Calibration), and takes their time out of the call's.  Each
repetition's wall time is multiplied by CAL_REF_US / (its bursts' mean
wall microseconds per step), and its CPU time by CAL_REF_US / (their CPU
microseconds per step): seconds on a host that runs the loop at CAL_REF_US
per step.  setup_s is scaled by the median of the run's wall factors.  The
plain values and the factors are printed too.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the median traced one (bench/tracer.py), in plain
seconds, plus the tracing overhead (median traced minus median untraced
wall time) and the share of the traced wall time the spans cover.

The last line of stdout is one JSON object with the keys correct,
attempted, failed (ops, see check.py) and metrics.  The lines before it
print every metric with its unit and the run context.  Exits 2 without a
result when the checkout holds no klgeo sources.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from tracer import ROOT_SPAN, TRACED, span_name  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# Calibration speed that defines the reference host, in microseconds per
# step: about the loop's speed on the 2-vCPU VM the benchmark was written on.
CAL_REF_US = 8.5
# a run must end within 180 s; no repetition starts past this budget
DEADLINE_S = 170.0

# Spans whose time is reported only as a call count: project_policy runs
# only for the bigram family, so its time would be a constant zero elsewhere.
COUNT_ONLY = ("ngram.project_policy",)
# Spans whose share of the traced wall time is reported.
SHARE_SPANS = ("experiments.run_sweep", "optimize.ascend_j_beta",
               "optimize.fit_forward_kl", "optimize.fit_tvd",
               "experiments.make_sweep_record", "ngram.to_distribution",
               "io.write_csv", "io.write_json", "svg.emit_svg")
GRAD_SPANS = ("ngram.JBetaObjective.grad_theta",
              "ngram.ForwardKLObjective.grad_theta",
              "ngram.TVDObjective.grad_theta")
LAYERS = ("cli", "experiments", "optimize", "ngram", "geometry", "dist", "io", "svg")

END_TO_END = (("wall_norm_s", "s"), ("setup_s", "s"), ("cpu_norm_s", "s"),
              ("peak_rss_mb", "MB"))


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for module, attr in TRACED:
        name = span_name(module, attr)
        spec.append((f"{name}.calls", "count", "lower"))
        if name not in COUNT_ONLY:
            spec.append((f"{name}.s", "s", "lower"))
            spec.append((f"{name}.self_s", "s", "lower"))
    spec += [(f"{name}.us_per_call", "us", "lower") for name in GRAD_SPANS]
    spec += [("optimize.ascend_j_beta.us_per_step", "us", "lower"),
             ("optimize.steps", "count", "lower"),
             ("optimize.converged_frac", "ratio", "higher"),
             ("optimize.aborted", "count", "lower"),
             ("optimize.final_grad_norm.max", "norm", "lower")]
    spec += [(f"{name}.share", "%", "lower") for name in SHARE_SPANS]
    spec += [(f"layer.{layer}.self_share", "%", "lower") for layer in LAYERS]
    spec += [("trace_coverage", "%", "higher"), ("trace_overhead_s", "s", "lower")]
    return spec


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(n: int, deadline: float) -> list:
    """Seconds from spawning a fresh interpreter to `import klgeo.cli` done."""
    probe = "import time, klgeo.cli; print(time.monotonic()); print(klgeo.cli.__file__)"
    samples = []
    for _ in range(n):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 2 or SRC.resolve() not in Path(lines[1]).resolve().parents:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(lines[0]) - t0)
    return samples


def run_worker(workload: str, seed: int, out: Path, trace: bool, deadline: float) -> dict:
    """One repetition in a fresh interpreter; the worker's result or a stub."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    result_path = out / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        rc, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        rc, stderr = -1, "worker timed out"
    elapsed = time.perf_counter() - t0
    if rc == 0 and result_path.is_file():
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    return {"rc": rc if rc != 0 else -1, "wall_s": elapsed, "cpu_s": None,
            "cal_us": None, "peak_rss_mb": None, "stderr": stderr.strip()[-2000:]}


def layer_metrics(result: dict, untraced_wall: float) -> dict:
    spans, solvers = result["spans"], result["solvers"]
    wall = result["wall_s"]
    m = {}
    for name, s in spans.items():
        m[f"{name}.calls"] = s["calls"]
        m[f"{name}.s"] = s["s"]
        m[f"{name}.self_s"] = s["self_s"]
    for name in GRAD_SPANS:
        m[f"{name}.us_per_call"] = 1e6 * spans[name]["s"] / max(1, spans[name]["calls"])
    ascent_steps = solvers["optimize.ascend_j_beta"]["steps"]
    m["optimize.ascend_j_beta.us_per_step"] = (
        1e6 * spans["optimize.ascend_j_beta"]["s"] / max(1, ascent_steps))
    runs = sum(s["runs"] for s in solvers.values())
    m["optimize.steps"] = sum(s["steps"] for s in solvers.values())
    m["optimize.converged_frac"] = sum(s["converged"] for s in solvers.values()) / max(1, runs)
    m["optimize.aborted"] = sum(s["aborted"] for s in solvers.values())
    m["optimize.final_grad_norm.max"] = max(s["final_grad_norm_max"] for s in solvers.values())
    for name in SHARE_SPANS:
        m[f"{name}.share"] = 100.0 * spans[name]["s"] / wall
    for layer in LAYERS:
        self_s = sum(s["self_s"] for n, s in spans.items() if n.split(".")[0] == layer)
        m[f"layer.{layer}.self_share"] = 100.0 * self_s / wall
    root = spans[ROOT_SPAN]
    m["trace_coverage"] = 100.0 * (root["s"] - root["self_s"]) / wall
    m["trace_overhead_s"] = wall - untraced_wall
    return m


def median(results: list, key: str) -> float:
    values = [r[key] for r in results if r.get(key) is not None]
    return statistics.median(values) if values else 0.0


def median_result(results: list):
    """The repetition of median wall time (the lower middle one of an even count)."""
    ranked = sorted(results, key=lambda r: r["wall_s"])
    return ranked[(len(ranked) - 1) // 2] if ranked else None


def expected_outputs(workload, seed: int):
    from check import Expected, compute_oracles, load_reference

    seeds = workload.seeds(seed)
    oracles = compute_oracles(seeds, workload.order)
    reference = None
    if seed == REFERENCE_SEED:
        reference = load_reference(str(HERE / "reference" / workload.name), oracles)
    return Expected(seeds=seeds, lambdas=list(workload.lambdas),
                    order=workload.order, oracles=oracles, reference=reference)


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_context(results: list) -> dict:
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    first = next((r for r in results if "numpy" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": first.get("numpy", "unknown"),
        "blas": first.get("blas", "unknown"),
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in blas_vars},
        "git_rev": git_rev(),
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM raises SystemExit, so that subprocess.run kills and waits for
    # the running worker or probe before this process ends
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "klgeo" / "cli.py").is_file():
        print(f"no klgeo sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + DEADLINE_S
    sys.path.insert(0, str(SRC))
    from check import check_outputs

    workload = WORKLOADS[args.workload]
    expected = expected_outputs(workload, args.seed)
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    load_before = list(os.getloadavg())

    # One discarded start first: it compiles the sources' .pyc files in a
    # fresh checkout and warms the file cache for every start after it.
    measure_setup(1, deadline)
    setup = []
    modes = [False, True] if args.trace else [False]
    results = {False: [], True: []}
    attempted = 0
    failed = 0
    problems = []
    rep = 0
    rep_s = []
    t_measure = time.monotonic()
    while rep == 0 or (time.monotonic() - t_measure + max(rep_s) <= args.seconds
                       and time.monotonic() < deadline):
        t_rep = time.monotonic()
        for traced in modes:
            out = work / f"rep{rep}-{'traced' if traced else 'plain'}"
            res = run_worker(workload.name, args.seed, out, traced, deadline)
            report = check_outputs(str(out / "run"), res["rc"], expected)
            attempted += report.ops
            failed += len(report.failed)
            problems += [f"rep {rep}{' traced' if traced else ''}: {p}"
                         for p in report.problems]
            if res.get("stderr"):
                problems.append(f"rep {rep}: worker stderr: {res['stderr']}")
            results[traced].append(res)
            shutil.rmtree(out)
        if not args.trace:
            # spread over the run, so that no single slow spell sets them all
            setup += measure_setup(1, deadline)
        rep_s.append(time.monotonic() - t_rep)
        rep += 1
    if not args.trace and len(setup) < SETUP_PROBES:
        setup += measure_setup(SETUP_PROBES - len(setup), deadline)

    plain = results[False]
    calibrated = [r for r in plain if r.get("cal_us") and r.get("cal_cpu_us")]
    scales = [CAL_REF_US / r["cal_us"] for r in calibrated]
    scaled = [{"wall_s": CAL_REF_US / r["cal_us"] * r["wall_s"],
               "cpu_s": CAL_REF_US / r["cal_cpu_us"] * r["cpu_s"]} for r in calibrated]
    if args.trace:
        mid = median_result([r for r in results[True] if "spans" in r])
        m = layer_metrics(mid, median(plain, "wall_s")) if mid else {}
        values = {name: m.get(name, 0.0) for name, _, _ in per_layer_spec()}
        units = {name: unit for name, unit, _ in per_layer_spec()}
    else:
        scale = statistics.median(scales) if scales else 1.0
        values = {"wall_norm_s": median(scaled, "wall_s"),
                  "setup_s": scale * statistics.median(setup),
                  "cpu_norm_s": median(scaled, "cpu_s"),
                  "peak_rss_mb": median(plain, "peak_rss_mb")}
        units = dict(END_TO_END)

    context = run_context(plain + results[True])
    context["loadavg_before"] = load_before
    context["repetitions"] = rep
    context["median_wall_s"] = median(plain, "wall_s")
    context["median_cpu_s"] = median(plain, "cpu_s")
    context["median_setup_s"] = statistics.median(setup) if setup else None
    context["rep_wall_s"] = [round(r["wall_s"], 4) for r in plain]
    context["rep_cal_us"] = [r["cal_us"] and round(r["cal_us"], 3) for r in plain]
    context["rep_cal_cpu_us"] = [r.get("cal_cpu_us") and round(r["cal_cpu_us"], 3) for r in plain]
    context["rep_cal_bursts"] = [r.get("cal_bursts", 0) for r in plain]
    context["rep_scale"] = [round(k, 4) for k in scales]
    context["measured_s"] = time.monotonic() - t_measure
    context["seeds"] = expected.seeds
    context["reference_checked"] = expected.reference is not None
    context["argv"] = plain[0].get("argv")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {rep}")
    for key, value in context.items():
        print(f"context {key} = {value}")
    for msg in problems[:50]:
        print(f"FAIL {msg}")
    print(f"ops = {attempted} count")
    print(f"failed = {failed} count")
    print(f"fail_frac = {failed / attempted:.6g} ratio")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if setup:
        print(f"setup samples = {', '.join(f'{s:.4f}' for s in setup)} s")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    work.mkdir(parents=True, exist_ok=True)
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "context": context, "problems": problems}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
