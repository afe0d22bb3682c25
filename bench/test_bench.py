"""Tests of the benchmark's own machinery: tracer bindings and output checks.

    python3 -m pytest -q bench

A tiny sweep runs once under the tracer; the call counts it reports must
match what the config implies exactly, so a binding the tracer missed
fails here instead of reading as zero in a benchmark run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import klgeo.cli  # noqa: E402
import klgeo.experiments  # noqa: E402
import klgeo.optimize  # noqa: E402
from check import Expected, check_outputs, compute_oracles, load_reference  # noqa: E402
from run import END_TO_END, per_layer_spec  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = [1, 2]
LAMBDAS = [1.0, 2.0]
STEPS, TVD_RESTARTS, TVD_STEPS = 50, 2, 20


@pytest.fixture(scope="module")
def traced_sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = tmp / "tiny.cfg"
    cfg.write_text(f"command=sweep\nsteps={STEPS}\ntvd_restarts={TVD_RESTARTS}\n"
                   f"tvd_steps={TVD_STEPS}\n")
    out = tmp / "out"
    tracer = Tracer().install()
    try:
        rc = klgeo.cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                             "--order", "bigram", "--plots", "--seeds", "1,2",
                             "--lambdas", "1,2"])
    finally:
        tracer.restore()
    return rc, out, tracer.report()


def test_tracer_call_counts_are_exact(traced_sweep):
    rc, _, report = traced_sweep
    assert rc == 0
    calls = {name: s["calls"] for name, s in report["spans"].items()}
    solvers = report["solvers"]
    n_seeds, n_lam = len(SEEDS), len(LAMBDAS)
    ascents = n_seeds * n_lam
    assert calls["cli.main"] == 1
    assert calls["experiments.run_sweep"] == n_seeds
    assert calls["optimize.ascend_j_beta"] == ascents
    ascent = solvers["optimize.ascend_j_beta"]
    assert (ascent["runs"], ascent["steps"], ascent["aborted"]) == (ascents, ascents * STEPS, 0)
    # one gradient per step plus the final-norm evaluation
    assert calls["ngram.JBetaObjective.grad_theta"] == (STEPS + 1) * ascents
    # initial value plus the value at the last step (record_every > STEPS)
    assert calls["ngram.JBetaObjective.value_theta"] == 2 * ascents
    assert calls["optimize.fit_forward_kl"] == n_seeds
    fkl = solvers["optimize.fit_forward_kl"]
    assert fkl["runs"] == n_seeds
    assert calls["ngram.ForwardKLObjective.grad_theta"] == fkl["steps"] + n_seeds
    assert calls["optimize.fit_tvd"] == n_seeds
    assert calls["ngram.TVDObjective.grad_theta"] == n_seeds * TVD_RESTARTS * (TVD_STEPS + 1)
    assert calls["ngram.TVDObjective.value_theta"] == n_seeds * TVD_RESTARTS * 2
    assert calls["experiments.make_sweep_record"] == ascents
    # base model, projection, one per grid point, FKL and TVD results
    assert calls["ngram.to_distribution"] == n_seeds * (n_lam + 4)
    assert calls["ngram.project_policy"] == n_seeds
    assert calls["dist.condition"] == n_seeds
    assert calls["geometry.tilted"] == ascents
    assert calls["geometry.j_beta"] == ascents
    assert calls["io.write_csv"] == 2
    assert calls["io.write_json"] == 1
    assert calls["svg.emit_svg"] == 4
    for name, s in report["spans"].items():
        assert s["calls"] > 0, name
        assert 0 <= s["self_s"] <= s["s"] + 1e-9, name


def test_tracer_restores_every_binding():
    before = {ns: dict(vars(ns)) for ns in (klgeo.cli, klgeo.experiments, klgeo.optimize)}
    grad = klgeo.ngram.JBetaObjective.__dict__["grad_theta"]
    tracer = Tracer().install()
    try:
        assert klgeo.experiments.ascend_j_beta is klgeo.optimize.ascend_j_beta
        assert klgeo.experiments.ascend_j_beta is not before[klgeo.optimize]["ascend_j_beta"]
        assert klgeo.cli.write_csv is klgeo.io.write_csv
        assert klgeo.ngram.JBetaObjective.__dict__["grad_theta"] is not grad
        assert tracer.bindings() > len(TRACED)
    finally:
        tracer.restore()
    for ns, attrs in before.items():
        assert dict(vars(ns)) == attrs
    assert klgeo.ngram.JBetaObjective.__dict__["grad_theta"] is grad


def _expected(reference=None):
    return Expected(seeds=SEEDS, lambdas=LAMBDAS, order="bigram",
                    oracles=compute_oracles(SEEDS, "bigram"), reference=reference)


def _edit(path: Path, row: int, column: str, value: str):
    lines = path.read_text().splitlines()
    body = [i for i, l in enumerate(lines) if not l.startswith("#")]
    header = lines[body[0]].split(",")
    cells = lines[body[1 + row]].split(",")
    cells[header.index(column)] = value
    lines[body[1 + row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _cell(path: Path, row: int, column: str) -> float:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return float(lines[1 + row].split(",")[lines[0].split(",").index(column)])


@pytest.fixture
def outputs(traced_sweep, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(traced_sweep[1], out)
    ref = tmp_path / "ref"
    ref.mkdir()
    for name in ("sweep.csv", "refs.csv"):
        shutil.copyfile(out / name, ref / name)
    return out, ref


def test_clean_outputs_pass(outputs):
    out, ref = outputs
    exp = _expected()
    exp.reference = load_reference(str(ref), exp.oracles)
    report = check_outputs(str(out), 0, exp)
    assert report.ops == len(SEEDS) * len(LAMBDAS) + len(SEEDS)
    assert report.failed == set(), report.problems


def test_nonzero_exit_fails_every_op(outputs):
    report = check_outputs(str(outputs[0]), 1, _expected())
    assert len(report.failed) == report.ops


def test_bare_nan_fails_every_op(outputs):
    out, _ = outputs
    _edit(out / "sweep.csv", 0, "entropy", "nan")
    report = check_outputs(str(out), 0, _expected())
    assert len(report.failed) == report.ops


def test_drift_fails_and_roundoff_passes(outputs):
    out, ref = outputs
    exp = _expected()
    exp.reference = load_reference(str(ref), exp.oracles)
    v = _cell(out / "sweep.csv", 1, "validity")
    _edit(out / "sweep.csv", 1, "validity", repr(v * (1 + 1e-13)))
    assert check_outputs(str(out), 0, exp).failed == set()
    _edit(out / "sweep.csv", 1, "validity", repr(v * (1 + 1e-6)))
    report = check_outputs(str(out), 0, exp)
    # the row itself and, through the summary means, every row at that lambda
    assert report.failed == {("sweep", 1, 1), ("sweep", 2, 1)}


def test_tvd_reference_is_one_sided(outputs):
    out, ref = outputs
    exp = _expected()
    exp.reference = load_reference(str(ref), exp.oracles)
    tvd = _cell(out / "refs.csv", 0, "tvd_ref_tvd")

    def worse(factor):
        _edit(out / "refs.csv", 0, "tvd_ref_tvd", repr(tvd * factor))
        # the edit also breaks the summary.json mean; look at the row check
        return [p for p in check_outputs(str(out), 0, exp).problems
                if "tvd_ref_tvd" in p and "worse than reference" in p]

    assert worse(0.9) == []
    assert len(worse(1.1)) == 1


def test_fkl_invariant_holds_without_reference(outputs):
    out, _ = outputs
    kl = _cell(out / "refs.csv", 1, "fkl_ref_kl")
    _edit(out / "refs.csv", 1, "fkl_ref_kl", repr(kl + 1e-6))
    problems = check_outputs(str(out), 0, _expected()).problems
    assert any(p.startswith("refs.csv seed=2: fkl_ref_kl") and "projection" in p
               for p in problems), problems
    _edit(out / "refs.csv", 1, "fkl_ref_kl", repr(kl - 1e-6))
    problems = check_outputs(str(out), 0, _expected()).problems
    assert any(p.startswith("refs.csv seed=2: fkl_ref_kl") and "below the optimum" in p
               for p in problems), problems


def test_missing_row_counts_as_failed(outputs):
    out, _ = outputs
    path = out / "sweep.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    report = check_outputs(str(out), 0, _expected())
    assert ("sweep", 2, 1) in report.failed


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_spec()


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tvd_refit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
