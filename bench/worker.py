"""One workload invocation in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --out DIR --result FILE [--trace]

Calls `klgeo.cli.main` in-process on the workload's arguments, times the
call (wall and user+sys CPU) and writes a JSON result to FILE.  Without
--trace, a timer interrupts the call every CALIBRATION_PERIOD_S seconds to
run a short burst of a fixed calibration loop (see Calibration); the
bursts' time is taken out of the call's times and reported on its own.
With --trace there are no bursts, the call runs under the span tracer and
the result carries the aggregated spans and solver counts.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas(numpy) -> str:
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        return "unknown"


# A calibration burst of this many loop steps (about 5 ms) runs every
# CALIBRATION_PERIOD_S seconds of an untraced call.
CALIBRATION_STEPS = 500
CALIBRATION_PERIOD_S = 0.1


class Calibration:
    """Bursts of a fixed loop of small-vector numpy calls, run during a call.

    A step is a softmax and a dot product on 27 entries, the kind of work
    the program's solvers do, so the loop's speed tracks the speed the host
    gives this process.  On a shared host that speed drifts by tens of
    percent within seconds; bursts spread evenly over the call sample it
    while the call runs.  A SIGALRM handler runs each burst between two
    bytecodes of the interrupted code and records its wall and CPU time.
    """

    def __init__(self, numpy):
        self.x = numpy.linspace(0.0, 1.0, 27)
        self.numpy = numpy
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.bursts = 0

    def _burst(self, signum, frame):
        np, x = self.numpy, self.x
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(CALIBRATION_STEPS):
            y = np.exp(x - x.max())
            y /= y.sum()
            acc += float(y @ x)
        self.wall_s += time.perf_counter() - t0
        self.cpu_s += time.process_time() - cpu0
        self.bursts += 1

    def start(self) -> None:
        # one burst at once, so that even a call shorter than the period
        # has a reading
        self._burst(None, None)
        signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def us_per_step(self, seconds: float):
        if not self.bursts:
            return None
        return 1e6 * seconds / (self.bursts * CALIBRATION_STEPS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import klgeo.cli

    src = (ROOT / "src").resolve()
    if src not in Path(klgeo.cli.__file__).resolve().parents:
        print(f"klgeo imported from {klgeo.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    config_path = os.path.join(args.out, "bench.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(w.config_text())
    cli_argv = w.argv(args.seed, config_path, os.path.join(args.out, "run"))

    tracer = None
    calibration = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    else:
        calibration = Calibration(numpy)
    try:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        if calibration is not None:
            calibration.start()
        rc = klgeo.cli.main(cli_argv)
        if calibration is not None:
            calibration.stop()  # so that no burst falls after the call's end
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
        if calibration is not None:
            calibration.stop()
    if calibration is not None:
        wall -= calibration.wall_s
        cpu -= calibration.cpu_s

    result = {
        "rc": rc,
        "argv": cli_argv,
        "wall_s": wall,
        "cpu_s": cpu,
        "cal_us": calibration.us_per_step(calibration.wall_s) if calibration else None,
        "cal_cpu_us": calibration.us_per_step(calibration.cpu_s) if calibration else None,
        "cal_bursts": calibration.bursts if calibration else 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "blas": _blas(numpy),
    }
    if tracer is not None:
        result.update(tracer.report())
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
