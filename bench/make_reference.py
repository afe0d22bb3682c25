"""Regenerate the reference outputs the benchmark compares against.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload once at the reference seed with the current sources,
checks the outputs against the seed-independent invariants, and stores
sweep.csv and refs.csv under bench/reference/<workload>/.  Regenerate only
when an output change is intended, and say so in the change.
"""
from __future__ import annotations

import shutil
import sys
import time

from run import HERE, SRC, WORK, expected_outputs, run_worker
from workloads import REFERENCE_SEED, WORKLOADS

sys.path.insert(0, str(SRC))
from check import check_outputs  # noqa: E402


def main(names) -> int:
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        out = WORK / f"reference-{name}"
        res = run_worker(name, REFERENCE_SEED, out, trace=False,
                         deadline=time.monotonic() + 900)
        expected = expected_outputs(w, REFERENCE_SEED)
        expected.reference = None
        report = check_outputs(str(out / "run"), res["rc"], expected)
        if report.failed:
            print(f"{name}: outputs fail the invariants:", *report.problems, sep="\n  ")
            return 1
        dest = HERE / "reference" / name
        dest.mkdir(parents=True, exist_ok=True)
        for fname in ("sweep.csv", "refs.csv"):
            shutil.copyfile(out / "run" / fname, dest / fname)
        print(f"{name}: wrote {dest} ({res['wall_s']:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
