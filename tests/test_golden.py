"""Golden-output gate: fixed small CLI runs against committed output files.

Each case runs `klgeo.cli.main` and compares every file it writes with the
fixture under tests/golden/<case>/.  Headers, comment lines and non-numeric
cells (including `top_sequences`) must match exactly, and so must
`config.echo` and the SVGs; a numeric CSV/JSON cell may move by 1e-12
relative.

Regenerate the fixtures, only for an intended output change, with
    PYTHONPATH=src python tests/test_golden.py
"""
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from klgeo.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

TINY_SWEEP = "command=sweep\nsteps=300\ntvd_restarts=3\ntvd_steps=200\n"
SWEEP_FLAGS = ["--seeds", "1,2", "--lambdas", "1,5,20", "--plots"]

# case -> (config file text or None, command-line arguments)
CASES = {
    "sweep_bigram": (TINY_SWEEP, ["sweep", *SWEEP_FLAGS]),
    "sweep_full_warm": (TINY_SWEEP, ["sweep", *SWEEP_FLAGS, "--order", "full",
                                     "--warm-start"]),
    "geometry": (None, ["geometry", "--plots"]),
}


def run_case(case: str, workdir: Path) -> Path:
    """Runs one case in workdir; returns its output directory."""
    config, argv = CASES[case]
    out = workdir / "out"
    if config is not None:
        (workdir / "cfg").write_text(config)
        argv = [*argv, "--config", str(workdir / "cfg")]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    return out


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _same_number(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _assert_csv_close(got: str, want: str, name: str):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), name
    for i, (g_line, w_line) in enumerate(zip(got_lines, want_lines)):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        assert len(g_cells) == len(w_cells), f"{name} line {i + 1}"
        for g, w in zip(g_cells, w_cells):
            if g_line.startswith("#") or not (_is_number(g) and _is_number(w)):
                assert g == w, f"{name} line {i + 1}: {g!r} != {w!r}"
            else:
                assert _same_number(float(g), float(w)), \
                    f"{name} line {i + 1}: {g} vs {w}"


def _is_json_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _assert_json_close(got, want, where: str):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_json_close(g, w, f"{where}[{i}]")
    elif _is_json_number(want):
        assert _is_json_number(got) and _same_number(got, want), \
            f"{where}: {got} vs {want}"
    else:
        assert got == want, where


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(tmp_path, capsys, case):
    out = run_case(case, tmp_path)
    capsys.readouterr()
    expected = GOLDEN / case
    assert sorted(p.name for p in out.iterdir()) == \
        sorted(p.name for p in expected.iterdir())
    for want_path in sorted(expected.iterdir()):
        got, want = (out / want_path.name).read_text(), want_path.read_text()
        if want_path.suffix == ".csv":
            _assert_csv_close(got, want, want_path.name)
        elif want_path.suffix == ".json":
            _assert_json_close(json.loads(got), json.loads(want), want_path.name)
        else:
            assert got == want, want_path.name


def regenerate():
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            out = run_case(case, Path(tmp))
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            shutil.copytree(out, GOLDEN / case)
        print(f"wrote {GOLDEN / case}")


if __name__ == "__main__":
    sys.exit(regenerate())
