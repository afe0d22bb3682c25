"""Golden-output gate: fixed small CLI runs against committed output files.

Each case runs `klgeo.cli.main` and compares every file it writes with the
fixture under tests/golden/<case>/.  Headers, comment lines and non-numeric
cells (including `top_sequences`) must match exactly, and so must
`config.echo` and the SVGs; a numeric CSV/JSON cell may move by 1e-12
relative.

Regenerate the fixtures, only for an intended output change, with
    PYTHONPATH=src python tests/test_golden.py
which prints, for each file that changed, how many of its numbers moved
(each probability of a `top_sequences` cell counts on its own), the
largest relative and the largest absolute move and where they are, and
where any non-numeric cell changed.
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


def _cells(path: Path) -> list:
    """(where, value) for every cell of a fixture file, in file order: a
    float for each number, the text otherwise.  A `seq=prob` pair of a
    top_sequences cell is two cells, the text seq and the number prob; a
    file that is neither CSV nor JSON is one text cell."""
    text = path.read_text()
    if path.suffix == ".json":
        def walk(value, where):
            if isinstance(value, dict):
                for key in value:
                    yield from walk(value[key], f"{where}.{key}")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    yield from walk(item, f"{where}[{i}]")
            else:
                yield where, float(value) if _is_json_number(value) else value
        return list(walk(json.loads(text), path.name))
    if path.suffix != ".csv":
        return [(path.name, text)]
    cells, header = [], None
    for i, line in enumerate(text.splitlines(), 1):
        if line.startswith("#") or header is None:  # a comment or the header
            cells.append((f"{path.name} line {i}", line))
            if not line.startswith("#"):
                header = line.split(",")
            continue
        for name, cell in zip(header, line.split(",")):
            for k, part in enumerate(cell.split(";")):
                where = f"{path.name} line {i} {name}" + (f" {k + 1}" if k else "")
                if "=" in part:
                    label, part = part.split("=", 1)
                    cells.append((where, label))
                cells.append((where, float(part) if _is_number(part) else part))
    return cells


def _moves(old: Path, new: Path) -> str:
    """What changed from the fixture file old to its regenerated new."""
    before, after = _cells(old), _cells(new)
    if len(before) != len(after):
        return f"{len(before)} -> {len(after)} cells"
    moved, rel, absolute, text = 0, (0.0, ""), (0.0, ""), []
    for (_, a), (where, b) in zip(before, after):
        if isinstance(a, float) and isinstance(b, float):
            if a != b:
                moved += 1
                step = f"{where} ({a!r} -> {b!r})"
                rel = max(rel, (abs(b - a) / abs(a) if a else math.inf, step))
                absolute = max(absolute, (abs(b - a), step))
        elif a != b:
            text.append(where)
    report = [f"{moved} numbers moved, largest relative {rel[0]:.1e} at {rel[1]}, "
              f"largest absolute {absolute[0]:.1e} at {absolute[1]}"] if moved else []
    return "; ".join(report + ([f"text changed at {', '.join(text)}"] if text else []))


def regenerate():
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            out = run_case(case, Path(tmp))
            old = GOLDEN / case
            names = sorted({p.name for p in out.iterdir()}
                           | {p.name for p in old.glob("*")})
            changes = []
            for name in names:
                if not (old / name).exists() or not (out / name).exists():
                    changes.append(f"{name}: {'new' if (out / name).exists() else 'gone'}")
                elif (old / name).read_bytes() != (out / name).read_bytes():
                    changes.append(f"{name}: {_moves(old / name, out / name)}")
            shutil.rmtree(old, ignore_errors=True)
            shutil.copytree(out, old)
        print(f"wrote {old}" + ("".join(f"\n  {change}" for change in changes)
                                or ": byte-identical to the files it replaces"))


if __name__ == "__main__":
    sys.exit(regenerate())
