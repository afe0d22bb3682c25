"""Config parsing, serialization formats, SVG emission, CLI exit codes."""
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from conftest import FUZZ
from hypothesis import given
from hypothesis import strategies as st

from klgeo import checks, cli
from klgeo.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from klgeo.experiments import GEOMETRY_LAMBDAS, PROFILE_A1, TABLE_A1, TABLE_MU
from klgeo.io import (
    SCHEMAS,
    ConfigError,
    RunConfig,
    fmt_float,
    parse_config,
    read_csv,
    write_csv,
    write_json,
)
from klgeo.svg import emit_svg


class TestConfigParsing:
    def test_roundtrip_each_command(self):
        for command in ("sweep", "geometry", "check"):
            cfg = RunConfig(command=command)
            again = parse_config(cfg.serialize(), command)
            assert again.command == command
            assert again.values == cfg.values

    def test_values_and_ranges(self):
        cfg = parse_config(
            "# comment\n"
            "command=sweep\n"
            "seeds=1..4,9\n"
            "lambdas=0.5,2,10\n"
            "warm_start=true\n"
            "steps=123\n", "sweep")
        assert cfg["seeds"] == [1, 2, 3, 4, 9]
        assert cfg["lambdas"] == [0.5, 2.0, 10.0]
        assert cfg["warm_start"] is True
        assert cfg["steps"] == 123
        # untouched keys fall back to defaults
        assert cfg["order"] == "bigram"

    @pytest.mark.parametrize("text, line", [
        ("command=sweep\nsteps=20\nsteps=30\n", 3),
        ("command=sweep\ncommand=sweep\n", 2),
    ])
    def test_duplicate_key(self, text, line):
        with pytest.raises(ConfigError, match="duplicate key") as exc:
            parse_config(text, "sweep")
        assert (exc.value.line, exc.value.column) == (line, 1)

    def test_command_mismatch_position(self):
        text = "# c\nsteps=10\ncommand=sweep\n"
        assert parse_config(text, "sweep")["steps"] == 10
        with pytest.raises(ConfigError, match="config is for command 'sweep'") as exc:
            parse_config(text, "geometry")
        assert (exc.value.line, exc.value.column) == (3, 9)

    def test_missing_command(self):
        with pytest.raises(ConfigError):
            parse_config("seeds=1\n", "sweep")

    def test_unknown_key_position(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("command=sweep\nbogus=1\n", "sweep")
        assert exc.value.line == 2

    def test_bad_value_position(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("command=sweep\n\nsteps=soon\n", "sweep")
        assert exc.value.line == 3
        assert exc.value.column == 7

    def test_not_key_value(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("command=check\njust a line\n", "check")
        assert exc.value.line == 2

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command 'frobnicate'"):
            parse_config("command=frobnicate\n", "sweep")

    def test_serialize_lists_default_grids(self):
        # config.echo is fully resolved: a default-grid run names its grid
        assert "\nlambdas=0.5,1,2,3,5,7,10,15,20,35,50,100\n" in \
            RunConfig(command="sweep").serialize()
        assert RunConfig(command="geometry").serialize() == \
            "command=geometry\nplots=false\n"

    def test_removed_forward_kl_fit_keys(self):
        # the forward-KL reference is closed form; its old step knobs are gone
        for key in ("fkl_steps=15000", "fkl_learning_rate=0.05"):
            with pytest.raises(ConfigError):
                parse_config(f"command=sweep\n{key}\n", "sweep")


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_tables():
    """{command: {key: default text}} from README's "Config keys" tables."""
    section = README.read_text(encoding="utf-8").split("### Config keys", 1)[1]
    section = section.split("\n## ", 1)[0]
    tables, command = {}, None
    for line in section.splitlines():
        if line.startswith("`") and line.endswith("`:"):
            command = line[1:-2]
            tables[command] = {}
        elif line.startswith("| `") and command is not None:
            key, default = (cell.strip().strip("`")
                            for cell in line.split("|")[1:3])
            tables[command][key] = default
    return tables


class TestReadmeConfigKeys:
    def test_tables_match_schemas(self):
        tables = readme_config_tables()
        assert set(tables) == set(SCHEMAS)
        for command, rows in tables.items():
            schema = SCHEMAS[command]
            assert set(rows) == set(schema), command
            for key, text in rows.items():
                parse, default = schema[key]
                assert parse(text) == default, (command, key, text)


class TestReadmeDivergedAscent:
    def test_example_quotes_the_pinned_endpoint(self):
        # README's diverged-ascent example quotes, to one decimal, where the
        # ascent at lambda 0.01 of seed 1 ends, as TestCliErrors pins it
        _, final = TestCliErrors.ASCENTS["", "--seeds 1 --lambdas 0.01"]
        quoted = f"{float(final):.1f}".replace("-", "−")
        text = " ".join(README.read_text(encoding="utf-8").split())
        assert f"at λ = 0.01 seed 1 falls from −2.38 to {quoted}." in text


class TestFloatFormat:
    def test_exact_roundtrip(self):
        for x in (math.pi, 1.0 / 3.0, 1e-300, 123456.789, -0.1):
            assert float(fmt_float(x)) == x

    def test_inf_token(self):
        assert fmt_float(float("inf")) == "inf"

    @pytest.mark.parametrize("x", [math.nan, -math.inf])
    def test_no_token_raises(self, x):
        with pytest.raises(ValueError, match="no token"):
            fmt_float(x)


class TestCsv:
    def test_roundtrip_with_provenance(self, tmp_path):
        path = tmp_path / "t.csv"
        header = ("a", "b")
        rows = [[fmt_float(math.pi), "inf"], [fmt_float(0.1), fmt_float(2.0)]]
        write_csv(path, header, rows)
        text = path.read_text()
        assert text.startswith("# library_version=")
        assert "\r" not in text
        h, back = read_csv(path)
        assert tuple(h) == header
        assert back == rows
        assert float(back[0][0]) == math.pi

    def test_json_inf_as_string(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"x": float("inf"), "z": [1.5, math.inf]})
        payload = json.loads(path.read_text())
        assert payload["x"] == "inf"
        assert payload["z"] == [1.5, "inf"]
        assert "provenance" in payload

    def test_package_version_single_sourced(self):
        # the provenance version is the one the package metadata reads
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parent.parent / "pyproject.toml", "rb") as fh:
            meta = tomllib.load(fh)
        assert "version" not in meta["project"]
        assert meta["project"]["dynamic"] == ["version"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "klgeo.__version__"}

    @pytest.mark.parametrize("x", [math.nan, -math.inf])
    def test_json_non_finite_raises_before_writing(self, tmp_path, x):
        path = tmp_path / "t.json"
        with pytest.raises(ValueError):
            write_json(path, {"x": x})
        assert not path.exists()


class TestSvg:
    def test_deterministic_bytes(self, tmp_path):
        series = [("s", [1.0, 2.0, 3.0], [0.5, 0.2, 0.9])]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(series, p1, "t", "x", "y")
        emit_svg(series, p2, "t", "x", "y")
        assert p1.read_bytes() == p2.read_bytes()
        assert b"<polyline" in p1.read_bytes()

    def test_title_and_axis_labels_written(self, tmp_path):
        path = tmp_path / "l.svg"
        emit_svg([("s", [1.0, 2.0], [0.5, 0.2])], path, "T1", "X1", "Y1")
        text = path.read_text(encoding="utf-8")
        for label in ("T1", "X1", "Y1"):
            assert text.count(f'text-anchor="middle">{label}</text>') == 1

    @pytest.mark.parametrize("y", [float("inf"), float("nan")])
    def test_non_finite_point_rejected_before_writing(self, tmp_path, y):
        path = tmp_path / "inf.svg"
        with pytest.raises(ValueError, match="non-finite y value"):
            emit_svg([("s", [1.0, 2.0, 3.0], [0.5, y, 0.9])], path, "t", "x", "y")
        assert not path.exists()

    def test_errors(self, tmp_path):
        path = tmp_path / "x.svg"
        with pytest.raises(ValueError):
            emit_svg([], path, "t", "x", "y")
        with pytest.raises(ValueError):
            emit_svg([("s", [1.0, 2.0], [0.5])], path, "t", "x", "y")
        with pytest.raises(ValueError):
            emit_svg([("s", [2.0, 1.0], [0.5, 0.5])], path, "t", "x", "y")
        with pytest.raises(ValueError):
            emit_svg([("s", [0.0, 1.0], [0.5, 0.5])], path, "t", "x", "y")


class TestChecksRegistry:
    def test_registry_complete(self):
        assert len(checks.REGISTRY) == 12
        assert set(checks.REGISTRY) == {
            "prop-identity", "kl-difference-identity", "bijection-roundtrip",
            "legendre-consistency", "closed-form-convergence",
            "moment-monotone-convex", "iprojection-slice", "ordering-crossing",
            "gradient-j-beta", "gradient-forward-kl", "tvd-metric",
            "conditioning"}

    def test_all_pass(self):
        results = checks.run_all()
        failed = [n for n, (ok, _) in results.items() if not ok]
        assert failed == []


def write_tiny_sweep_config(path):
    path.write_text(
        "command=sweep\n"
        "seeds=1\n"
        "lambdas=1,5\n"
        "steps=50\n"
        "tvd_restarts=2\n"
        "tvd_steps=50\n")


class TestCliSweep:
    def test_tiny_sweep(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        write_tiny_sweep_config(cfgfile)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_OK
        header, rows = read_csv(out / "sweep.csv")
        assert header[:3] == ["seed", "lambda", "beta"]
        assert len(rows) == 2  # one seed x two lambdas
        assert rows[0][0] == "1"
        assert float(rows[1][1]) == 5.0
        _, ref_rows = read_csv(out / "refs.csv")
        assert len(ref_rows) == 1
        assert (out / "summary.json").exists()
        assert (out / "config.echo").read_text().startswith("command=sweep")

    def test_top_sequences_cell_keeps_top_k(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        write_tiny_sweep_config(cfgfile)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "sweep.csv")
        assert header[-1] == "top_sequences"
        for row in rows:
            cells = [c.split("=") for c in row[-1].split(";")]
            assert len(cells) == 5
            assert all(len(seq) == 3 and set(seq) <= set("012") for seq, _ in cells)
            probs = [float(p) for _, p in cells]
            assert probs == sorted(probs, reverse=True)

    def test_config_echo_lists_every_sweep_key(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        write_tiny_sweep_config(cfgfile)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
        keys = [line.split("=", 1)[0]
                for line in (out / "config.echo").read_text().splitlines()]
        assert keys == ["command", "lambdas", "learning_rate", "order", "plots",
                        "seeds", "steps", "tvd_restarts", "tvd_steps", "warm_start"]

    def test_flag_overrides_config(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        write_tiny_sweep_config(cfgfile)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out),
                   "--lambdas", "2"])
        assert rc == EXIT_OK
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 1
        assert float(rows[0][1]) == 2.0

    def test_seed_environment_variable_ignored(self, tmp_path, monkeypatch):
        # seeds come from the config file and --seeds only
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            "command=sweep\nlambdas=1\nsteps=20\n"
            "tvd_restarts=1\ntvd_steps=20\n")
        out = tmp_path / "out"
        monkeypatch.setenv("KLGEO_SEED", "3")
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = read_csv(out / "sweep.csv")
        assert [r[0] for r in rows] == ["1"]

    def test_malformed_seed_environment_variable_ignored(self, tmp_path,
                                                          monkeypatch):
        # a value that --seeds would refuse leaves the run untouched
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            "command=sweep\nlambdas=1\nsteps=20\n"
            "tvd_restarts=1\ntvd_steps=20\n")
        out = tmp_path / "out"
        monkeypatch.setenv("KLGEO_SEED", "2,1..3")
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = read_csv(out / "sweep.csv")
        assert [r[0] for r in rows] == ["1"]

    def test_env_seed_ignored_by_other_commands(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KLGEO_SEED", "3")
        assert main(["geometry", "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("flags, seed", [([], "2"), (["--seeds", "1"], "1")])
    def test_seed_sources(self, tmp_path, flags, seed):
        # the config file's seeds, unless --seeds overrides them
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            "command=sweep\nseeds=2\nlambdas=1\nsteps=20\n"
            "tvd_restarts=1\ntvd_steps=20\n")
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out), *flags])
        assert rc == EXIT_OK
        _, rows = read_csv(out / "sweep.csv")
        assert [r[0] for r in rows] == [seed]

    def test_plots_emitted(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        write_tiny_sweep_config(cfgfile)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out),
                   "--plots"])
        assert rc == EXIT_OK
        for metric in ("validity", "tvd_to_pstar", "fkl_from_pstar", "entropy"):
            assert (out / f"{metric}.svg").exists()


class TestCliGeometry:
    def test_outputs(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["geometry", "--out", str(out)])
        assert rc == EXIT_OK
        header, rows = read_csv(out / "geometry.csv")
        assert header == ["lambda", "mu", "kappa", "tvd_pstar", "fkl_pstar"]
        # at lambda=0 with base validity 0.5 the tilted model is the base:
        # tvd to the filtered model is 0.5 and the forward KL is log 2
        row0 = [r for r in rows if float(r[0]) == 0.0][0]
        assert float(row0[1]) == pytest.approx(0.5, abs=1e-12)
        assert float(row0[3]) == pytest.approx(0.5, abs=1e-12)
        assert float(row0[4]) == pytest.approx(math.log(2), abs=1e-12)

        bm_header, bm_rows = read_csv(out / "betamu.csv")
        assert bm_header == ["A1", "mu_target", "lambda", "beta", "kappa"]
        # the A1=0.9, mu=0.9 row needs no tilt: beta is the "inf" token
        row = [r for r in bm_rows if float(r[0]) == 0.9][0]
        assert row[3] == "inf"
        assert float(row[2]) == pytest.approx(0.0, abs=1e-12)

        ord_header, ord_rows = read_csv(out / "ordering.csv")
        assert ord_header[0] == "lambda"
        crossing = float(ord_rows[0][5])
        assert crossing > 0
        assert all(float(r[5]) == crossing for r in ord_rows)

    def test_plots(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["geometry", "--out", str(out), "--plots"])
        assert rc == EXIT_OK
        assert (out / "ordering.svg").exists()

    def test_no_svg_without_plots(self, tmp_path):
        out = tmp_path / "out"
        assert main(["geometry", "--out", str(out)]) == EXIT_OK
        assert not (out / "ordering.svg").exists()

    def test_profile_on_fixed_grid(self, tmp_path):
        # the profile is at A1 = PROFILE_A1, one row per point of the grid
        out = tmp_path / "out"
        assert main(["geometry", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out / "geometry.csv")
        assert [float(r[0]) for r in rows] == list(GEOMETRY_LAMBDAS)
        mus = [float(r[1]) for r in rows]
        assert mus[GEOMETRY_LAMBDAS.index(0.0)] == pytest.approx(PROFILE_A1, abs=1e-12)
        assert mus == sorted(mus)

    def test_betamu_rows_cover_fixed_table(self, tmp_path):
        out = tmp_path / "out"
        assert main(["geometry", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out / "betamu.csv")
        assert [(float(r[0]), float(r[1])) for r in rows] == \
            [(a1, mu) for a1 in TABLE_A1 for mu in TABLE_MU]

    def test_ordering_on_positive_grid(self, tmp_path):
        out = tmp_path / "out"
        assert main(["geometry", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out / "ordering.csv")
        assert [float(r[0]) for r in rows] == [l for l in GEOMETRY_LAMBDAS if l > 0]
        assert all(math.isfinite(float(c)) for r in rows for c in r)


class TestCliCheck:
    def test_all_pass_exit_zero(self, tmp_path, capsys):
        rc = main(["check", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        assert captured.count("PASS") == 12
        assert "FAIL" not in captured

    def test_injected_bug_caught(self, tmp_path, capsys, monkeypatch):
        from klgeo import geometry

        real = geometry.natural_param

        def broken(fam, mu):
            return -real(fam, mu)  # sign bug

        monkeypatch.setattr(geometry, "natural_param", broken)
        rc = main(["check", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr().out
        assert rc == EXIT_CHECK
        assert "bijection-roundtrip  FAIL" in captured.replace("   ", "  ") or \
            "bijection-roundtrip" in [
                n.strip() for line in captured.splitlines()
                if "FAIL" in line for n in [line.split("FAIL")[0]]]

    def test_raising_check_fails_with_exit_three(self, tmp_path, capsys,
                                                 monkeypatch):
        # a natural_param 1e4 times too large makes some checks raise (an
        # infinite KL); each is reported as a failure, every line still prints
        from klgeo import geometry

        real = geometry.natural_param
        monkeypatch.setattr(geometry, "natural_param",
                            lambda fam, mu: 1e4 * real(fam, mu))
        rc = main(["check", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == EXIT_CHECK
        lines = captured.out.splitlines()
        assert len(lines) == 13 and lines[-1].startswith("failed checks: ")
        assert any("FAIL  raised ValueError: KL divergence is infinite" in line
                   for line in lines)
        assert "config error" not in captured.err

    def test_three_outcome_closed_form_fault_caught(self, tmp_path, capsys,
                                                   monkeypatch):
        # a TVD profile off by 1e-9 on the three-outcome families only; the
        # 27-outcome family that closed-form-convergence also runs is untouched
        from klgeo import geometry

        real = geometry.convergence_profile

        def shifted(fam, lambdas):
            points = real(fam, lambdas)
            if len(fam.base) == 3:
                points = [dataclasses.replace(p, tvd_to_pstar=p.tvd_to_pstar + 1e-9)
                          for p in points]
            return points

        monkeypatch.setattr(geometry, "convergence_profile", shifted)
        rc = main(["check", "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_CHECK
        assert lines[-1] == "failed checks: closed-form-convergence"

    @pytest.mark.parametrize("argv", [["sweep"], ["geometry"]], ids=["sweep", "geometry"])
    def test_other_commands_do_not_load_the_registry(self, tmp_path, argv):
        if argv[0] == "sweep":
            write_tiny_sweep_config(tmp_path / "cfg")
            argv = [*argv, "--config", str(tmp_path / "cfg")]
        env = dict(os.environ)
        src = str(Path(main.__code__.co_filename).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", REGISTRY_PROBE, *argv,
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


# a fresh interpreter runs one command; only `check` may import klgeo.checks
REGISTRY_PROBE = """
import sys
import klgeo.cli
assert klgeo.cli.main(sys.argv[1:]) == 0
assert "klgeo.checks" not in sys.modules
"""


class TestCliGradcheck:
    """The gradient checks that `klgeo check` runs, in both policy families."""

    def test_passes(self, tmp_path, capsys):
        rc = main(["check", "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_OK
        # each gradient check reports the bigram and the full-order family
        for name in ("gradient-j-beta", "gradient-forward-kl"):
            line, = (l for l in lines if l.startswith(name))
            assert "PASS" in line
            assert "max relative error bigram " in line and ", full " in line

    def test_full_order_gradient_fault_caught(self, tmp_path, capsys,
                                              monkeypatch):
        # a forward-KL gradient wrong in one component of the full-order
        # family (39 logits) only; the bigram family (21) is untouched
        from klgeo import ngram

        real = ngram.ForwardKLObjective.grad_theta

        def faulty(self, struct, theta):
            grad = real(self, struct, theta)
            if theta.size == 39:
                grad[7] += 1e-3
            return grad

        monkeypatch.setattr(ngram.ForwardKLObjective, "grad_theta", faulty)
        rc = main(["check", "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_CHECK
        assert lines[-1] == "failed checks: gradient-forward-kl"
        line, = (l for l in lines if l.startswith("gradient-forward-kl"))
        assert "FAIL" in line and ", full " in line


# numpy first, as a host program loads it; then the thread count before and
# after klgeo.cli, and a product large enough to restart OpenBLAS's pool
BLAS_PROBE = """
import os, numpy
before = len(os.listdir("/proc/self/task"))
import klgeo.cli
after = len(os.listdir("/proc/self/task"))
a = numpy.arange(90000.0).reshape(300, 300) / 9e4
assert numpy.allclose(a @ a, numpy.einsum("ij,jk->ik", a, a))
with open("/proc/self/maps", encoding="utf-8") as fh:
    openblas = any("openblas" in line.rsplit("/", 1)[-1] for line in fh)
print(before, after, int(openblas))
"""


class TestBlasThreads:
    def test_cli_import_stops_idle_openblas_workers(self):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc to count threads in")
        env = dict(os.environ)
        src = str(Path(main.__code__.co_filename).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        before, after, openblas = map(int, proc.stdout.split())
        if not openblas or before == 1:
            pytest.skip("numpy's BLAS is not OpenBLAS with a thread pool")
        assert after == 1

    # _release_blas_threads, in-process, on a faked /proc/self/maps and
    # ctypes.CDLL: it reads the maps, loads each mapped OpenBLAS once and
    # calls its blas_thread_shutdown_ only where it finds one
    MAPS = ("7f00-7f01 r-xp 00000000 08:01 11 /usr/lib/libopenblasp-r0.3.so\n"
            "7f02-7f03 r-xp 00000000 08:01 12 /opt/lib/libopenblas64_.so.0\n"
            "7f04-7f05 r-xp 00000000 08:01 13 /usr/lib/libm.so.6\n")

    def fake_maps(self, monkeypatch, text):
        def fake_open(path, *args, **kwargs):
            assert path == "/proc/self/maps"
            if text is None:
                raise PermissionError(13, "Permission denied", path)
            return io.StringIO(text)

        monkeypatch.setattr(cli, "open", fake_open, raising=False)

    def test_unreadable_maps_return_quietly(self, monkeypatch):
        self.fake_maps(monkeypatch, None)
        monkeypatch.setattr(cli.ctypes, "CDLL", pytest.fail)
        assert cli._release_blas_threads() is None

    def test_unloadable_openblas_is_skipped(self, monkeypatch):
        # the first mapped OpenBLAS does not load; the second is still stopped
        self.fake_maps(monkeypatch, self.MAPS)
        loaded, calls = [], []

        def fake_cdll(path):
            loaded.append(path)
            if path.startswith("/opt/"):
                raise OSError(f"{path}: cannot open shared object file")
            return types.SimpleNamespace(blas_thread_shutdown_=lambda: calls.append(path))

        monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll)
        cli._release_blas_threads()
        assert loaded == ["/opt/lib/libopenblas64_.so.0", "/usr/lib/libopenblasp-r0.3.so"]
        assert calls == ["/usr/lib/libopenblasp-r0.3.so"]

    def test_library_without_shutdown_is_skipped(self, monkeypatch):
        # a near-miss name is not the shutdown, and nothing is called
        self.fake_maps(monkeypatch, self.MAPS)
        calls = []
        lib = types.SimpleNamespace(blas_thread_shutdown=lambda: calls.append(1),
                                    openblas_set_num_threads=calls.append)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: lib)
        cli._release_blas_threads()
        assert calls == []


class TestCliErrors:
    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("command=sweep\nbogus=1\n")
        rc = main(["sweep", "--config", str(cfgfile),
                   "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert rc == EXIT_CONFIG

    def test_command_mismatch_exit_one(self, tmp_path, capsys):
        # the error names the line and column of the command= value
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("# c\nsteps=10\ncommand=sweep\n")
        out = tmp_path / "out"
        rc = main(["geometry", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: line 3, column 9: config is for command 'sweep'\n")
        assert not out.exists()

    def test_missing_config_file_exit_one(self, tmp_path, capsys):
        rc = main(["check", "--config", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["sweep"])
    def test_unknown_order_exit_one(self, tmp_path, capsys, command):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"command={command}\norder=trigram\n")
        rc = main([command, "--config", str(cfgfile),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "order" in capsys.readouterr().err

    def test_empty_seed_range_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", "--seeds", "3..1", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "empty range" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_duplicate_seeds_exit_one(self, tmp_path, capsys):
        # a repeated seed would count twice in every mean across seeds; a
        # tiny budget, so that a run which took the seeds ends quickly
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("command=sweep\nsteps=3\ntvd_restarts=1\ntvd_steps=3\n")
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out),
                   "--seeds", "1,1"])
        assert rc == EXIT_CONFIG
        assert "seeds must be distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lambdas", ["5,1", "nan", "inf"])
    def test_unsorted_lambdas_exit_one(self, tmp_path, capsys, lambdas):
        out = tmp_path / "out"
        rc = main(["sweep", "--lambdas", lambdas, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "sorted ascending" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["steps", "tvd_restarts"])
    def test_zero_optimizer_budget_exit_one(self, tmp_path, capsys, key):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"command=sweep\n{key}=0\n")
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, line, message", [
        ("sweep", "sigma=0.5", "unknown key 'sigma'"),
        ("sweep", "top_k=5", "unknown key 'top_k'"),
        ("sweep", "seeds=-1", "seeds"),
        ("sweep", "seeds=1,1", "seeds must be distinct"),
        ("sweep", "seeds=1..3,2", "seeds must be distinct"),
        ("sweep", "learning_rate=nan", "learning_rate"),
        ("sweep", "learning_rate=inf", "learning_rate"),
        ("sweep", "lambdas=1,1,2", "distinct and sorted ascending"),
        ("geometry", "a1_values=0.5", "unknown key 'a1_values'"),
        ("geometry", "mu_targets=0.9", "unknown key 'mu_targets'"),
        ("geometry", "profile_a1=0.5", "unknown key 'profile_a1'"),
        ("geometry", "lambdas=1,2", "unknown key 'lambdas'"),
        ("geometry", "plots=yes", "expected true/false"),
        ("check", "tolerance=1e-7", "unknown key 'tolerance'"),
    ])
    def test_bad_value_exit_one_before_output(self, tmp_path, capsys, command,
                                              line, message):
        cfgfile = tmp_path / "cfg"
        budget = "steps=3\ntvd_restarts=1\ntvd_steps=3\n" if command == "sweep" else ""
        cfgfile.write_text(f"command={command}\n{budget}{line}\n")
        out = tmp_path / "out"
        rc = main([command, "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, flags, message", [
        ("seeds=-1", [], "line 5, column 7: bad value for 'seeds': "),
        ("", ["--seeds=-1"], ""),
    ], ids=["config", "flag"])
    def test_negative_seed_exit_one_before_output(self, tmp_path, capsys, line,
                                                  flags, message):
        # the seeds parser refuses a negative seed on either input path
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"command=sweep\nsteps=3\ntvd_restarts=1\ntvd_steps=3\n{line}\n")
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), *flags, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {message}seeds must be non-negative\n")
        assert not out.exists()

    def test_unknown_order_flag_exit_one(self, tmp_path, capsys):
        rc = main(["sweep", "--order", "trigram", "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "bigram/full" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("sweep", ["--tolerance", "5"]),
        ("geometry", ["--seeds", "3", "--warm-start", "--tolerance", "5"]),
        ("geometry", ["--lambdas", "1,2"]),
        ("check", ["--plots"]),
        ("check", ["--tolerance", "1e-7"]),
    ])
    def test_flag_without_key_exit_one(self, tmp_path, capsys, command, flags):
        # a tiny budget, so that a run which ignored the flag ends quickly
        cfgfile = tmp_path / "cfg"
        budget = "steps=3\ntvd_restarts=1\ntvd_steps=3\n" if command == "sweep" else ""
        cfgfile.write_text(f"command={command}\n{budget}")
        out = tmp_path / "out"
        rc = main([command, *flags, "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "unrecognized arguments: " + " ".join(flags) in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_one(self, tmp_path, capsys):
        # gradcheck is no command: `check` runs the gradient checks
        for command in ("frobnicate", "gradcheck"):
            assert main([command, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("usage: klgeo ") and "invalid choice" in err
        assert main(["sweep", "--order", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "--order: expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        # check takes no config key, so it has no flag beyond these
        assert "--config" in out and "--out" in out and "--tolerance" not in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seeds", ["1", "1,2"])
    def test_aborted_ascent_exit_one(self, tmp_path, capsys, seeds):
        # beta = 1e300 aborts the first ascent; no row is written for any
        # seed, and the diagnostic is the only message: numpy's overflow
        # warnings on the way there would raise here
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("command=sweep\nsteps=3\ntvd_restarts=1\ntvd_steps=3\n")
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), "--seeds", seeds,
                   "--lambdas", "1e-300,1", "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err and len(err.splitlines()) == 1
        assert "ascent at lambda 1e-300 aborted" in err
        assert (out / "config.echo").exists()
        assert not (out / "sweep.csv").exists()

    # (config lines, arguments) -> the grid point whose ascent diverged and
    # the value it ended at, or None for exit 0.  The fixed step 0.1 makes
    # the ascent fall from J_beta -2.381 to -16.3 at lambda 0.01 and from
    # -2710 to -3.1e5 at 1e-05; the 1e10 step at lambda 0.5 falls from 0.275
    # to -4.52, and the ascent at 1e-20 from -2.7e18 to -2.8e20.  The last
    # three also end where a KL metric is infinite: the fall is what exit 1
    # names.  At 0.05 the optimum it reaches has J_beta < 0.  The second
    # ascent, at the double after 0.5 or after 0.1, starts at its optimum to
    # round-off; after 0.5 it ends 5.6e-17 above it, after 0.1 1.9e-15
    # below it, within round-off
    ASCENTS = {
        ("", "--seeds 1 --lambdas 0.01"): ("0.01", "-16.346991271687628"),
        ("", "--seeds 1 --lambdas 0.00001"): ("1e-05", "-310987.1226803502"),
        ("steps=3 learning_rate=1e10", ""): ("0.5", "-4.521887669025526"),
        ("steps=3 lambdas=1e-20", ""): ("1e-20", "-2.763996622138854e+20"),
        ("", "--seeds 1 --lambdas 0.05"): None,
        ("", "--order full --warm-start --seeds 2 --lambdas 0.5,0.5000000000000001"):
        None,
        ("", "--order full --warm-start --seeds 2 --lambdas 0.1,0.10000000000000002"):
        None,
    }

    @pytest.mark.parametrize("config, args", list(ASCENTS),
                             ids=[" ".join(key).strip() for key in ASCENTS])
    def test_diverged_ascent_exit_one(self, tmp_path, capsys, config, args):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("command=sweep\ntvd_restarts=1\ntvd_steps=10\n"
                           + "".join(f"{line}\n" for line in config.split()))
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), *args.split(),
                   "--out", str(out)])
        err = capsys.readouterr().err
        if self.ASCENTS[config, args] is None:
            assert rc == EXIT_OK and err == "" and (out / "sweep.csv").exists()
        else:
            lam, final = self.ASCENTS[config, args]
            assert rc == EXIT_CONFIG
            assert f"seed 1: the ascent at lambda {lam} diverged" in err
            assert f"ended at {final}," in err
            assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("lam", ["745", "750", "800", "1e6", "1e300"])
    def test_uncomputable_value_exit_one(self, tmp_path, capsys, lam):
        # from lambda 745 the ascent does not fall, but the tilt p_lambda
        # underflows to 0 on the invalid sequences, and the policy, of full
        # support, has mass there
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("command=sweep\nsteps=3\ntvd_restarts=1\n"
                           f"tvd_steps=3\nlambdas={lam}\n")
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: seed 1, lambda {float(lam)!r}: ")
        assert "p_lambda underflows to 0" in err and "support mismatch" not in err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("lam", ["720", "740"])
    def test_subnormal_tilt_mass_exit_zero(self, tmp_path, capsys, lam):
        # p_lam's invalid mass is subnormal here, not zero: the ratio
        # pi / p_lam would overflow, but KL(pi, p_lam) is finite
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("command=sweep\nsteps=50\ntvd_restarts=1\ntvd_steps=10\n")
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), "--seeds", "1",
                   "--lambdas", lam, "--out", str(out)])
        assert rc == EXIT_OK and capsys.readouterr().err == ""
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 1

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["check", "--out", str(blocker / "out")])
        capsys.readouterr()
        assert rc == EXIT_IO


# Any double, or one from the range a key accepts, so that the fuzz reaches
# both the exit-1 checks and the computations behind them.
ANY_FLOAT = st.floats()


def _float_list(elements):
    """Comma-joined floats, sorted ascending or in drawn order."""
    return st.tuples(st.lists(elements, min_size=1, max_size=4),
                     st.booleans()).map(
        lambda t: ",".join(format(v, ".17g") for v in (sorted(t[0]) if t[1] else t[0])))


def _run_fuzzed(tmp_path, capsys, command, values):
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    cfgfile = run_dir / "cfg"
    cfgfile.write_text(f"command={command}\n"
                       + "".join(f"{k}={v}\n" for k, v in values.items()))
    rc = main([command, "--config", str(cfgfile), "--out", str(run_dir / "out")])
    capsys.readouterr()
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_CHECK)
    return rc


class TestCliFuzz:
    """cli.main ends every fuzzed run with an exit code and never raises."""

    @FUZZ
    @given(plots=st.one_of(st.sampled_from(["true", "false"]),
                           st.text("truefals01 ", max_size=6)),
           removed=st.lists(st.sampled_from(
               ["a1_values", "mu_targets", "profile_a1", "lambdas"]),
               max_size=2, unique=True))
    def test_geometry(self, tmp_path, capsys, plots, removed):
        # only a true/false plots value runs; a removed table key exits 1
        values = {"plots": plots, **{key: "0.5" for key in removed}}
        rc = _run_fuzzed(tmp_path, capsys, "geometry", values)
        assert (rc == EXIT_OK) == (plots.strip() in ("true", "false") and not removed)

    @FUZZ
    @given(learning_rate=st.one_of(st.floats(0.0, 12.0), ANY_FLOAT),
           lambdas=_float_list(st.one_of(
               st.floats(min_value=0.0, exclude_min=True), st.floats(max_value=0.0),
               st.sampled_from([math.nan, math.inf]))))
    def test_sweep(self, tmp_path, capsys, learning_rate, lambdas):
        _run_fuzzed(tmp_path, capsys, "sweep", {
            "steps": 3, "tvd_restarts": 1, "tvd_steps": 3,
            "learning_rate": format(learning_rate, ".17g"), "lambdas": lambdas})


# Every value the output formats have a token for: any finite double and
# inf.  (nan and -inf raise; see TestFloatFormat and TestCsv.)
TOKEN_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.just(math.inf))


def _assert_same_double(got, x):
    want = float(x)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestTokenRoundTrip:
    """Each written token reads back as the double it was written from."""

    @FUZZ
    @given(x=TOKEN_VALUES)
    def test_fmt_float(self, x):
        _assert_same_double(float(fmt_float(x)), x)

    @FUZZ
    @given(x=TOKEN_VALUES)
    def test_csv(self, tmp_path, x):
        path = tmp_path / "t.csv"
        write_csv(path, ("x",), [[fmt_float(x)]])
        _, rows = read_csv(path)
        _assert_same_double(float(rows[0][0]), x)

    @FUZZ
    @given(x=TOKEN_VALUES)
    def test_json(self, tmp_path, x):
        path = tmp_path / "t.json"
        write_json(path, {"x": x})
        with open(path, encoding="utf-8") as fh:
            back = json.load(fh)["x"]
        _assert_same_double(float(back), x)
