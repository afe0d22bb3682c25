"""Config parsing, serialization formats, SVG emission, CLI exit codes."""
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import FUZZ
from hypothesis import given
from hypothesis import strategies as st

from klgeo import checks
from klgeo.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from klgeo.io import (
    SCHEMAS,
    ConfigError,
    RunConfig,
    fmt_float,
    parse_config,
    parse_float_token,
    read_csv,
    write_csv,
    write_json,
)
from klgeo.svg import emit_svg


class TestConfigParsing:
    def test_roundtrip_each_command(self):
        for command in ("sweep", "geometry", "check", "gradcheck"):
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
        assert "\nlambdas=-10,-5,-2,0,0.5,1,2,3,5,10,20,40\n" in \
            RunConfig(command="geometry").serialize()

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


class TestFloatFormat:
    def test_exact_roundtrip(self):
        for x in (math.pi, 1.0 / 3.0, 1e-300, 123456.789, -0.1):
            assert parse_float_token(fmt_float(x)) == x

    def test_inf_token(self):
        assert fmt_float(float("inf")) == "inf"
        assert parse_float_token("inf") == float("inf")

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
        assert parse_float_token(back[0][0]) == math.pi

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
        emit_svg(series, p1, title="t")
        emit_svg(series, p2, title="t")
        assert p1.read_bytes() == p2.read_bytes()
        assert b"<polyline" in p1.read_bytes()

    @pytest.mark.parametrize("y", [float("inf"), float("nan")])
    def test_non_finite_point_rejected_before_writing(self, tmp_path, y):
        path = tmp_path / "inf.svg"
        with pytest.raises(ValueError, match="non-finite y value"):
            emit_svg([("s", [1.0, 2.0, 3.0], [0.5, y, 0.9])], path)
        assert not path.exists()

    def test_errors(self, tmp_path):
        path = tmp_path / "x.svg"
        with pytest.raises(ValueError):
            emit_svg([], path)
        with pytest.raises(ValueError):
            emit_svg([("s", [1.0, 2.0], [0.5])], path)
        with pytest.raises(ValueError):
            emit_svg([("s", [2.0, 1.0], [0.5, 0.5])], path)
        with pytest.raises(ValueError):
            emit_svg([("s", [0.0, 1.0], [0.5, 0.5])], path, log_x=True)


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
        assert parse_float_token(rows[1][1]) == 5.0
        _, ref_rows = read_csv(out / "refs.csv")
        assert len(ref_rows) == 1
        assert (out / "summary.json").exists()
        assert (out / "config.echo").read_text().startswith("command=sweep")

    def test_flag_overrides_config(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        write_tiny_sweep_config(cfgfile)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out),
                   "--lambdas", "2"])
        assert rc == EXIT_OK
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 1
        assert parse_float_token(rows[0][1]) == 2.0

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            "command=sweep\nlambdas=1\nsteps=20\n"
            "tvd_restarts=1\ntvd_steps=20\n")
        out = tmp_path / "out"
        monkeypatch.setenv("KLGEO_SEED", "3")
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = read_csv(out / "sweep.csv")
        assert all(r[0] == "3" for r in rows)

    def test_env_seed_ignored_by_other_commands(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KLGEO_SEED", "3")
        assert main(["geometry", "--out", str(tmp_path / "out")]) == EXIT_OK

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
        row0 = [r for r in rows if parse_float_token(r[0]) == 0.0][0]
        assert parse_float_token(row0[1]) == pytest.approx(0.5, abs=1e-12)
        assert parse_float_token(row0[3]) == pytest.approx(0.5, abs=1e-12)
        assert parse_float_token(row0[4]) == pytest.approx(math.log(2), abs=1e-12)

        bm_header, bm_rows = read_csv(out / "betamu.csv")
        assert bm_header == ["A1", "mu_target", "lambda", "beta", "kappa"]
        # the A1=0.9, mu=0.9 row needs no tilt: beta is the "inf" token
        row = [r for r in bm_rows if parse_float_token(r[0]) == 0.9][0]
        assert row[3] == "inf"
        assert parse_float_token(row[2]) == pytest.approx(0.0, abs=1e-12)

        ord_header, ord_rows = read_csv(out / "ordering.csv")
        assert ord_header[0] == "lambda"
        crossing = parse_float_token(ord_rows[0][5])
        assert crossing > 0
        assert all(parse_float_token(r[5]) == crossing for r in ord_rows)

    def test_plots(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["geometry", "--out", str(out), "--plots"])
        assert rc == EXIT_OK
        assert (out / "ordering.svg").exists()

    def test_lambdas_past_long_double_overflow(self, tmp_path):
        out = tmp_path / "out"
        with np.errstate(over="raise", invalid="raise"):
            rc = main(["geometry", "--lambdas=-20000,20000", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = read_csv(out / "geometry.csv")
        assert [r[1] for r in rows] == ["0", "1"]
        assert parse_float_token(rows[0][2]) == pytest.approx(math.log(2), rel=1e-12)
        assert parse_float_token(rows[1][2]) == pytest.approx(math.log(2), rel=1e-10)

    def test_extreme_lambdas(self, tmp_path):
        # e^{+-1000} overflows a double; the profile takes its limits there
        out = tmp_path / "out"
        rc = main(["geometry", "--lambdas=-1000,1,1000", "--out", str(out),
                   "--plots"])
        assert rc == EXIT_OK
        _, rows = read_csv(out / "geometry.csv")
        lo, hi = rows[0], rows[2]
        assert parse_float_token(lo[3]) == 1.0
        assert parse_float_token(lo[4]) == pytest.approx(1000.0, rel=1e-15)
        assert parse_float_token(hi[3]) == 0.0
        assert parse_float_token(hi[4]) == 0.0
        _, ord_rows = read_csv(out / "ordering.csv")
        assert [parse_float_token(r[0]) for r in ord_rows] == [1.0, 1000.0]
        assert all(math.isfinite(parse_float_token(c)) for r in ord_rows for c in r)


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

    def test_unreachable_tolerance(self, tmp_path, capsys):
        rc = main(["check", "--out", str(tmp_path / "out"),
                   "--tolerance", "1e-14"])
        capsys.readouterr()
        assert rc == EXIT_CHECK


class TestCliGradcheck:
    def test_passes(self, tmp_path, capsys):
        rc = main(["gradcheck", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "j_beta" in captured and "forward_kl" in captured


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

    @pytest.mark.parametrize("command", ["sweep", "gradcheck"])
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

    @pytest.mark.parametrize("via_env", [False, True])
    def test_duplicate_seeds_exit_one(self, tmp_path, capsys, monkeypatch, via_env):
        # a repeated seed would count twice in every mean across seeds; a
        # tiny budget, so that a run which took the seeds ends quickly
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("command=sweep\nsteps=3\ntvd_restarts=1\ntvd_steps=3\n")
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfgfile), "--out", str(out)]
        if via_env:
            monkeypatch.setenv("KLGEO_SEED", "2,1..3")
            rc = main(argv)
        else:
            rc = main(argv + ["--seeds", "1,1"])
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
        ("sweep", "sigma=0", "sigma"),
        ("sweep", "sigma=-0.5", "sigma"),
        ("sweep", "sigma=nan", "sigma"),
        ("sweep", "sigma=1000", "sigma"),
        ("sweep", "top_k=0", "top_k"),
        ("sweep", "top_k=6", "top_k"),
        ("sweep", "seeds=-1", "seeds"),
        ("sweep", "seeds=1,1", "seeds must be distinct"),
        ("sweep", "seeds=1..3,2", "seeds must be distinct"),
        ("sweep", "learning_rate=nan", "learning_rate"),
        ("sweep", "learning_rate=inf", "learning_rate"),
        ("sweep", "lambdas=1,1,2", "distinct and sorted ascending"),
        ("geometry", "mu_targets=0.9,1", "mu targets"),
        ("geometry", "a1_values=0", "A1"),
        ("geometry", "profile_a1=1.5", "A1"),
        ("geometry", "profile_a1=5e-324", "full support"),
        ("geometry", "lambdas=nan", "lambdas"),
        ("geometry", "lambdas=5,1", "sorted ascending"),
        ("geometry", "lambdas=1,1", "distinct and sorted ascending"),
        ("geometry", "a1_values=0.5,0.5", "a1_values must be distinct"),
        ("geometry", "mu_targets=0.9,0.9", "mu_targets must be distinct"),
        ("gradcheck", "h=0", "h must be"),
        ("gradcheck", "h=-1e-5", "h must be"),
        ("gradcheck", "seed=-1", "seed"),
        ("check", "tolerance=-1", "tolerance"),
        ("check", "tolerance=nan", "tolerance"),
        ("check", "tolerance=inf", "tolerance"),
        ("gradcheck", "tolerance=-1", "tolerance"),
        ("gradcheck", "tolerance=nan", "tolerance"),
        ("gradcheck", "tolerance=inf", "tolerance"),
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

    def test_unknown_order_flag_exit_one(self, tmp_path, capsys):
        rc = main(["sweep", "--order", "trigram", "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "bigram/full" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("sweep", ["--tolerance", "5"]),
        ("geometry", ["--seeds", "3", "--warm-start", "--tolerance", "5"]),
        ("check", ["--plots"]),
        ("gradcheck", ["--seeds", "3", "--lambdas", "1,2"]),
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
        assert main(["frobnicate", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "invalid choice" in capsys.readouterr().err
        assert main(["check", "--tolerance", "tight",
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "tight" in capsys.readouterr().err

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--help"])
        assert exc.value.code == 0
        assert "--tolerance" in capsys.readouterr().out

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

    # arguments -> exit code: the fixed step 0.1 makes the ascent fall from
    # J_beta -2.381 to -54.1 at lambda 0.01; at 0.05 the optimum it reaches
    # has J_beta < 0; the second ascent, at the double after 0.5, starts at
    # its optimum to round-off and ends 1.7e-16 below it, within round-off
    ASCENTS = {"--seeds 1 --lambdas 0.01": EXIT_CONFIG,
               "--seeds 1 --lambdas 0.05": EXIT_OK,
               "--order full --warm-start --seeds 2 --lambdas 0.5,0.5000000000000001":
               EXIT_OK}

    @pytest.mark.parametrize("args", list(ASCENTS))
    def test_diverged_ascent_exit_one(self, tmp_path, capsys, args):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("command=sweep\ntvd_restarts=1\ntvd_steps=10\n")
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), *args.split(),
                   "--out", str(out)])
        assert rc == self.ASCENTS[args]
        err = capsys.readouterr().err
        if rc == EXIT_CONFIG:
            assert "seed 1: the ascent at lambda 0.01 diverged" in err
            assert "-54.1000894743390" in err
            assert not (out / "sweep.csv").exists()
        else:
            assert err == "" and (out / "sweep.csv").exists()

    # config line -> the grid point whose metrics have no finite value
    UNCOMPUTABLE = {"learning_rate=1e10": 0.5, "lambdas=1e-20": 1e-20,
                    "lambdas=750": 750.0}

    @pytest.mark.parametrize("line", list(UNCOMPUTABLE))
    def test_uncomputable_value_exit_one(self, tmp_path, capsys, line):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"command=sweep\nsteps=3\ntvd_restarts=1\n"
                           f"tvd_steps=3\n{line}\n")
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfgfile), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert (f"config error: seed 1, lambda {self.UNCOMPUTABLE[line]!r}: "
                "KL divergence is infinite") in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["check", "--out", str(blocker / "out")])
        capsys.readouterr()
        assert rc == EXIT_IO


# Any double, or one from the range a key accepts, so that the fuzz reaches
# both the exit-1 checks and the computations behind them.
ANY_FLOAT = st.floats()
UNIT_OR_ANY = st.one_of(st.floats(0.0, 1.0), ANY_FLOAT)


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


class TestCliFuzz:
    """cli.main ends every fuzzed run with an exit code and never raises."""

    @FUZZ
    @given(a1_values=_float_list(UNIT_OR_ANY),
           mu_targets=_float_list(UNIT_OR_ANY),
           profile_a1=UNIT_OR_ANY.map(lambda v: format(v, ".17g")),
           lambdas=st.one_of(st.none(), _float_list(
               st.one_of(st.floats(-50.0, 50.0), ANY_FLOAT))),
           plots=st.sampled_from(["true", "false"]))
    def test_geometry(self, tmp_path, capsys, a1_values, mu_targets,
                      profile_a1, lambdas, plots):
        values = {"a1_values": a1_values, "mu_targets": mu_targets,
                  "profile_a1": profile_a1, "plots": plots}
        if lambdas is not None:
            values["lambdas"] = lambdas
        _run_fuzzed(tmp_path, capsys, "geometry", values)

    @FUZZ
    @given(seed=st.integers(-5, 2 ** 64),
           order=st.sampled_from(["bigram", "full"]),
           h=st.one_of(st.floats(1e-8, 1e-2), ANY_FLOAT),
           tolerance=ANY_FLOAT)
    def test_gradcheck(self, tmp_path, capsys, seed, order, h, tolerance):
        _run_fuzzed(tmp_path, capsys, "gradcheck", {
            "seed": seed, "order": order, "h": format(h, ".17g"),
            "tolerance": format(tolerance, ".17g")})

    @FUZZ
    @given(sigma=st.one_of(st.floats(0.0, 12.0), ANY_FLOAT),
           top_k=st.integers(-2, 8),
           lambdas=_float_list(st.one_of(
               st.floats(min_value=0.0, exclude_min=True), st.floats(max_value=0.0),
               st.sampled_from([math.nan, math.inf]))))
    def test_sweep(self, tmp_path, capsys, sigma, top_k, lambdas):
        _run_fuzzed(tmp_path, capsys, "sweep", {
            "steps": 3, "tvd_restarts": 1, "tvd_steps": 3,
            "sigma": format(sigma, ".17g"), "top_k": top_k, "lambdas": lambdas})


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
        _assert_same_double(parse_float_token(fmt_float(x)), x)

    @FUZZ
    @given(x=TOKEN_VALUES)
    def test_csv(self, tmp_path, x):
        path = tmp_path / "t.csv"
        write_csv(path, ("x",), [[fmt_float(x)]])
        _, rows = read_csv(path)
        _assert_same_double(parse_float_token(rows[0][0]), x)

    @FUZZ
    @given(x=TOKEN_VALUES)
    def test_json(self, tmp_path, x):
        path = tmp_path / "t.json"
        write_json(path, {"x": x})
        with open(path, encoding="utf-8") as fh:
            back = json.load(fh)["x"]
        _assert_same_double(parse_float_token(back) if back == "inf" else back, x)
