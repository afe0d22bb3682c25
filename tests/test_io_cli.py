"""Config parsing, serialization formats, SVG emission, CLI exit codes."""
import json
import math
import os

import numpy as np
import pytest

from klgeo import checks
from klgeo.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from klgeo.dist import ExtendedReal
from klgeo.io import (
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
            again = parse_config(cfg.serialize())
            assert again.command == command
            assert again.values == cfg.values

    def test_values_and_ranges(self):
        cfg = parse_config(
            "# comment\n"
            "command=sweep\n"
            "seeds=1..4,9\n"
            "lambdas=0.5,2,10\n"
            "warm_start=true\n"
            "steps=123\n")
        assert cfg["seeds"] == [1, 2, 3, 4, 9]
        assert cfg["lambdas"] == [0.5, 2.0, 10.0]
        assert cfg["warm_start"] is True
        assert cfg["steps"] == 123
        # untouched keys fall back to defaults
        assert cfg["order"] == "bigram"

    def test_missing_command(self):
        with pytest.raises(ConfigError):
            parse_config("seeds=1\n")

    def test_unknown_key_position(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("command=sweep\nbogus=1\n")
        assert exc.value.line == 2

    def test_bad_value_position(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("command=sweep\n\nsteps=soon\n")
        assert exc.value.line == 3
        assert exc.value.column == 7

    def test_not_key_value(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("command=check\njust a line\n")
        assert exc.value.line == 2

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            parse_config("command=frobnicate\n")

    def test_removed_forward_kl_fit_keys(self):
        # the forward-KL reference is closed form; its old step knobs are gone
        for key in ("fkl_steps=15000", "fkl_learning_rate=0.05"):
            with pytest.raises(ConfigError):
                parse_config(f"command=sweep\n{key}\n")


class TestFloatFormat:
    def test_exact_roundtrip(self):
        for x in (math.pi, 1.0 / 3.0, 1e-300, 123456.789, -0.1):
            assert parse_float_token(fmt_float(x)) == x

    def test_inf_token(self):
        assert fmt_float(ExtendedReal.INFINITY) == "inf"
        assert fmt_float(float("inf")) == "inf"
        assert parse_float_token("inf") == float("inf")

    def test_finite_extended_real(self):
        assert parse_float_token(fmt_float(ExtendedReal.of(0.25))) == 0.25


class TestCsv:
    def test_roundtrip_with_provenance(self, tmp_path):
        path = tmp_path / "t.csv"
        header = ("a", "b")
        rows = [[fmt_float(math.pi), "inf"], [fmt_float(0.1), fmt_float(2.0)]]
        write_csv(path, header, rows, seed=7)
        text = path.read_text()
        assert text.startswith("# library_version=")
        assert "# seed=7" in text
        assert "\r" not in text
        h, back = read_csv(path)
        assert tuple(h) == header
        assert back == rows
        assert parse_float_token(back[0][0]) == math.pi

    def test_json_inf_as_string(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"x": float("inf"), "y": ExtendedReal.INFINITY,
                          "z": [1.5, ExtendedReal.of(2.0)]})
        payload = json.loads(path.read_text())
        assert payload["x"] == "inf"
        assert payload["y"] == "inf"
        assert payload["z"] == [1.5, 2.0]
        assert "provenance" in payload


class TestSvg:
    def test_deterministic_bytes(self, tmp_path):
        series = [("s", [1.0, 2.0, 3.0], [0.5, 0.2, 0.9])]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(series, p1, title="t")
        emit_svg(series, p2, title="t")
        assert p1.read_bytes() == p2.read_bytes()
        assert b"<polyline" in p1.read_bytes()

    def test_infinite_points_omitted_with_note(self, tmp_path):
        series = [("s", [1.0, 2.0, 3.0],
                   [0.5, ExtendedReal.INFINITY, 0.9])]
        path = tmp_path / "inf.svg"
        emit_svg(series, path)
        text = path.read_text()
        assert "&#8734; (omitted)" in text
        # the polyline has only the two finite points
        line = [l for l in text.splitlines() if "polyline" in l][0]
        assert line.count(",") == 2

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
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("command=check\n")
        rc = main(["sweep", "--config", str(cfgfile),
                   "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert rc == EXIT_CONFIG

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

    def test_unsorted_lambdas_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", "--lambdas", "5,1", "--out", str(out)])
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

    def test_unknown_order_flag_exit_one(self, tmp_path, capsys):
        rc = main(["sweep", "--order", "trigram", "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "bigram/full" in capsys.readouterr().err

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["check", "--out", str(blocker / "out")])
        capsys.readouterr()
        assert rc == EXIT_IO
