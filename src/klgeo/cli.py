"""Command-line entry point.

Subcommands: sweep | geometry | check | gradcheck.
Exit codes: 0 ok, 1 config error, 2 I/O error, 3 check failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import checks, experiments, geometry, optimize
from .io import (
    SCHEMAS,
    RunConfig,
    fmt_float,
    parse_config,
    write_csv,
    write_json,
)
from .svg import emit_svg

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_CHECK = 3


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are config errors (argparse's own exit code is 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


# Flags that override a config key of the same name (--warm-start sets
# warm_start); a command takes only the flags whose key is in its schema.
FLAG_HELP = {"seeds": "e.g. 1,2,3 or 1..8", "lambdas": "comma-separated grid",
             "order": "bigram or full", "plots": None, "warm_start": None,
             "tolerance": None}
SWITCHES = ("plots", "warm_start")


def _build_parser():
    parser = _ArgumentParser(prog="klgeo")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default="out", help="output directory")
        for key in (k for k in FLAG_HELP if k in SCHEMAS[name]):
            flag = "--" + key.replace("_", "-")
            if key in SWITCHES:  # the value goes through the schema's bool parser
                p.add_argument(flag, action="store_const", const="true",
                               help=FLAG_HELP[key])
            else:
                p.add_argument(flag, help=FLAG_HELP[key])
    return parser


def _load_config(args) -> RunConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
        cfg = parse_config(text, args.command)
    else:
        cfg = RunConfig(command=args.command)
    # a given flag overrides the config value, through the key's own parser
    for key, (parse, _) in SCHEMAS[args.command].items():
        if getattr(args, key, None) is not None:
            cfg.values[key] = parse(getattr(args, key))
    return cfg


def _echo_config(cfg: RunConfig, out: str):
    with open(os.path.join(out, "config.echo"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(cfg.serialize())


SWEEP_COLUMNS = ("seed", "lambda", "beta", *experiments.SWEEP_METRICS,
                 "top_sequences")
REFS_COLUMNS = ("seed", *experiments.REF_METRICS)


def _sweep_settings(cfg: RunConfig) -> tuple:
    """The checked grid and the ascent and TVD-fit configs of a sweep."""
    lambdas = experiments.check_lambdas(cfg["lambdas"])
    if min(cfg["seeds"]) < 0:
        raise ValueError("seeds must be non-negative")
    if not 0 < cfg["sigma"] <= experiments.MAX_SIGMA:
        raise ValueError(f"sigma must be in (0, {experiments.MAX_SIGMA:g}]")
    if not 1 <= cfg["top_k"] <= experiments.TOP_K:
        raise ValueError(f"top_k must be in 1..{experiments.TOP_K}")
    opt_cfg = optimize.OptimizerConfig(learning_rate=cfg["learning_rate"],
                                       steps=cfg["steps"])
    tvd_cfg = optimize.OptimizerConfig(steps=cfg["tvd_steps"],
                                       restarts=cfg["tvd_restarts"])
    return lambdas, opt_cfg, tvd_cfg


def _geometry_settings(cfg: RunConfig) -> list:
    """Checks a geometry run's values; returns its lambda grid."""
    for a1 in (*cfg["a1_values"], cfg["profile_a1"]):
        experiments.three_outcome_family(a1)  # raises unless a usable A1
    if not all(0 < mu < 1 for mu in cfg["mu_targets"]):
        raise ValueError("mu targets must be in (0, 1)")
    for key in ("a1_values", "mu_targets"):
        if len(set(cfg[key])) != len(cfg[key]):
            raise ValueError(f"{key} must be distinct")
    lambdas = cfg["lambdas"]
    if not all(map(math.isfinite, lambdas)) or lambdas != sorted(set(lambdas)):
        raise ValueError("lambdas must be finite, distinct and sorted ascending")
    return lambdas


def _check_settings(cfg: RunConfig) -> None:
    if not 0 <= cfg["tolerance"] < math.inf:
        raise ValueError("tolerance must be finite and non-negative")


def _gradcheck_settings(cfg: RunConfig) -> None:
    _check_settings(cfg)
    if cfg["seed"] < 0:
        raise ValueError("seed must be non-negative")
    if not 0 < cfg["h"] < math.inf:
        raise ValueError("h must be finite and positive")


def cmd_sweep(cfg: RunConfig, out: str, settings: tuple) -> int:
    lambdas, opt_cfg, tvd_cfg = settings
    result = experiments.multi_seed(cfg["seeds"], cfg["order"], lambdas, opt_cfg,
                                    tvd_cfg, cfg["sigma"], cfg["warm_start"])

    rows = []
    for s in result.summaries:
        for rec in s.records:
            top = ";".join("".join(map(str, seq)) + "=" + fmt_float(p)
                           for seq, p in rec.top_sequences[:cfg["top_k"]])
            rows.append([str(s.seed), fmt_float(rec.lam), fmt_float(rec.beta)]
                        + [fmt_float(getattr(rec, m)) for m in experiments.SWEEP_METRICS]
                        + [top])
    write_csv(os.path.join(out, "sweep.csv"), SWEEP_COLUMNS, rows)

    ref_rows = [[str(s.seed)]
                + [fmt_float(getattr(s, m)) for m in experiments.REF_METRICS]
                for s in result.summaries]
    write_csv(os.path.join(out, "refs.csv"), REFS_COLUMNS, ref_rows)

    summary = {"seeds": list(cfg["seeds"]), "lambdas": result.lambdas,
               "order": cfg["order"]}
    if result.per_lambda is not None:
        summary["per_lambda"] = result.per_lambda
        summary["references"] = result.references
    write_json(os.path.join(out, "summary.json"), summary)

    if cfg["plots"]:
        for metric in experiments.PLOT_METRICS:
            series = [(f"seed {s.seed}", [r.lam for r in s.records],
                       [getattr(r, metric) for r in s.records])
                      for s in result.summaries]
            emit_svg(series, os.path.join(out, f"{metric}.svg"),
                     title=metric, xlabel="lambda", ylabel=metric, log_x=True)
    return EXIT_OK


def cmd_geometry(cfg: RunConfig, out: str, lambdas: list) -> int:
    fam = experiments.three_outcome_family(cfg["profile_a1"])
    points = [geometry.GeometryPoint.at_lambda(fam, lam) for lam in lambdas]
    rows = [[fmt_float(v) for v in (pt.lam, pt.mu, pt.kappa, prof.tvd_to_pstar,
                                    prof.fkl_from_pstar)]
            for pt, prof in zip(points, geometry.convergence_profile(fam, lambdas))]
    write_csv(os.path.join(out, "geometry.csv"),
              ("lambda", "mu", "kappa", "tvd_pstar", "fkl_pstar"), rows)

    bm_rows = [[fmt_float(row.A1), fmt_float(row.mu_target),
                fmt_float(row.lambda_required), fmt_float(row.beta_required),
                fmt_float(row.kappa_cost)]
               for row in experiments.beta_mu_table(cfg["a1_values"], cfg["mu_targets"])]
    write_csv(os.path.join(out, "betamu.csv"),
              ("A1", "mu_target", "lambda", "beta", "kappa"), bm_rows)

    sweep_lams = [l for l in (lambdas if max(lambdas) > 0 else [1.0]) if l > 0]
    ordering = experiments.ordering_illustration(sweep_lams)
    ord_rows = [[fmt_float(lam)]
                + [fmt_float(ordering.curves[name][i]) for name in ("pi1", "pi2", "pi3", "pi4")]
                + [fmt_float(ordering.crossing_lambda)]
                for i, lam in enumerate(ordering.lambdas)]
    write_csv(os.path.join(out, "ordering.csv"),
              ("lambda", "kl_pi1", "kl_pi2", "kl_pi3", "kl_pi4",
               "crossing_lambda"), ord_rows)

    if cfg["plots"]:
        emit_svg([(name, ordering.lambdas, ordering.curves[name])
                  for name in ("pi1", "pi2", "pi3", "pi4")],
                 os.path.join(out, "ordering.svg"),
                 title="KL to tilted target", xlabel="lambda",
                 ylabel="KL", log_x=True)
    return EXIT_OK


def cmd_check(cfg: RunConfig, out: str, settings: None) -> int:
    results = checks.run_all(cfg["tolerance"])
    width = max(len(name) for name in results)
    failed = []
    for name, (ok, detail) in results.items():
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        if not ok:
            failed.append(name)
    if failed:
        print("failed checks: " + ", ".join(failed))
        return EXIT_CHECK
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig, out: str, settings: None) -> int:
    failed = False
    for name in ("j_beta", "forward_kl"):
        err = checks.gradient_error(name, cfg["seed"], cfg["order"],
                                    cfg["seed"] + 1000, h=cfg["h"])
        ok = err <= cfg["tolerance"]
        print(f"{name:<12} max relative error {err:.3e}  "
              f"{'PASS' if ok else 'FAIL'}")
        failed = failed or not ok
    return EXIT_CHECK if failed else EXIT_OK


# command -> (value checks, run before any output and returning the
# handler's settings; handler)
COMMANDS = {"sweep": (_sweep_settings, cmd_sweep),
            "geometry": (_geometry_settings, cmd_geometry),
            "check": (_check_settings, cmd_check),
            "gradcheck": (_gradcheck_settings, cmd_gradcheck)}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "sweep" and args.seeds is None:
            args.seeds = os.environ.get("KLGEO_SEED")
        cfg = _load_config(args)
        check, handler = COMMANDS[args.command]
        settings = check(cfg)  # bad values end here, before any output
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(args.out, exist_ok=True)
        _echo_config(cfg, args.out)
        return handler(cfg, args.out, settings)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # an aborted ascent or an uncomputable value
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
