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
    ConfigError,
    RunConfig,
    _parse_float_list,
    _parse_int_list,
    _parse_order,
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


def _build_parser():
    parser = argparse.ArgumentParser(prog="klgeo")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sweep", "geometry", "check", "gradcheck"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seeds", default=None, help="e.g. 1,2,3 or 1..8")
        p.add_argument("--lambdas", default=None, help="comma-separated grid")
        p.add_argument("--order", default=None, help="bigram or full")
        p.add_argument("--plots", action="store_true", default=None)
        p.add_argument("--warm-start", action="store_true", default=None,
                       dest="warm_start")
        p.add_argument("--tolerance", type=float, default=None)
    return parser


def _load_config(args) -> RunConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
        cfg = parse_config(text)
        if cfg.command != args.command:
            raise ConfigError(f"config is for command {cfg.command!r}", 1)
    else:
        cfg = RunConfig(command=args.command)
    # command-line flags override config values where the key exists; the
    # boolean flags are None unless given
    for key, parse in (("seeds", _parse_int_list), ("lambdas", _parse_float_list),
                       ("order", _parse_order), ("plots", bool),
                       ("warm_start", bool), ("tolerance", float)):
        value = getattr(args, key)
        if value is not None and key in SCHEMAS[args.command]:
            cfg.values[key] = parse(value)
    return cfg


def _prepare_out(path: str):
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise IOError(f"output directory not writable: {exc}")


def _echo_config(cfg: RunConfig, out: str):
    with open(os.path.join(out, "config.echo"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(cfg.serialize())


SWEEP_COLUMNS = ("seed", "lambda", "beta", "validity", "tvd_to_pstar",
                 "fkl_from_pstar", "rkl_to_tilted", "entropy", "j_beta_value",
                 "top_sequences")
REFS_COLUMNS = ("seed", "A1_base", "fkl_ref_validity", "fkl_ref_kl",
                "tvd_ref_tvd", "pstar_entropy")
GEOMETRY_LAMBDAS = (-10.0, -5.0, -2.0, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0,
                    20.0, 40.0)


def _sweep_settings(cfg: RunConfig) -> tuple:
    """The checked grid and the ascent and TVD-fit configs of a sweep."""
    lambdas = experiments.check_lambdas(
        cfg["lambdas"] or experiments.DEFAULT_LAMBDA_GRID)
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
    lambdas = [float(l) for l in cfg["lambdas"] or GEOMETRY_LAMBDAS]
    if not all(map(math.isfinite, lambdas)) or lambdas != sorted(lambdas):
        raise ValueError("lambdas must be finite and sorted ascending")
    return lambdas


def _gradcheck_settings(cfg: RunConfig) -> None:
    if cfg["seed"] < 0:
        raise ValueError("seed must be non-negative")
    if not 0 < cfg["h"] < math.inf:
        raise ValueError("h must be finite and positive")


# Each command's value checks, run before any output is written.
SETTINGS = {"sweep": _sweep_settings, "geometry": _geometry_settings,
            "check": lambda cfg: None, "gradcheck": _gradcheck_settings}


def cmd_sweep(cfg: RunConfig, out: str) -> int:
    seeds = cfg["seeds"]
    lambdas, opt_cfg, tvd_cfg = _sweep_settings(cfg)
    summaries = [
        experiments.run_sweep(seed, cfg["order"], lambdas, opt_cfg, tvd_cfg,
                              cfg["sigma"], warm_start=cfg["warm_start"])
        for seed in seeds
    ]

    # aborted ascents have no record to write
    records = [(s, [r for r in s.records if isinstance(r, experiments.SweepRecord)])
               for s in summaries]
    rows = []
    for s, recs in records:
        for rec in recs:
            top = ";".join("".join(map(str, seq)) + "=" + fmt_float(p)
                           for seq, p in rec.top_sequences[:cfg["top_k"]])
            rows.append([str(s.seed)] + [fmt_float(v) for v in (
                rec.lam, rec.beta, rec.validity, rec.tvd_to_pstar,
                rec.fkl_from_pstar, rec.rkl_to_tilted, rec.entropy,
                rec.j_beta_value)] + [top])
    write_csv(os.path.join(out, "sweep.csv"), SWEEP_COLUMNS, rows)

    ref_rows = [[str(s.seed)] + [fmt_float(v) for v in (
        s.A1_base, s.fkl_ref_validity, s.fkl_ref_kl, s.tvd_ref_tvd,
        s.pstar_entropy)] for s in summaries]
    write_csv(os.path.join(out, "refs.csv"), REFS_COLUMNS, ref_rows)

    summary = {"seeds": list(seeds), "lambdas": lambdas,
               "order": cfg["order"]}
    if len(summaries) >= 2:
        summary["per_lambda"], summary["references"] = experiments.aggregate(
            summaries, len(lambdas))
    write_json(os.path.join(out, "summary.json"), summary)

    if cfg["plots"]:
        for metric in ("validity", "tvd_to_pstar", "fkl_from_pstar", "entropy"):
            series = [(f"seed {s.seed}", [r.lam for r in recs],
                       [getattr(r, metric) for r in recs]) for s, recs in records]
            emit_svg(series, os.path.join(out, f"{metric}.svg"),
                     title=metric, xlabel="lambda", ylabel=metric, log_x=True)
    return EXIT_OK


def cmd_geometry(cfg: RunConfig, out: str) -> int:
    lambdas = _geometry_settings(cfg)

    fam = experiments.three_outcome_family(cfg["profile_a1"])
    rows = []
    for lam in lambdas:
        mu = geometry.moment(fam, lam)
        kappa = lam * mu - geometry.log_partition(fam, lam)
        prof = geometry.convergence_profile(fam, [lam])[0]
        rows.append([fmt_float(v) for v in (
            lam, mu, kappa, prof.tvd_to_pstar, prof.fkl_from_pstar)])
    write_csv(os.path.join(out, "geometry.csv"),
              ("lambda", "mu", "kappa", "tvd_pstar", "fkl_pstar"), rows)

    bm_rows = [[fmt_float(row.A1), fmt_float(row.mu_target),
                fmt_float(row.lambda_required), row.beta_required.token(),
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


def cmd_check(cfg: RunConfig, out: str) -> int:
    tolerance = cfg["tolerance"] or None
    results = checks.run_all(tolerance)
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


def cmd_gradcheck(cfg: RunConfig, out: str) -> int:
    failed = False
    for name in ("j_beta", "forward_kl"):
        err = checks.gradient_error(name, cfg["seed"], cfg["order"],
                                    cfg["seed"] + 1000, h=cfg["h"])
        ok = err <= cfg["tolerance"]
        print(f"{name:<12} max relative error {err:.3e}  "
              f"{'PASS' if ok else 'FAIL'}")
        failed = failed or not ok
    return EXIT_CHECK if failed else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if "KLGEO_SEED" in os.environ and args.seeds is None:
        args.seeds = os.environ["KLGEO_SEED"]
    try:
        cfg = _load_config(args)
        SETTINGS[args.command](cfg)  # bad values end here, before any output
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _prepare_out(args.out)
    except IOError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    try:
        _echo_config(cfg, args.out)
        handler = {"sweep": cmd_sweep, "geometry": cmd_geometry,
                   "check": cmd_check, "gradcheck": cmd_gradcheck}[args.command]
        return handler(cfg, args.out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
