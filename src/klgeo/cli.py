"""Command-line entry point.

Subcommands: sweep | geometry | check.  `check` takes no config key: it
runs every check of `checks.REGISTRY` on its fixed instances.
Exit codes: 0 ok, 1 config error, 2 I/O error, 3 check failure.
"""
from __future__ import annotations

import argparse
import ctypes
import os
import sys

from . import experiments, geometry, optimize
from .io import (
    SCHEMAS,
    RunConfig,
    fmt_float,
    parse_config,
    write_csv,
    write_json,
)
from .svg import emit_svg


def _release_blas_threads() -> None:
    """Stop the idle worker threads of a loaded OpenBLAS.

    OpenBLAS starts its thread pool when numpy loads it, and each worker
    spins in sched_yield for about 0.1 s before it sleeps.  On a 2-CPU host
    that added 0.08 s of CPU time, on no work, to a sweep of 0.26 s.
    The program's BLAS calls are dot products of at most 39 numbers, which
    OpenBLAS runs on the calling thread; a later call that wants the pool
    starts it again.  Does nothing without /proc/self/maps or an OpenBLAS
    that exports blas_thread_shutdown_.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh
                     if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return
    for path in sorted(paths):
        try:
            shutdown = getattr(ctypes.CDLL(path), "blas_thread_shutdown_", None)
        except OSError:
            continue
        if shutdown is not None:
            shutdown()


_release_blas_threads()

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
             "order": "bigram or full", "plots": None, "warm_start": None}
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
    opt_cfg = optimize.OptimizerConfig(learning_rate=cfg["learning_rate"],
                                       steps=cfg["steps"])
    tvd_cfg = optimize.OptimizerConfig(steps=cfg["tvd_steps"],
                                       restarts=cfg["tvd_restarts"])
    return lambdas, opt_cfg, tvd_cfg


def cmd_sweep(cfg: RunConfig, out: str, settings: tuple) -> int:
    lambdas, opt_cfg, tvd_cfg = settings
    result = experiments.multi_seed(cfg["seeds"], cfg["order"], lambdas, opt_cfg,
                                    tvd_cfg, cfg["warm_start"])

    rows = []
    for s in result.summaries:
        for rec in s.records:
            top = ";".join("".join(map(str, seq)) + "=" + fmt_float(p)
                           for seq, p in rec.top_sequences)
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
                     title=metric, xlabel="lambda", ylabel=metric)
    return EXIT_OK


def cmd_geometry(cfg: RunConfig, out: str, settings: None) -> int:
    lambdas = experiments.GEOMETRY_LAMBDAS
    fam = experiments.three_outcome_family(experiments.PROFILE_A1)
    points = [geometry.GeometryPoint.at_lambda(fam, lam) for lam in lambdas]
    rows = [[fmt_float(v) for v in (pt.lam, pt.mu, pt.kappa, prof.tvd_to_pstar,
                                    prof.fkl_from_pstar)]
            for pt, prof in zip(points, geometry.convergence_profile(fam, lambdas))]
    write_csv(os.path.join(out, "geometry.csv"),
              ("lambda", "mu", "kappa", "tvd_pstar", "fkl_pstar"), rows)

    bm_rows = [[fmt_float(row.A1), fmt_float(row.mu_target),
                fmt_float(row.lambda_required), fmt_float(row.beta_required),
                fmt_float(row.kappa_cost)]
               for row in experiments.beta_mu_table(experiments.TABLE_A1,
                                                   experiments.TABLE_MU)]
    write_csv(os.path.join(out, "betamu.csv"),
              ("A1", "mu_target", "lambda", "beta", "kappa"), bm_rows)

    ordering = experiments.ordering_illustration([l for l in lambdas if l > 0])
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
                 ylabel="KL")
    return EXIT_OK


def cmd_check(cfg: RunConfig, out: str, settings: None) -> int:
    from . import checks  # here, so that no other command loads the registry
    results = checks.run_all()
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


# command -> (value checks, run before any output and returning the
# handler's settings; handler)
COMMANDS = {"sweep": (_sweep_settings, cmd_sweep),
            "geometry": (lambda cfg: None, cmd_geometry),
            "check": (lambda cfg: None, cmd_check)}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
