"""Output checks for one `klgeo sweep` invocation.

One op is one output row: a (seed, lambda) row of sweep.csv or a seed row of
refs.csv.  `check_outputs` returns the ops attempted, the set of failed ops
and a message per problem.  A non-zero exit code, a missing or malformed
file, or a FORMATS.md token violation fails every op of the invocation; a
bad cell fails its row; a summary.json mean that disagrees with the rows
fails the rows it aggregates.

Cells are compared with a round-off tolerance (TOL, absolute plus
relative), so that a rewrite that reorders floating-point work passes and
real drift fails.  Fits that are best-effort minima are checked one-sided:
`tvd_ref_tvd` always, and `fkl_ref_kl` where the reference forward-KL fit
did not reach the closed-form optimum (the full-order family at the default
step budget).
"""
from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

TOL = 1e-9
# How far an iterative forward-KL fit may sit above the closed-form optimum.
# At the default budget the bigram fit was within 2e-12 of it for seeds
# 0-59; a fit that stops early or a closed-form rewrite both stay inside.
FKL_FIT_TOL = 1e-8

SWEEP_COLUMNS = ("seed", "lambda", "beta", "validity", "tvd_to_pstar",
                 "fkl_from_pstar", "rkl_to_tilted", "entropy", "j_beta_value",
                 "top_sequences")
REFS_COLUMNS = ("seed", "A1_base", "fkl_ref_validity", "fkl_ref_kl",
                "tvd_ref_tvd", "pstar_entropy")
SWEEP_METRICS = SWEEP_COLUMNS[3:9]
REFS_METRICS = REFS_COLUMNS[1:]
PLOTS = ("validity", "tvd_to_pstar", "fkl_from_pstar", "entropy")
TOP_K = 5
N_SEQUENCES = 27


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def parse_cell(tok: str) -> float:
    """A numeric cell under FORMATS.md: a finite decimal or the token `inf`."""
    if tok == "inf":
        return math.inf
    value = float(tok)
    if not math.isfinite(value):
        raise ValueError(f"non-finite token {tok!r} (only 'inf' is allowed)")
    return value


def _reject_constant(tok):
    raise ValueError(f"bare non-finite JSON token {tok}")


def read_csv(path: str):
    """(header, rows as lists of strings) of a provenance-headed CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = [l.rstrip("\n") for l in fh if not l.startswith("#")]
    if not lines:
        raise ValueError(f"{os.path.basename(path)} has no header row")
    return lines[0].split(","), [l.split(",") for l in lines[1:] if l]


def parse_top(cell: str) -> list:
    pairs = []
    for part in cell.split(";"):
        seq, _, prob = part.partition("=")
        if len(seq) != 3 or any(c not in "012" for c in seq):
            raise ValueError(f"bad sequence {seq!r}")
        pairs.append((seq, parse_cell(prob)))
    return pairs


@dataclass
class Oracle:
    """Seed-level quantities computed independently of the sweep outputs."""

    A1_base: float
    pstar_entropy: float
    fkl_optimum: float  # KL(p*, conditional projection onto the family)


@dataclass
class Expected:
    seeds: list
    lambdas: list
    order: str
    oracles: dict  # seed -> Oracle
    reference: dict | None = None  # from load_reference


@dataclass
class Report:
    ops: int
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def fail(self, ops, message: str):
        self.failed.update(ops)
        self.problems.append(message)


def compute_oracles(seeds, order: str) -> dict:
    """A1, entropy of p* and the forward-KL optimum, straight from the library."""
    from klgeo import dist, ngram
    from klgeo.experiments import DEFAULT_SIGMA

    out = {}
    for seed in seeds:
        space = ngram.SequenceSpace(3, 3)
        base = ngram.to_distribution(ngram.random_base_model(space, seed, DEFAULT_SIGMA))
        verifier = ngram.make_verifier_first_equals_last(space)
        pstar = dist.condition(base, verifier.mask)
        orders = ngram.bigram_orders(space) if order == "bigram" else ngram.full_orders(space)
        proj = ngram.to_distribution(ngram.conditional_projection(pstar, space, orders))
        out[seed] = Oracle(A1_base=dist.expected_reward(base, verifier),
                           pstar_entropy=dist.entropy(pstar),
                           fkl_optimum=dist.kl_divergence_finite(pstar, proj))
    return out


def load_reference(directory: str, oracles: dict) -> dict | None:
    """Reference rows keyed like the outputs, or None if none were stored."""
    sweep_path = os.path.join(directory, "sweep.csv")
    refs_path = os.path.join(directory, "refs.csv")
    if not (os.path.isfile(sweep_path) and os.path.isfile(refs_path)):
        return None
    _, sweep_rows = read_csv(sweep_path)
    _, refs_rows = read_csv(refs_path)
    sweep = {(int(r[0]), parse_cell(r[1])): r for r in sweep_rows}
    refs = {int(r[0]): r for r in refs_rows}
    # a forward-KL fit at its closed-form optimum is compared two-sided
    at_optimum = {seed: close(parse_cell(r[REFS_COLUMNS.index("fkl_ref_kl")]),
                              oracles[seed].fkl_optimum)
                  for seed, r in refs.items() if seed in oracles}
    return {"sweep": sweep, "refs": refs, "fkl_at_optimum": at_optimum}


def check_outputs(out: str, rc: int, exp: Expected) -> Report:
    sweep_ops = [("sweep", s, i) for s in exp.seeds for i in range(len(exp.lambdas))]
    refs_ops = [("refs", s) for s in exp.seeds]
    report = Report(ops=len(sweep_ops) + len(refs_ops))
    every = sweep_ops + refs_ops
    if rc != 0:
        report.fail(every, f"exit code {rc}")
        return report
    try:
        _check_files(out)
        sweep = _read_table(os.path.join(out, "sweep.csv"), SWEEP_COLUMNS)
        refs = _read_table(os.path.join(out, "refs.csv"), REFS_COLUMNS)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        report.fail(every, f"unreadable outputs: {exc}")
        return report

    rows = _index_sweep(sweep, exp, report)
    for (seed, i), cells in rows.items():
        _check_sweep_row(seed, exp.lambdas[i], cells, exp, report)
    ref_rows = _index_refs(refs, exp, report)
    for seed, cells in ref_rows.items():
        _check_refs_row(seed, cells, exp, report)
    _check_summary(summary, rows, ref_rows, exp, report)
    return report


def _check_files(out: str):
    needed = ["config.echo", "sweep.csv", "refs.csv", "summary.json"]
    needed += [f"{m}.svg" for m in PLOTS]
    for name in needed:
        path = os.path.join(out, name)
        if not os.path.isfile(path):
            raise ValueError(f"missing {name}")
        if name.endswith(".svg"):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if "</svg>" not in text or re.search(r"\bnan\b", text, re.IGNORECASE):
                raise ValueError(f"malformed {name}")


def _read_table(path: str, columns: tuple) -> list:
    """Rows as lists of parsed cells; any token violation raises."""
    header, rows = read_csv(path)
    if tuple(header) != columns:
        raise ValueError(f"{os.path.basename(path)} header {header}")
    parsed = []
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"{os.path.basename(path)} row of {len(row)} cells")
        if columns is SWEEP_COLUMNS:
            cells = ([int(row[0])] + [parse_cell(c) for c in row[1:-1]]
                     + [parse_top(row[-1])])
        else:
            cells = [int(row[0])] + [parse_cell(c) for c in row[1:]]
        parsed.append(cells)
    return parsed


def _index_sweep(sweep: list, exp: Expected, report: Report) -> dict:
    rows = {}
    for cells in sweep:
        seed, lam = cells[0], cells[1]
        idx = [i for i, l in enumerate(exp.lambdas) if close(lam, l)]
        key = (seed, idx[0]) if idx and seed in exp.seeds else None
        if key is None or key in rows:
            report.fail([("sweep", seed, i) for i in range(len(exp.lambdas))],
                        f"sweep.csv: unexpected row seed={seed} lambda={lam}")
            continue
        rows[key] = cells
    for seed in exp.seeds:
        for i, lam in enumerate(exp.lambdas):
            if (seed, i) not in rows:
                report.fail([("sweep", seed, i)],
                            f"sweep.csv: missing row seed={seed} lambda={lam}")
    return rows


def _index_refs(refs: list, exp: Expected, report: Report) -> dict:
    rows = {}
    for cells in refs:
        seed = cells[0]
        if seed not in exp.seeds or seed in rows:
            report.fail([("refs", seed)], f"refs.csv: unexpected row seed={seed}")
            continue
        rows[seed] = cells
    for seed in exp.seeds:
        if seed not in rows:
            report.fail([("refs", seed)], f"refs.csv: missing row seed={seed}")
    return rows


def _check_sweep_row(seed: int, lam: float, cells: list, exp: Expected,
                     report: Report):
    i = exp.lambdas.index(lam)
    op = [("sweep", seed, i)]
    v = dict(zip(SWEEP_COLUMNS, cells))
    where = f"sweep.csv seed={seed} lambda={lam}"
    problems = []
    if not close(v["beta"], 1.0 / lam):
        problems.append(f"beta {v['beta']!r} != 1/lambda")
    for name in ("validity", "tvd_to_pstar"):
        if not -TOL <= v[name] <= 1 + TOL:
            problems.append(f"{name} {v[name]!r} outside [0, 1]")
    for name in ("fkl_from_pstar", "rkl_to_tilted"):
        if not v[name] >= -TOL:
            problems.append(f"{name} {v[name]!r} negative")
    if not -TOL <= v["entropy"] <= math.log(N_SEQUENCES) + TOL:
        problems.append(f"entropy {v['entropy']!r} outside [0, log 27]")
    if not v["j_beta_value"] <= v["validity"] + TOL:
        problems.append("j_beta_value exceeds validity")
    top = v["top_sequences"]
    probs = [p for _, p in top]
    if (len(top) != TOP_K or len({s for s, _ in top}) != TOP_K
            or probs != sorted(probs, reverse=True)
            or not all(-TOL <= p <= 1 + TOL for p in probs)):
        problems.append(f"top_sequences malformed: {top}")
    ref = exp.reference and exp.reference["sweep"].get((seed, lam))
    if ref:
        for col in SWEEP_COLUMNS[2:9]:
            want = parse_cell(ref[SWEEP_COLUMNS.index(col)])
            if not close(v[col], want):
                problems.append(f"{col} {v[col]!r} != reference {want!r}")
        problems += _top_mismatch(top, parse_top(ref[-1]))
    if problems:
        report.fail(op, f"{where}: " + "; ".join(problems))


def _top_mismatch(got: list, want: list) -> list:
    """Same top sequences and probabilities; near-ties may swap places."""
    want_map = dict(want)
    floor = want[-1][1]
    out = []
    for (seq, p), (_, q) in zip(got, want):
        if not close(p, q):
            out.append(f"top probability {p!r} != reference {q!r}")
        if seq in want_map:
            if not close(p, want_map[seq]):
                out.append(f"top {seq}={p!r} != reference {want_map[seq]!r}")
        elif not close(p, floor):
            out.append(f"top sequence {seq} not in reference")
    return out


def _check_refs_row(seed: int, cells: list, exp: Expected, report: Report):
    v = dict(zip(REFS_COLUMNS, cells))
    oracle = exp.oracles[seed]
    problems = []
    if not close(v["A1_base"], oracle.A1_base):
        problems.append(f"A1_base {v['A1_base']!r} != E_a[r] {oracle.A1_base!r}")
    if not close(v["pstar_entropy"], oracle.pstar_entropy):
        problems.append(f"pstar_entropy {v['pstar_entropy']!r} != H(p*) "
                        f"{oracle.pstar_entropy!r}")
    for name in ("fkl_ref_validity", "tvd_ref_tvd"):
        if not -TOL <= v[name] <= 1 + TOL:
            problems.append(f"{name} {v[name]!r} outside [0, 1]")
    # the projection is the global forward-KL optimum: no fit goes below it,
    # and the bigram fit at the default budget reaches it
    kl, best = v["fkl_ref_kl"], oracle.fkl_optimum
    if kl < best - TOL * (1 + abs(best)):
        problems.append(f"fkl_ref_kl {kl!r} below the optimum {best!r}")
    if exp.order == "bigram" and kl > best + FKL_FIT_TOL:
        problems.append(f"fkl_ref_kl {kl!r} above KL(p*, projection) {best!r}")
    ref = exp.reference and exp.reference["refs"].get(seed)
    if ref:
        want = {c: parse_cell(ref[REFS_COLUMNS.index(c)]) for c in REFS_METRICS}
        two_sided = ["A1_base", "pstar_entropy"]
        if exp.reference["fkl_at_optimum"].get(seed):
            two_sided += ["fkl_ref_validity", "fkl_ref_kl"]
        elif kl > want["fkl_ref_kl"] + TOL * (1 + want["fkl_ref_kl"]):
            problems.append(f"fkl_ref_kl {kl!r} worse than reference "
                            f"{want['fkl_ref_kl']!r}")
        for col in two_sided:
            if not close(v[col], want[col]):
                problems.append(f"{col} {v[col]!r} != reference {want[col]!r}")
        if v["tvd_ref_tvd"] > want["tvd_ref_tvd"] + TOL * (1 + want["tvd_ref_tvd"]):
            problems.append(f"tvd_ref_tvd {v['tvd_ref_tvd']!r} worse than "
                            f"reference {want['tvd_ref_tvd']!r}")
    if problems:
        report.fail([("refs", seed)], f"refs.csv seed={seed}: " + "; ".join(problems))


def _check_summary(summary: dict, rows: dict, ref_rows: dict, exp: Expected,
                   report: Report):
    every = ([("sweep", s, i) for s in exp.seeds for i in range(len(exp.lambdas))]
             + [("refs", s) for s in exp.seeds])
    if (summary.get("seeds") != exp.seeds or summary.get("order") != exp.order
            or len(summary.get("lambdas", [])) != len(exp.lambdas)
            or not all(close(a, b) for a, b in zip(summary["lambdas"], exp.lambdas))):
        report.fail(every, "summary.json: seeds/lambdas/order do not match the run")
        return
    if len(exp.seeds) < 2:
        return
    try:
        per_lambda, references = summary["per_lambda"], summary["references"]
        for i in range(len(exp.lambdas)):
            cells = [rows.get((s, i)) for s in exp.seeds]
            if any(c is None for c in cells):
                continue
            for metric in SWEEP_METRICS:
                k = SWEEP_COLUMNS.index(metric)
                mean = sum(c[k] for c in cells) / len(cells)
                if not close(per_lambda[metric]["mean"][i], mean):
                    report.fail([("sweep", s, i) for s in exp.seeds],
                                f"summary.json: {metric} mean at lambda="
                                f"{exp.lambdas[i]} != mean of sweep.csv rows")
        if len(ref_rows) == len(exp.seeds):
            for metric in REFS_METRICS:
                k = REFS_COLUMNS.index(metric)
                mean = sum(c[k] for c in ref_rows.values()) / len(ref_rows)
                if not close(references[metric]["mean"], mean):
                    report.fail([("refs", s) for s in exp.seeds],
                                f"summary.json: {metric} mean != mean of refs.csv rows")
    except (KeyError, IndexError, TypeError) as exc:
        report.fail(every, f"summary.json: malformed aggregate ({exc!r})")
