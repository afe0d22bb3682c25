"""Orchestration of the sweep studies, reference policies and diagnostics.

A sweep takes one seeded base model, runs a fresh KL-controlled ascent at
each natural-parameter value on the grid, and records a full metric panel
per point.  Multi-seed aggregation keeps every raw record alongside the
per-grid-point mean/std.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    BinaryVerifier,
    FiniteDistribution,
    condition,
    entropy,
    expected_reward,
    kl_divergence,
    kl_divergence_finite,
    total_variation,
)
from .geometry import (
    TiltedFamily,
    divergence_cost,
    j_beta,
    kl_to_tilted,
    natural_param,
    tilted,
)
from .ngram import (
    SequenceSpace,
    bigram_orders,
    make_verifier_first_equals_last,
    project_policy,
    random_base_model,
    to_distribution,
)
from .optimize import OptimizerConfig, ascend_j_beta, fit_forward_kl, fit_tvd

# Default natural-parameter grid: covers the transient-dip window, the
# checkpoint values used in the tables, and the large-lambda statistic point.
DEFAULT_LAMBDA_GRID = (0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 35.0, 50.0, 100.0)

DEFAULT_SIGMA = 0.5  # std dev of base-model logits (variance 0.25)

TOP_K = 5  # most probable sequences each SweepRecord keeps


@dataclass(frozen=True)
class SweepRecord:
    """Metric panel for the policy trained at one grid point."""

    lam: float
    beta: float
    validity: float
    tvd_to_pstar: float
    fkl_from_pstar: float
    rkl_to_tilted: float
    entropy: float
    j_beta_value: float
    top_sequences: tuple  # ((sequence, probability), ...) descending


@dataclass
class SeedSummary:
    seed: int
    A1_base: float
    records: list  # one SweepRecord per grid point
    fkl_ref_validity: float
    fkl_ref_kl: float
    tvd_ref_tvd: float
    pstar_entropy: float


@dataclass(frozen=True)
class BetaMuRow:
    A1: float
    mu_target: float
    lambda_required: float
    beta_required: float
    kappa_cost: float


def _toy_instance(seed: int, family_order: str):
    """The seed's tilted family, its p* and the ascents' starting policy."""
    space = SequenceSpace(3, 3)
    base_pol = random_base_model(space, seed, DEFAULT_SIGMA)
    base = to_distribution(base_pol)
    verifier = make_verifier_first_equals_last(space)
    fam = TiltedFamily(base, verifier)
    pstar = condition(base, verifier.mask)
    if family_order == "bigram":
        template = project_policy(base_pol, bigram_orders(space))
    elif family_order == "full":
        template = base_pol
    else:
        raise ValueError("family_order must be 'bigram' or 'full'")
    return fam, pstar, template


def make_sweep_record(fam: TiltedFamily, pstar: FiniteDistribution,
                      policy_dist: FiniteDistribution, lam: float) -> SweepRecord:
    beta = 1.0 / lam
    rkl = kl_divergence(policy_dist, tilted(fam, lam))
    if rkl == math.inf:
        raise ValueError("KL(pi, p_lambda) is infinite: p_lambda underflows to 0 "
                         "on sequences where the policy has mass")
    return SweepRecord(
        lam=lam,
        beta=beta,
        validity=expected_reward(policy_dist, fam.reward),
        tvd_to_pstar=total_variation(policy_dist, pstar),
        fkl_from_pstar=kl_divergence_finite(pstar, policy_dist),
        rkl_to_tilted=rkl,
        entropy=entropy(policy_dist),
        j_beta_value=j_beta(fam, policy_dist, beta),
        top_sequences=top_sequences(policy_dist),
    )


def top_sequences(dist: FiniteDistribution) -> tuple:
    """The TOP_K most probable outcomes, ties broken by enumeration order."""
    order = sorted(range(len(dist)), key=lambda i: (-dist.probs[i], i))[:TOP_K]
    return tuple((dist.outcomes[i], float(dist.probs[i])) for i in order)


def check_lambdas(lambdas) -> list:
    """The grid as floats; rejects a non-finite, non-positive or not strictly
    ascending grid."""
    lambdas = [float(l) for l in lambdas]
    if not all(0 < l < math.inf for l in lambdas) or lambdas != sorted(set(lambdas)):
        raise ValueError("lambdas must be finite, positive, distinct and sorted ascending")
    return lambdas


def run_sweep(seed: int, family_order: str, lambdas, cfg: OptimizerConfig,
              tvd_cfg: OptimizerConfig, warm_start: bool = False) -> SeedSummary:
    """One seed: fresh ascent per grid point plus both reference policies
    (the closed-form forward-KL projection and the best TVD fit).

    Each grid point starts cold from the base model unless warm_start is
    set, in which case each ascent is initialized at the previous grid
    point's result (the grid is strictly ascending).  An ascent that aborts
    or ends below its start, or a metric with no finite value, raises
    ValueError naming the seed and lambda.
    """
    lambdas = check_lambdas(lambdas)
    fam, pstar, template = _toy_instance(seed, family_order)

    records = []
    current = template
    for lam in lambdas:
        start = current if warm_start else template
        trace = ascend_j_beta(fam, start, cfg, beta=1.0 / lam)
        if trace.aborted:
            raise ValueError(f"seed {seed}: the ascent at lambda {lam!r} "
                             f"aborted: {trace.diagnostic}")
        if trace.diagnostic:  # it ended worse than its start
            raise ValueError(f"seed {seed}: the ascent at lambda {lam!r} "
                             f"diverged: {trace.diagnostic}")
        current = trace.final_policy
        try:
            records.append(make_sweep_record(fam, pstar, to_distribution(current), lam))
        except ValueError as exc:  # a metric with no finite value
            raise ValueError(f"seed {seed}, lambda {lam!r}: {exc}") from exc

    fkl_trace = fit_forward_kl(pstar, template)
    fkl_dist = to_distribution(fkl_trace.final_policy)
    tvd_trace = fit_tvd(pstar, template, tvd_cfg)
    tvd_dist = to_distribution(tvd_trace.final_policy)

    return SeedSummary(
        seed=seed,
        A1_base=fam.A1,
        records=records,
        fkl_ref_validity=expected_reward(fkl_dist, fam.reward),
        fkl_ref_kl=kl_divergence_finite(pstar, fkl_dist),
        tvd_ref_tvd=total_variation(tvd_dist, pstar),
        pstar_entropy=entropy(pstar),
    )


# SweepRecord fields written per grid point (sweep.csv, summary.json), the
# subset plotted one SVG each, and the SeedSummary fields written per seed
SWEEP_METRICS = ("validity", "tvd_to_pstar", "fkl_from_pstar", "rkl_to_tilted",
                 "entropy", "j_beta_value")
PLOT_METRICS = ("validity", "tvd_to_pstar", "fkl_from_pstar", "entropy")
REF_METRICS = ("A1_base", "fkl_ref_validity", "fkl_ref_kl", "tvd_ref_tvd",
               "pstar_entropy")


@dataclass
class MultiSeedResult:
    summaries: list
    lambdas: list
    # metric -> {"mean": [...], "std": [...]} aligned with lambdas;
    # None for a single seed
    per_lambda: dict
    # metric -> {"mean": float, "std": float}; None for a single seed
    references: dict


def _mean_std(values) -> dict:
    vals = np.array(values)
    return {"mean": float(vals.mean()), "std": float(vals.std())}


def multi_seed(seeds, family_order: str, lambdas, cfg: OptimizerConfig,
               tvd_cfg: OptimizerConfig, warm_start: bool = False) -> MultiSeedResult:
    """One sweep per seed, kept raw, plus the across-seed mean/std of every
    metric when there are two or more seeds."""
    lambdas = check_lambdas(lambdas)
    summaries = [run_sweep(s, family_order, lambdas, cfg, tvd_cfg, warm_start)
                 for s in seeds]
    per_lambda = references = None
    if len(summaries) >= 2:
        per_lambda = {}
        for metric in SWEEP_METRICS:
            stats = [_mean_std(col) for col in zip(
                *([getattr(r, metric) for r in s.records] for s in summaries))]
            per_lambda[metric] = {k: [st[k] for st in stats] for k in ("mean", "std")}
        references = {metric: _mean_std([getattr(s, metric) for s in summaries])
                      for metric in REF_METRICS}
    return MultiSeedResult(summaries=summaries, lambdas=lambdas,
                           per_lambda=per_lambda, references=references)


# ---------------------------------------------------------------------------
# Five-point ordering instance

ORDERING_OUTCOMES = ("y1", "y2", "y3", "y4", "y5")
ORDERING_BASE = (0.10, 0.22, 0.18, 0.25, 0.25)
ORDERING_MASK = (True, True, True, False, False)


def ordering_instance():
    """The hard-coded five-outcome instance with three valid outcomes."""
    base = FiniteDistribution(ORDERING_OUTCOMES, ORDERING_BASE)
    verifier = BinaryVerifier(ORDERING_MASK)
    fam = TiltedFamily(base, verifier)
    pstar = condition(base, verifier.mask)
    eps = 0.07
    nu0 = np.array([0.0, 0.0, 0.0, 0.4, 0.6])
    candidates = {
        "pi1": pstar,
        "pi2": FiniteDistribution.dirac(ORDERING_OUTCOMES, "y1"),
        "pi3": FiniteDistribution(ORDERING_OUTCOMES, (1 - eps) * pstar.probs + eps * nu0),
        "pi4": FiniteDistribution(ORDERING_OUTCOMES, (0.05, 0.05, 0.88, 0.01, 0.01)),
    }
    return fam, pstar, candidates


@dataclass
class OrderingResult:
    lambdas: list
    # candidate name -> list of KL(pi, p_lam) values
    curves: dict
    # crossing of the pi3/pi4 curves, from the closed-form difference
    crossing_lambda: float
    validities: dict


def ordering_illustration(lambdas) -> OrderingResult:
    """KL(pi_i, p_lam) curves for the four fixed candidates, plus the
    lambda beyond which the higher-validity candidate wins."""
    fam, _, candidates = ordering_instance()
    lambdas = [float(l) for l in lambdas]
    curves = {}
    for name, pi in candidates.items():
        curves[name] = [kl_to_tilted(fam, pi, lam) for lam in lambdas]
    # KL(pi3,p_lam) - KL(pi4,p_lam) is affine in lambda with slope mu4 - mu3,
    # so the sign flips exactly once, at the ratio below
    validities = {name: expected_reward(pi, fam.reward)
                  for name, pi in candidates.items()}
    kl3 = kl_divergence_finite(candidates["pi3"], fam.base)
    kl4 = kl_divergence_finite(candidates["pi4"], fam.base)
    crossing = (kl4 - kl3) / (validities["pi4"] - validities["pi3"])
    return OrderingResult(lambdas=lambdas, curves=curves,
                          crossing_lambda=float(crossing), validities=validities)


# ---------------------------------------------------------------------------
# Natural parameter vs target validity table


def three_outcome_family(a1: float) -> TiltedFamily:
    """Two valid outcomes of mass a1/2 each and one invalid one of mass 1 - a1."""
    if not 0 < a1 < 1:
        raise ValueError("A1 values must be in (0, 1)")
    base = FiniteDistribution(("v1", "v2", "i1"), (a1 / 2, a1 / 2, 1 - a1))
    return TiltedFamily(base, BinaryVerifier((True, True, False)))


# The fixed instance of `klgeo geometry`: the beta/mu table's base and target
# validities, the profile's base validity, and the lambda grid of the profile
# (whose positive values also give the ordering curves)
TABLE_A1 = (0.1, 0.35, 0.5, 0.9)
TABLE_MU = (0.9,)
PROFILE_A1 = 0.5
GEOMETRY_LAMBDAS = (-10.0, -5.0, -2.0, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 40.0)


def beta_mu_table(A1_values, mu_targets) -> list:
    """Rows relating base validity and target validity to the natural
    parameter, its inverse temperature, and the KL cost."""
    rows = []
    for a1 in A1_values:
        fam = three_outcome_family(a1)
        for mu in mu_targets:
            if not 0 < mu < 1:
                raise ValueError("mu targets must be in (0, 1)")
            lam = natural_param(fam, mu)
            # snap roundoff-level lambda to zero: beta is infinite there
            beta = math.inf if abs(lam) < 1e-12 else 1.0 / lam
            rows.append(BetaMuRow(A1=float(a1), mu_target=float(mu),
                                  lambda_required=lam, beta_required=beta,
                                  kappa_cost=divergence_cost(fam, mu)))
    return rows


# ---------------------------------------------------------------------------
# Transient-dip diagnostic


@dataclass(frozen=True)
class DipDiagnostic:
    dip_present: bool
    argmin_lambda: float


def tvd_dip_diagnostic(summary: SeedSummary) -> DipDiagnostic:
    """Detect an interior minimum of TVD-to-filtered-model along the grid."""
    lams = [r.lam for r in summary.records]
    if len(lams) < 8 or min(lams) > 1.0 or max(lams) < 20.0:
        raise ValueError("lambda grid must span [1, 20] with at least 8 points")
    tvds = [r.tvd_to_pstar for r in summary.records]
    k = int(np.argmin(tvds))
    dip_present = 0 < k < len(tvds) - 1
    return DipDiagnostic(dip_present=dip_present, argmin_lambda=lams[k])
