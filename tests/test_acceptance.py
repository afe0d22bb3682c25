"""End-to-end acceptance suite.

Ten numbered criteria covering the closed forms, the moment-map bijection,
the algebraic identities, the ordering instance, gradient verification, and
the eight-seed mode-collapse study with its reference policies.  Criteria 1,
2, 3, 5 and 6 run the identities' checks from `klgeo.checks.REGISTRY`, which
`klgeo check` runs too.  Each criterion prints one pass/fail line (run with
-s to see them for passing tests too).
"""
import math

import pytest

from klgeo import checks
from klgeo.dist import kl_divergence_finite
from klgeo.experiments import (
    DEFAULT_LAMBDA_GRID,
    _toy_instance,
    beta_mu_table,
    multi_seed,
    tvd_dip_diagnostic,
)
from klgeo.ngram import (
    SequenceSpace,
    conditional_projection,
    full_orders,
    make_verifier_first_equals_last,
    to_distribution,
)
from klgeo.optimize import OptimizerConfig, ascend_j_beta

SEEDS = tuple(range(1, 9))

# Reduced multi-restart budget for the TVD reference fit, at a fraction of
# the cost.  Its best TVD is above the full budget's: 0.359 against 0.325
# on seed 1, 0.320 against 0.297 on seed 2.
ACCEPT_TVD_CFG = OptimizerConfig(learning_rate=0.1, steps=2000, restarts=40)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"criterion {num:2d} {name:<28} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _report_checks(num: int, name: str, *check_names: str):
    """Run the named checks of the registry and report them as one criterion."""
    results = [(c, *checks.REGISTRY[c]()) for c in check_names]
    _report(num, name, all(ok for _, ok, _ in results),
            "; ".join(f"{c}: {detail}" for c, _, detail in results))


@pytest.fixture(scope="session")
def eight_seed_sweep():
    """One full sweep per seed, bigram family, default grid and optimizer,
    with the across-seed means of every metric."""
    return multi_seed(SEEDS, "bigram", DEFAULT_LAMBDA_GRID,
                      OptimizerConfig(), ACCEPT_TVD_CFG)


@pytest.fixture(scope="session")
def warm_cold_full():
    """Cold vs warm-started full-family runs at lambda=50, per seed.

    Returns {seed: (fkl_cold, fkl_warm)} with fkl = KL(p*, policy).
    """
    cfg = OptimizerConfig()
    out = {}
    for seed in SEEDS:
        fam, pstar, base_pol = _toy_instance(seed, "full")
        cold = ascend_j_beta(fam, base_pol, cfg, beta=1.0 / 50.0)
        first = ascend_j_beta(fam, base_pol, cfg, beta=1.0 / 3.0)
        warm = ascend_j_beta(fam, first.final_policy, cfg, beta=1.0 / 50.0)
        out[seed] = (
            kl_divergence_finite(pstar, to_distribution(cold.final_policy)),
            kl_divergence_finite(pstar, to_distribution(warm.final_policy)),
        )
    return out


def _rec(summary, lam):
    return next(r for r in summary.records if r.lam == lam)


def test_criterion_1_closed_form_convergence():
    _report_checks(1, "closed-form-convergence", "closed-form-convergence")


def test_criterion_2_bijection_legendre():
    _report_checks(2, "bijection-legendre", "bijection-roundtrip",
                   "legendre-consistency", "moment-monotone-convex")


def test_criterion_3_identity_suite():
    _report_checks(3, "identity-suite", "prop-identity", "kl-difference-identity")


def test_criterion_4_beta_mu_table():
    rows = beta_mu_table((0.1, 0.5, 0.9), (0.9,))
    expect = {0.1: (4.39, 0.23), 0.5: (2.20, 0.45), 0.9: (0.0, None)}
    worst = 0.0
    for row in rows:
        lam_e, beta_e = expect[row.A1]
        worst = max(worst, abs(row.lambda_required - lam_e))
        if beta_e is None:
            assert row.beta_required == math.inf
        else:
            worst = max(worst, abs(row.beta_required - beta_e))
    _report(4, "beta-mu-table", worst <= 0.05, f"max deviation {worst:.3f}")


def test_criterion_5_ordering_instance():
    _report_checks(5, "ordering-instance", "ordering-crossing")


def test_criterion_6_gradient_verification():
    _report_checks(6, "gradient-verification", "gradient-j-beta",
                   "gradient-forward-kl")


def test_criterion_7_mode_collapse_stats(eight_seed_sweep):
    at50 = eight_seed_sweep.lambdas.index(50.0)
    per_lambda, refs = eight_seed_sweep.per_lambda, eight_seed_sweep.references
    m_val, m_tvd, m_ent, m_fkl = (
        per_lambda[metric]["mean"][at50]
        for metric in ("validity", "tvd_to_pstar", "entropy", "fkl_from_pstar"))
    m_fklref, m_tvdref, m_refval = (
        refs[metric]["mean"]
        for metric in ("fkl_ref_kl", "tvd_ref_tvd", "fkl_ref_validity"))
    dominance = all(
        rec.fkl_from_pstar > summ.fkl_ref_kl and rec.tvd_to_pstar > summ.tvd_ref_tvd
        for summ in eight_seed_sweep.summaries for rec in [_rec(summ, 50.0)])
    ok = (0.985 <= m_val <= 1.0 and 0.45 <= m_tvd <= 0.90 and m_ent < 0.6
          and 4.0 <= m_fkl <= 8.0 and 0.6 <= m_fklref <= 1.4
          and 0.25 <= m_tvdref <= 0.50 and 0.3 <= m_refval <= 0.6
          and dominance)
    _report(7, "mode-collapse-stats", ok,
            f"validity {m_val:.3f}, tvd {m_tvd:.2f}, entropy {m_ent:.2f}, "
            f"fkl {m_fkl:.2f}, refs (fkl {m_fklref:.2f}, tvd {m_tvdref:.2f}, "
            f"val {m_refval:.2f}), dominance {dominance}")


def test_criterion_8_collapse_checkpoints(eight_seed_sweep):
    space = SequenceSpace(3, 3)
    verifier = make_verifier_first_equals_last(space)
    valid = {seq for seq, m in zip(space.outcomes(), verifier.mask) if m}
    # moderate tilt: per seed, mass concentrates on few *valid* sequences
    moderate_ok = True
    for summ in eight_seed_sweep.summaries:
        r = _rec(summ, 5.0)
        top_seq = r.top_sequences[0][0]
        moderate_ok = moderate_ok and (r.validity >= 0.85
                                       and r.entropy <= 1.5
                                       and tuple(top_seq) in valid)
    # deep tilt: a single sequence dominates on most seeds
    top1 = [_rec(summ, 100.0).top_sequences[0][1]
            for summ in eight_seed_sweep.summaries]
    n_collapsed = sum(1 for p in top1 if p >= 0.95)
    ok = moderate_ok and n_collapsed >= 6
    _report(8, "collapse-checkpoints", ok,
            f"moderate-tilt checks {'ok' if moderate_ok else 'failed'}, "
            f"deep collapse on {n_collapsed}/8 seeds")


def test_criterion_9_tvd_dip(eight_seed_sweep):
    # TVD to the filtered model dips transiently (interior minimum at small
    # lambda) while the forward KL shows no comparable dip and grows strongly
    dips = 0
    fkl_ok = True
    for summ in eight_seed_sweep.summaries:
        diag = tvd_dip_diagnostic(summ)
        if diag.dip_present and 1.0 <= diag.argmin_lambda <= 8.0:
            dips += 1
        fkls = [r.fkl_from_pstar for r in summ.records]
        tvds = [r.tvd_to_pstar for r in summ.records]
        fkl_dip = fkls[0] - min(fkls)
        tvd_dip = tvds[0] - min(tvds)
        fkl_ok = fkl_ok and (fkl_dip <= 0.1 and tvd_dip >= 0.15
                             and fkls[-1] > fkls[0] + 2.0)
    ok = fkl_ok and dips >= 5
    _report(9, "tvd-dip-diagnostic", ok,
            f"interior tvd dip on {dips}/8 seeds, fkl dip-free and "
            f"increasing on all seeds: {fkl_ok}")


def test_criterion_10_misspecification_witness(eight_seed_sweep, warm_cold_full):
    space = SequenceSpace(3, 3)
    bigram_ok = all(s.fkl_ref_kl > 0.3 for s in eight_seed_sweep.summaries)
    # the full family attains the forward-KL optimum exactly (conditional
    # projection), so its reachable forward KL is below any tolerance
    full_worst = 0.0
    for seed in SEEDS:
        _, pstar, _ = _toy_instance(seed, "full")
        witness = conditional_projection(pstar, space, full_orders(space))
        full_worst = max(full_worst,
                         kl_divergence_finite(pstar, to_distribution(witness)))
    warm_wins = sum(1 for cold, warm in warm_cold_full.values() if warm < cold)
    ok = bigram_ok and full_worst < 1e-6 and warm_wins >= 6
    _report(10, "misspecification-witness", ok,
            f"bigram fkl > 0.3 on all seeds: {bigram_ok}, full-family "
            f"witness fkl {full_worst:.2e}, warm beats cold on {warm_wins}/8")
