"""End-to-end acceptance suite.

Ten numbered criteria covering the closed forms, the moment-map bijection,
the algebraic identities, the ordering instance, gradient verification, and
the eight-seed mode-collapse study with its reference policies.  Each
criterion prints one pass/fail line (run with -s to see them for passing
tests too).
"""
import math

import numpy as np
import pytest

from klgeo.dist import (
    BinaryVerifier,
    FiniteDistribution,
    RewardFn,
    condition,
    kl_divergence,
    kl_divergence_finite,
    total_variation,
)
from klgeo.experiments import DEFAULT_LAMBDA_GRID, beta_mu_table, ordering_illustration, run_sweep, tvd_dip_diagnostic
from klgeo.geometry import (
    TiltedFamily,
    convergence_profile,
    divergence_cost,
    j_beta,
    kl_difference,
    log_partition,
    moment,
    natural_param,
    tilted,
)
from klgeo.ngram import (
    ForwardKLObjective,
    JBetaObjective,
    NGramPolicy,
    SequenceSpace,
    bigram_orders,
    conditional_projection,
    full_orders,
    make_verifier_first_equals_last,
    random_base_model,
    to_distribution,
)
from klgeo.optimize import (
    OptimizerConfig,
    ascend_j_beta,
    verify_gradients,
)
from klgeo.rng import SeededRng

SEEDS = tuple(range(1, 9))

# Reduced multi-restart budget for the TVD reference fit, at a fraction of
# the cost.  Its best TVD is above the full budget's: 0.359 against 0.325
# on seed 1, 0.320 against 0.297 on seed 2.
ACCEPT_TVD_CFG = OptimizerConfig(learning_rate=0.1, steps=2000, restarts=40)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"criterion {num:2d} {name:<28} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _binary_family(a1: float) -> TiltedFamily:
    base = FiniteDistribution(("v1", "v2", "i1"), (a1 / 2, a1 / 2, 1 - a1))
    return TiltedFamily(base, BinaryVerifier((True, True, False)))


@pytest.fixture(scope="session")
def eight_seed_sweep():
    """One full sweep per seed: bigram family, default grid and optimizer."""
    return {
        seed: run_sweep(seed, "bigram", DEFAULT_LAMBDA_GRID,
                        OptimizerConfig(), ACCEPT_TVD_CFG)
        for seed in SEEDS
    }


@pytest.fixture(scope="session")
def warm_cold_full():
    """Cold vs warm-started full-family runs at lambda=50, per seed.

    Returns {seed: (fkl_cold, fkl_warm)} with fkl = KL(p*, policy).
    """
    space = SequenceSpace(3, 3)
    verifier = make_verifier_first_equals_last(space)
    cfg = OptimizerConfig()
    out = {}
    for seed in SEEDS:
        base_pol = random_base_model(space, seed)
        base = to_distribution(base_pol)
        fam = TiltedFamily(base, verifier)
        pstar = condition(base, verifier.mask)
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
    worst = 0.0
    for a1 in (0.1, 0.35, 0.5, 0.9):
        fam = _binary_family(a1)
        a0 = 1.0 - a1
        pstar = condition(fam.base, (True, True, False))
        for point in convergence_profile(fam, np.linspace(-10.0, 40.0, 51)):
            lam = point.lam
            tvd_cf = a0 / (a0 + a1 * math.exp(lam))
            fkl_cf = math.log1p((a0 / a1) * math.exp(-lam))
            p_lam = tilted(fam, lam)
            worst = max(
                worst,
                abs(point.tvd_to_pstar - tvd_cf),
                abs(total_variation(pstar, p_lam) - tvd_cf),
                abs(point.fkl_from_pstar - fkl_cf),
                abs(kl_divergence_finite(pstar, p_lam) - fkl_cf),
            )
            assert point.rkl_to_pstar == math.inf
            assert kl_divergence(p_lam, pstar) == math.inf
    _report(1, "closed-form-convergence", worst <= 1e-12,
            f"max residual {worst:.3e}")


def test_criterion_2_bijection_legendre():
    rng = SeededRng(11)
    w = -np.log(1.0 - rng.uniform(27))
    base = FiniteDistribution(tuple(range(27)), w / w.sum())
    mask = np.zeros(27, dtype=bool)
    mask[:9] = True
    families = (
        TiltedFamily(base, BinaryVerifier(mask)),
        TiltedFamily(base, RewardFn(rng.uniform(27))),
    )
    worst_rt, worst_leg = 0.0, 0.0
    for fam in families:
        for lam in np.linspace(-20.0, 20.0, 41):
            mu = moment(fam, lam)
            worst_rt = max(worst_rt, abs(natural_param(fam, mu) - lam))
            kappa = divergence_cost(fam, mu)
            direct = kl_divergence_finite(tilted(fam, lam), fam.base)
            worst_leg = max(worst_leg, abs(kappa - direct))
        grid = np.linspace(-20.0, 20.0, 81)
        mus = [moment(fam, l) for l in grid]
        assert all(b > a for a, b in zip(mus, mus[1:]))
        avals = [log_partition(fam, l) for l in grid]
        assert np.diff(avals, 2).min() >= -1e-10
    ok = worst_rt <= 1e-10 and worst_leg <= 1e-10
    _report(2, "bijection-legendre", ok,
            f"roundtrip {worst_rt:.3e}, legendre {worst_leg:.3e}")


def test_criterion_3_identity_suite():
    rng = SeededRng(23)
    w = -np.log(1.0 - rng.uniform(27))
    base = FiniteDistribution(tuple(range(27)), w / w.sum())
    fam = TiltedFamily(base, RewardFn(rng.uniform(27)))
    worst = 0.0
    for _ in range(100):
        q = -np.log(1.0 - rng.uniform(27))
        q = FiniteDistribution(tuple(range(27)), q / q.sum())
        l1, l2 = -2.0 + 6.0 * rng.uniform(2)
        beta = 0.05 + 2.0 * float(rng.uniform(1)[0])
        lam = 1.0 / beta
        lhs = j_beta(fam, q, beta)
        rhs = beta * (log_partition(fam, lam)
                      - kl_divergence_finite(q, tilted(fam, lam)))
        worst = max(worst, abs(lhs - rhs))
        direct = (kl_divergence_finite(q, tilted(fam, l2))
                  - kl_divergence_finite(q, tilted(fam, l1)))
        worst = max(worst, abs(kl_difference(fam, q, l1, l2) - direct))
    _report(3, "identity-suite", worst <= 1e-10, f"max residual {worst:.3e}")


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
    grid = [float(x) for x in np.linspace(0.5, 60.0, 120)]
    res = ordering_illustration(grid)
    ok = (abs(res.validities["pi3"] - 0.93) < 1e-12
          and abs(res.validities["pi4"] - 0.98) < 1e-12)
    lam_star = res.crossing_lambda
    # independent prediction from the tilt identity: the KL gap is affine in
    # lambda, crossing at (KL(pi4,a) - KL(pi3,a)) / (mu4 - mu3)
    from klgeo.experiments import ordering_instance

    fam, _, cands = ordering_instance()
    kl3 = kl_divergence_finite(cands["pi3"], fam.base)
    kl4 = kl_divergence_finite(cands["pi4"], fam.base)
    pred = (kl4 - kl3) / (0.98 - 0.93)
    ok = ok and abs(lam_star - pred) <= 1e-6 and math.isfinite(lam_star)
    for lam, k3, k4 in zip(res.lambdas, res.curves["pi3"], res.curves["pi4"]):
        if lam > lam_star:
            ok = ok and k4 < k3
    _report(5, "ordering-instance", ok,
            f"crossing {lam_star:.4f} vs predicted {pred:.4f}")


def test_criterion_6_gradient_verification():
    space = SequenceSpace(3, 3)
    base_pol = random_base_model(space, seed=1)
    base = to_distribution(base_pol)
    verifier = make_verifier_first_equals_last(space)
    fam = TiltedFamily(base, verifier)
    pstar = condition(base, verifier.mask)
    worst = 0.0
    for seed in (101, 102, 103):
        pol = NGramPolicy(space, bigram_orders(space), SeededRng(seed).normal(21))
        worst = max(worst,
                    verify_gradients(pol, JBetaObjective(fam, beta=0.2)),
                    verify_gradients(pol, ForwardKLObjective(pstar)))
    _report(6, "gradient-verification", worst < 1e-7,
            f"max relative error {worst:.3e}")


def test_criterion_7_mode_collapse_stats(eight_seed_sweep):
    recs50 = {s: _rec(summ, 50.0) for s, summ in eight_seed_sweep.items()}
    mean = lambda vals: float(np.mean(list(vals)))
    m_val = mean(r.validity for r in recs50.values())
    m_tvd = mean(r.tvd_to_pstar for r in recs50.values())
    m_ent = mean(r.entropy for r in recs50.values())
    m_fkl = mean(r.fkl_from_pstar for r in recs50.values())
    m_fklref = mean(s.fkl_ref_kl for s in eight_seed_sweep.values())
    m_tvdref = mean(s.tvd_ref_tvd for s in eight_seed_sweep.values())
    m_refval = mean(s.fkl_ref_validity for s in eight_seed_sweep.values())
    dominance = all(
        recs50[s].fkl_from_pstar > summ.fkl_ref_kl
        and recs50[s].tvd_to_pstar > summ.tvd_ref_tvd
        for s, summ in eight_seed_sweep.items())
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
    for s, summ in eight_seed_sweep.items():
        r = _rec(summ, 5.0)
        top_seq = r.top_sequences[0][0]
        moderate_ok = moderate_ok and (r.validity >= 0.85
                                       and r.entropy <= 1.5
                                       and tuple(top_seq) in valid)
    # deep tilt: a single sequence dominates on most seeds
    top1 = [_rec(summ, 100.0).top_sequences[0][1]
            for summ in eight_seed_sweep.values()]
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
    for summ in eight_seed_sweep.values():
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
    bigram_ok = all(s.fkl_ref_kl > 0.3 for s in eight_seed_sweep.values())
    # the full family attains the forward-KL optimum exactly (conditional
    # projection), so its reachable forward KL is below any tolerance
    full_worst = 0.0
    for seed in SEEDS:
        base = to_distribution(random_base_model(space, seed))
        verifier = make_verifier_first_equals_last(space)
        pstar = condition(base, verifier.mask)
        witness = conditional_projection(pstar, space, full_orders(space))
        full_worst = max(full_worst,
                         kl_divergence_finite(pstar, to_distribution(witness)))
    warm_wins = sum(1 for cold, warm in warm_cold_full.values() if warm < cold)
    ok = bigram_ok and full_worst < 1e-6 and warm_wins >= 6
    _report(10, "misspecification-witness", ok,
            f"bigram fkl > 0.3 on all seeds: {bigram_ok}, full-family "
            f"witness fkl {full_worst:.2e}, warm beats cold on {warm_wins}/8")
