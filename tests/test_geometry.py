"""Tilted-family geometry: closed forms, bijections, comparison identities."""
import math

import numpy as np
import pytest

from klgeo import checks, geometry
from klgeo.dist import (
    BinaryVerifier,
    FiniteDistribution,
    RewardFn,
    condition,
    expected_reward,
    kl_divergence,
    kl_divergence_finite,
    total_variation,
)
from klgeo.geometry import (
    GeometryPoint,
    TiltedFamily,
    attained_bound_limits,
    compare,
    convergence_profile,
    divergence_cost,
    j_beta,
    kl_difference,
    kl_to_tilted,
    log_partition,
    moment,
    natural_param,
    tilted,
)
from klgeo.rng import SeededRng

from conftest import random_dist, random_simplex


def binary_family(a1=0.5):
    base = FiniteDistribution(("v1", "v2", "i1"), (a1 / 2, a1 / 2, 1 - a1))
    return TiltedFamily(base, BinaryVerifier((True, True, False)))


def general_family(seed=11, n=27):
    rng = SeededRng(seed)
    base = FiniteDistribution(range(n), random_simplex(rng, n))
    return TiltedFamily(base, RewardFn(rng.uniform(n))), rng


def fig_family():
    base = FiniteDistribution(("y1", "y2", "y3", "y4", "y5"),
                              (0.10, 0.22, 0.18, 0.25, 0.25))
    return TiltedFamily(base, BinaryVerifier((True, True, True, False, False)))


class TestConstruction:
    def test_needs_full_support(self):
        base = FiniteDistribution(("a", "b", "c"), (0.5, 0.5, 0.0))
        with pytest.raises(ValueError, match="full support"):
            TiltedFamily(base, RewardFn((0, 1, 0)))

    def test_needs_nonconstant_reward(self):
        base = FiniteDistribution.uniform(("a", "b"))
        with pytest.raises(ValueError, match="non-constant"):
            TiltedFamily(base, RewardFn((1.0, 1.0)))

    def test_binary_cache(self):
        fam = binary_family(0.3)
        assert fam.A1 == pytest.approx(0.3, abs=1e-15)
        assert fam.A0 == pytest.approx(0.7, abs=1e-15)
        assert fam.is_binary


class TestLogPartition:
    def test_zero_lambda(self):
        fam, _ = general_family()
        assert log_partition(fam, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_binary_hand_value(self):
        fam = binary_family(0.5)
        assert log_partition(fam, math.log(3)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_binary_closed_form_on_grid(self):
        fam = binary_family(0.35)
        for lam in np.linspace(-8, 8, 17):
            expected = math.log(fam.A0 + fam.A1 * math.exp(lam))
            assert log_partition(fam, lam) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self):
        fam, _ = general_family()
        for lam in (-3.0, 0.7, 5.0):
            brute = math.log(sum(p * math.exp(lam * r) for p, r in
                                 zip(fam.base.probs, fam.reward.values)))
            assert log_partition(fam, lam) == pytest.approx(brute, abs=1e-12)

    def test_convexity(self):
        for fam in (binary_family(0.2), general_family()[0]):
            avals = [log_partition(fam, l) for l in np.linspace(-15, 15, 61)]
            assert np.diff(avals, 2).min() >= -1e-10


class TestTilted:
    def test_zero_recovers_base(self):
        fam, _ = general_family()
        p0 = tilted(fam, 0.0)
        assert np.allclose(p0.probs, fam.base.probs, atol=1e-14)

    def test_binary_per_outcome_form(self):
        fam = binary_family(0.4)
        for lam in (-2.0, 1.5, 6.0):
            p = tilted(fam, lam)
            z = fam.A0 + fam.A1 * math.exp(lam)
            for i, o in enumerate(fam.base.outcomes):
                boost = math.exp(lam) if fam.reward.values[i] == 1.0 else 1.0
                assert p.prob(o) == pytest.approx(fam.base.probs[i] * boost / z,
                                                  abs=1e-14)

    def test_large_lambda_approaches_filtered(self):
        fam = fig_family()
        pstar = condition(fam.base, fam.reward.mask)
        assert total_variation(tilted(fam, 30.0), pstar) < 1e-10

    def test_full_support_and_normalized(self):
        fam, _ = general_family()
        p = tilted(fam, 12.0)
        assert np.all(p.probs > 0)
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestMomentMap:
    def test_at_zero_is_base_rate(self):
        fam = binary_family(0.35)
        assert float(moment(fam, 0.0)) == pytest.approx(0.35, abs=1e-12)

    def test_matches_brute_force(self):
        for fam in (binary_family(0.25), general_family()[0]):
            for lam in (-3.0, 0.0, 2.0, 7.0):
                brute = expected_reward(tilted(fam, lam), fam.reward)
                assert float(moment(fam, lam)) == pytest.approx(brute, abs=1e-12)

    def test_upper_limit(self):
        fam = binary_family(0.5)
        assert abs(float(moment(fam, 40.0)) - 1.0) < 1e-10

    def test_strictly_increasing(self):
        for fam in (binary_family(0.7), general_family()[0]):
            mus = [moment(fam, l) for l in np.linspace(-15, 15, 61)]
            assert all(b > a for a, b in zip(mus, mus[1:]))

    @pytest.mark.parametrize("a1", [0.2, 0.5, 0.9])
    def test_limits_past_long_double_overflow(self, a1):
        # e^20000 overflows even a long double; mu takes its limits 1 and 0
        # and kappa those of -log A1 and -log A0, to round-off (lam mu - A(lam)
        # is off by 2.9e-12 relative here at A1 = 0.5, and 8.5e-14 at lam = 700)
        fam = binary_family(a1)
        with np.errstate(over="raise", invalid="raise"):
            hi, hi700, lo700, lo = (GeometryPoint.at_lambda(fam, lam) for lam in
                                    (20000.0, 700.0, -700.0, -20000.0))
        assert hi.mu == 1.0 and lo.mu == 0.0
        for pt in (hi, hi700):
            assert pt.kappa == pytest.approx(-math.log(fam.A1), rel=1e-15)
        for pt in (lo, lo700):
            assert pt.kappa == pytest.approx(-math.log(fam.A0), rel=1e-15)


class TestNaturalParam:
    def test_base_rate_maps_to_zero(self):
        fam = binary_family(0.35)
        assert natural_param(fam, 0.35) == pytest.approx(0.0, abs=1e-12)

    def test_weak_base_strong_target(self):
        fam = binary_family(0.1)
        assert natural_param(fam, 0.9) == pytest.approx(math.log(81), abs=1e-12)

    def test_roundtrip_binary(self):
        fam = binary_family(0.33)
        for lam in np.linspace(-20, 20, 21):
            assert abs(natural_param(fam, moment(fam, lam)) - lam) <= 1e-10

    def test_roundtrip_general(self):
        fam, _ = general_family()
        for lam in np.linspace(-20, 20, 21):
            assert abs(natural_param(fam, moment(fam, lam)) - lam) <= 1e-10

    def test_rejects_unattainable(self):
        fam = binary_family(0.5)
        for mu in (0.0, 1.0, -0.1, 1.3):
            with pytest.raises(ValueError, match="unattainable"):
                natural_param(fam, mu)

    @pytest.mark.parametrize("mu", [1 - 1e-15, 1e-15])
    def test_general_solver_unconverged_raises(self, mu, monkeypatch):
        # out of iterations, the solver raises; the last iterate is not an answer
        monkeypatch.setattr(geometry, "_MAX_NEWTON_ITERS", 1)
        fam = TiltedFamily(FiniteDistribution(range(3), (0.2, 0.3, 0.5)),
                           RewardFn((0.0, 0.5, 1.0)))
        with pytest.raises(ValueError, match="did not converge"):
            natural_param(fam, mu)

    def test_general_solver_grows_its_bracket(self):
        # lam beyond the starting bracket [-60, 60] (about 66.5 and -68.5 for
        # the first family) is still found to a 1e-12 moment residual
        small = TiltedFamily(FiniteDistribution(range(3), (0.2, 0.3, 0.5)),
                             RewardFn((0.0, 0.5, 1.0)))
        fam, _ = general_family()
        m, M = fam.reward.m, fam.reward.M
        cases = [(small, 1 - 1e-15), (small, 1e-15)]
        cases += [(fam, mu) for gap in (1e-3, 1e-5, 1e-7)
                  for mu in (m + gap * (M - m), M - gap * (M - m))]
        lams = []
        for f, mu in cases:
            lam = natural_param(f, mu)
            assert abs(float(moment(f, lam)) - mu) <= 1e-12
            lams.append(lam)
        assert lams[0] > 60 and lams[1] < -60
        assert max(lams) > 150 and min(lams) < -600

    def test_general_solver_residual(self):
        fam, _ = general_family()
        for mu in (0.2, 0.5, 0.9):
            lam = natural_param(fam, mu)
            assert abs(float(moment(fam, lam)) - mu) <= 1e-12

    def test_stops_at_the_ulp_floor(self):
        # Var_{p_lam}(r) is below 1e-5 here, so a residual at the 1-ulp floor
        # never passes the Newton-step test; the few-ulp bracket ends the search
        fam = checks._general_family(seed=3)[0]
        mu = 0.9314613831772881
        lam = natural_param(fam, mu)
        assert 120 < lam < 240
        assert abs(float(moment(fam, lam)) - mu) <= 1e-12


class TestDivergenceCost:
    def test_minimum_at_base_rate(self):
        fam = binary_family(0.35)
        assert divergence_cost(fam, 0.35) == pytest.approx(0.0, abs=1e-12)

    def test_full_validity_price(self):
        fam = binary_family(0.35)
        assert divergence_cost(fam, 1.0) == pytest.approx(-math.log(0.35), abs=1e-12)

    def test_attained_lower_bound(self):
        fam = binary_family(0.35)
        assert divergence_cost(fam, 0.0) == pytest.approx(-math.log(0.65), abs=1e-12)

    def test_matches_kl_of_tilted_general(self):
        fam, _ = general_family()
        for mu in (0.2, 0.5, 0.9):
            lam = natural_param(fam, mu)
            direct = kl_divergence_finite(tilted(fam, lam), fam.base)
            assert divergence_cost(fam, mu) == pytest.approx(direct, abs=1e-10)

    def test_legendre_dual_form(self):
        for fam in (binary_family(0.2), general_family()[0]):
            lo, hi = fam.reward.m, fam.reward.M
            for mu in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7):
                lam = natural_param(fam, mu)
                dual = lam * mu - log_partition(fam, lam)
                assert divergence_cost(fam, mu) == pytest.approx(dual, abs=1e-10)

    def test_outside_range_rejected(self):
        fam = binary_family(0.5)
        with pytest.raises(ValueError):
            divergence_cost(fam, 1.5)

    def test_tangency_tradeoff(self, rng):
        # any distribution beating the slice's validity pays more KL than kappa
        fam, frng = general_family()
        mu = 0.5 * (fam.reward.M + fam.reward.m)
        kappa = divergence_cost(fam, mu)
        found = 0
        for _ in range(200):
            q = random_dist(frng, fam.base.outcomes)
            if expected_reward(q, fam.reward) > mu:
                found += 1
                assert kl_divergence_finite(q, fam.base) > kappa - 1e-10
        assert found > 0


class TestGeometryPoint:
    def test_triple_consistency(self):
        fam = binary_family(0.4)
        for lam in (-4.0, 0.5, 3.0, 9.0):
            pt = GeometryPoint.at_lambda(fam, lam)
            assert natural_param(fam, pt.mu) == pytest.approx(pt.lam, abs=1e-10)
            assert divergence_cost(fam, pt.mu) == pt.kappa
            assert pt.kappa >= -1e-15
            assert fam.reward.m < pt.mu < fam.reward.M

    def test_general_reward_outside_newton_bracket(self):
        # kappa comes from divergence_cost, whose solver grows its bracket
        # past the starting [-60, 60]
        fam, _ = general_family()
        for lam in (-1000.0, -100.0, 100.0, 1000.0):
            pt = GeometryPoint.at_lambda(fam, lam)
            assert pt.kappa == pytest.approx(
                kl_divergence_finite(tilted(fam, lam), fam.base), rel=1e-12)


class TestIdentities:
    def test_kl_difference_trivial(self):
        fam, _ = general_family()
        q = tilted(fam, 1.0)
        assert kl_difference(fam, q, 2.0, 2.0) == 0.0

    def test_kl_difference_matches_direct(self):
        fam, frng = general_family()
        for _ in range(20):
            q = random_dist(frng, fam.base.outcomes)
            l1, l2 = -1.0, 3.0
            direct = (kl_divergence_finite(q, tilted(fam, l2))
                      - kl_divergence_finite(q, tilted(fam, l1)))
            assert kl_difference(fam, q, l1, l2) == pytest.approx(direct, abs=1e-10)

    def test_kl_to_tilted_matches_direct(self):
        fam, frng = general_family()
        for lam in (-3.0, 0.0, 2.0, 12.0):
            for _ in range(5):
                q = random_dist(frng, fam.base.outcomes)
                assert kl_to_tilted(fam, q, lam) == pytest.approx(
                    kl_divergence_finite(q, tilted(fam, lam)), abs=1e-13)

    @pytest.mark.parametrize("lam", [1000.0, -1000.0])
    def test_kl_to_tilted_where_tilted_underflows(self, lam):
        # p_lam has zeros in a double, yet KL(q, p_lam) is finite; the
        # identity KL(q, a) + A(lam) - lam E_q[r] is the oracle
        fam = binary_family(0.4)
        q = FiniteDistribution(fam.base.outcomes, (0.3, 0.3, 0.4))
        assert tilted(fam, lam).probs.min() == 0.0
        expect = (kl_divergence_finite(q, fam.base) + log_partition(fam, lam)
                  - lam * expected_reward(q, fam.reward))
        assert kl_to_tilted(fam, q, lam) == pytest.approx(expect, rel=1e-13)

    def test_objective_decomposition(self, rng):
        # E_q r - beta KL(q, a) = beta * (A(1/beta) - KL(q, p_{1/beta}))
        fam = binary_family(0.3)
        for beta in (0.1, 0.5, 2.0):
            for _ in range(10):
                q = random_dist(rng, fam.base.outcomes)
                lam = 1.0 / beta
                lhs = j_beta(fam, q, beta)
                rhs = beta * (log_partition(fam, lam)
                              - kl_divergence_finite(q, tilted(fam, lam)))
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_tilted_is_unique_minimizer(self, rng):
        fam, _ = general_family()
        lam = 2.0
        p_lam = tilted(fam, lam)
        assert kl_divergence_finite(p_lam, p_lam) == 0.0
        for _ in range(15):
            q = random_dist(rng, fam.base.outcomes)
            assert kl_divergence_finite(q, p_lam) > 0

    def test_moment_slice_constant_gap(self, rng):
        # KL(q, p_mu) - KL(q, base) depends only on the slice, not on q
        fam, _ = general_family()
        mu = 0.5 * (fam.reward.m + fam.reward.M)
        lam = natural_param(fam, mu)
        p_mu = tilted(fam, lam)
        gaps = []
        for _ in range(10):
            # mix a random point toward the slice to land exactly on it
            q = random_dist(rng, fam.base.outcomes)
            mu_q = expected_reward(q, fam.reward)
            t = (mu - mu_q) / (float(moment(fam, lam + 5.0)) - mu_q) \
                if mu_q < mu else (mu - mu_q) / (float(moment(fam, lam - 5.0)) - mu_q)
            other = tilted(fam, lam + 5.0 if mu_q < mu else lam - 5.0)
            mix = FiniteDistribution(fam.base.outcomes,
                                     (1 - t) * q.probs + t * other.probs)
            gaps.append(kl_divergence_finite(mix, p_mu)
                        - kl_divergence_finite(mix, fam.base))
        assert max(gaps) - min(gaps) <= 1e-10


def old_log_partition(fam, lam):
    z = fam._log_base + lam * fam.reward.values
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()))


def old_tilted_probs(fam, lam):
    z = fam._log_base + lam * fam.reward.values
    z -= z.max()
    w = np.exp(z)
    return FiniteDistribution(fam.base.outcomes, w / w.sum()).probs


def old_kl_to_tilted(fam, q, lam):
    z = fam._log_base + lam * fam.reward.values
    z -= z.max()
    log_p = z - np.log(np.exp(z).sum())
    m = q.probs > 0
    return float(np.sum(q.probs[m] * (np.log(q.probs[m]) - log_p[m])))


@pytest.mark.parametrize("family", ["binary", "general"])
def test_shifted_log_sum_exp_matches_old_spellings(family):
    # log_partition, tilted and kl_to_tilted share one shifted log-sum-exp;
    # each still gives the bits of the spelling it used to write out
    fam = binary_family(0.35) if family == "binary" else general_family()[0]
    rng = SeededRng(5)
    qs = [fam.base, random_dist(rng, fam.base.outcomes),
          condition(fam.base, fam.reward.values == fam.reward.M)]
    for lam in (-800.0, -1.0, 0.0, 0.5, 50.0, 800.0):
        assert (np.float64(log_partition(fam, lam)).tobytes()
                == np.float64(old_log_partition(fam, lam)).tobytes())
        assert tilted(fam, lam).probs.tobytes() == old_tilted_probs(fam, lam).tobytes()
        for q in qs:
            assert (np.float64(kl_to_tilted(fam, q, lam)).tobytes()
                    == np.float64(old_kl_to_tilted(fam, q, lam)).tobytes())


class TestJBeta:
    def test_base_is_anchor(self):
        fam = binary_family(0.3)
        for beta in (0.0, 0.5, 3.0):
            assert j_beta(fam, fam.base, beta) == pytest.approx(0.3, abs=1e-12)

    def test_tilted_value(self):
        fam, _ = general_family()
        beta = 0.4
        lam = 1.0 / beta
        val = j_beta(fam, tilted(fam, lam), beta)
        assert val == pytest.approx(beta * log_partition(fam, lam), abs=1e-12)

    def test_reinforce_flat_on_valid_set(self, rng):
        fam = binary_family(0.4)
        w = rng.uniform(2) + 0.1
        q = FiniteDistribution(fam.base.outcomes,
                               np.array([w[0], w[1], 0.0]) / w.sum())
        assert j_beta(fam, q, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_negative_beta_rejected(self):
        fam = binary_family(0.5)
        with pytest.raises(ValueError):
            j_beta(fam, fam.base, -0.1)


class TestCompare:
    def test_self_comparison_zero(self):
        fam = fig_family()
        rep = compare(fam, fam.base, fam.base, 0.5)
        assert rep.d_j == 0.0 and rep.d_kl_tilted == 0.0
        assert rep.d_validity == 0.0 and rep.d_kl_base == 0.0

    def test_internal_identities(self, rng):
        fam, _ = general_family()
        for beta in (0.2, 1.0, 4.0):
            pi = random_dist(rng, fam.base.outcomes)
            pi2 = random_dist(rng, fam.base.outcomes)
            rep = compare(fam, pi, pi2, beta)
            assert rep.d_j == pytest.approx(beta * rep.d_kl_tilted, abs=1e-10)
            assert rep.d_j == pytest.approx(rep.d_validity - beta * rep.d_kl_base,
                                            abs=1e-10)

    def test_fully_valid_pair(self, rng):
        # between fully valid candidates the tilted-KL gap is lambda-free
        fam = fig_family()
        def valid_dist():
            w = rng.uniform(3) + 0.05
            return FiniteDistribution(fam.base.outcomes,
                                      np.concatenate([w / w.sum(), [0, 0]]))
        pi, pi2 = valid_dist(), valid_dist()
        gaps = []
        for beta in (0.05, 0.2, 1.0):
            rep = compare(fam, pi, pi2, beta)
            assert rep.d_validity == pytest.approx(0.0, abs=1e-12)
            assert rep.d_j == pytest.approx(-beta * rep.d_kl_base, abs=1e-10)
            gaps.append(rep.d_kl_tilted)
        assert max(gaps) - min(gaps) <= 1e-10

    def test_preference_crossing_exists(self):
        fam = fig_family()
        pstar = condition(fam.base, fam.reward.mask)
        pi3 = FiniteDistribution(fam.base.outcomes,
                                 0.93 * pstar.probs + 0.07 * np.array([0, 0, 0, 0.4, 0.6]))
        pi4 = FiniteDistribution(fam.base.outcomes, (0.05, 0.05, 0.88, 0.01, 0.01))
        small = kl_divergence_finite(pi4, tilted(fam, 2.0)) \
            > kl_divergence_finite(pi3, tilted(fam, 2.0))
        large = kl_divergence_finite(pi4, tilted(fam, 40.0)) \
            < kl_divergence_finite(pi3, tilted(fam, 40.0))
        assert small and large

    def test_filtered_preferred_at_small_beta(self):
        # below the crossing threshold the filtered model beats every candidate
        fam = fig_family()
        pstar = condition(fam.base, fam.reward.mask)
        others = [
            FiniteDistribution.dirac(fam.base.outcomes, "y1"),
            FiniteDistribution(fam.base.outcomes,
                               0.93 * pstar.probs + 0.07 * np.array([0, 0, 0, 0.4, 0.6])),
            FiniteDistribution(fam.base.outcomes, (0.05, 0.05, 0.88, 0.01, 0.01)),
        ]
        beta = 0.02
        jstar = j_beta(fam, pstar, beta)
        for pi in others:
            assert jstar > j_beta(fam, pi, beta)


class TestConvergenceProfile:
    def test_closed_forms_at_zero(self):
        # at lambda=0 the distance to the filtered model is the invalid mass:
        # direct evaluation gives TVD(p*, a) = A0 and KL(p*, a) = -log A1
        fam = binary_family(0.5)
        pt = convergence_profile(fam, [0.0])[0]
        pstar = condition(fam.base, fam.reward.mask)
        assert pt.tvd_to_pstar == pytest.approx(
            total_variation(pstar, fam.base), abs=1e-14)
        assert pt.tvd_to_pstar == pytest.approx(0.5, abs=1e-14)
        assert pt.fkl_from_pstar == pytest.approx(math.log(2.0), abs=1e-14)
        assert pt.rkl_to_pstar == math.inf

    def test_matches_direct_computation(self):
        fam = binary_family(0.35)
        pstar = condition(fam.base, fam.reward.mask)
        for pt in convergence_profile(fam, np.linspace(-10, 40, 26)):
            p_lam = tilted(fam, pt.lam)
            assert total_variation(pstar, p_lam) == pytest.approx(
                pt.tvd_to_pstar, abs=1e-12)
            assert kl_divergence_finite(pstar, p_lam) == pytest.approx(
                pt.fkl_from_pstar, abs=1e-12)
            assert kl_divergence(p_lam, pstar) == math.inf

    def test_monotone_decay(self):
        fam = binary_family(0.2)
        pts = convergence_profile(fam, np.linspace(0, 50, 26))
        tvds = [p.tvd_to_pstar for p in pts]
        fkls = [p.fkl_from_pstar for p in pts]
        assert all(b < a for a, b in zip(tvds, tvds[1:]))
        assert all(b < a for a, b in zip(fkls, fkls[1:]))
        assert tvds[-1] < 1e-9 and fkls[-1] < 1e-9

    def test_requires_binary(self):
        fam, _ = general_family()
        with pytest.raises(ValueError, match="binary"):
            convergence_profile(fam, [1.0])

    @pytest.mark.parametrize("a1", [0.2, 0.5, 0.9])
    def test_limits_at_extreme_lambda(self, a1):
        # e^{+-1000} overflows a double; the profile takes the limits of
        # tvd = A0 / (A0 + A1 e^lam) and fkl = log(1 + (A0/A1) e^-lam)
        fam = binary_family(a1)
        hi, lo = convergence_profile(fam, [1000.0, -1000.0])
        assert hi.tvd_to_pstar == 0.0 and hi.fkl_from_pstar == 0.0
        assert lo.tvd_to_pstar == 1.0
        assert lo.fkl_from_pstar == pytest.approx(
            1000.0 + math.log(fam.A0 / fam.A1), rel=1e-15)


class TestBoundLimits:
    def test_binary_upper(self):
        fam = fig_family()
        lim = attained_bound_limits(fam, "upper")
        pstar = condition(fam.base, fam.reward.mask)
        assert np.allclose(lim.limit_dist.probs, pstar.probs, atol=1e-15)
        assert lim.kl_ceiling == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_binary_lower(self):
        fam = fig_family()
        lim = attained_bound_limits(fam, "lower")
        assert np.allclose(lim.limit_dist.probs, (0, 0, 0, 0.5, 0.5), atol=1e-15)

    def test_three_valued_reward(self):
        base = FiniteDistribution(("a", "b", "c", "d"), (0.4, 0.3, 0.2, 0.1))
        fam = TiltedFamily(base, RewardFn((0.0, 0.5, 1.0, 1.0)))
        up = attained_bound_limits(fam, "upper")
        assert np.allclose(up.limit_dist.probs, (0, 0, 2 / 3, 1 / 3), atol=1e-14)
        assert up.kl_ceiling == pytest.approx(-math.log(0.3), abs=1e-12)
        # the curve approaches the conditioned limit at large |lambda|
        assert total_variation(tilted(fam, 40.0), up.limit_dist) < 1e-6
        lo = attained_bound_limits(fam, "lower")
        assert total_variation(tilted(fam, -40.0), lo.limit_dist) < 1e-6
        # and the KL-to-base cost approaches the stated ceiling
        assert kl_divergence_finite(tilted(fam, 40.0), base) == pytest.approx(
            up.kl_ceiling, abs=1e-5)

    def test_bad_direction(self):
        fam = fig_family()
        with pytest.raises(ValueError):
            attained_bound_limits(fam, "sideways")
