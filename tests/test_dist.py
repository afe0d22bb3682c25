"""Distribution primitives: divergences, conditioning, support semantics."""
import math

import numpy as np
import pytest

from klgeo.dist import (
    BinaryVerifier,
    FiniteDistribution,
    RewardFn,
    condition,
    entropy,
    expected_reward,
    kl_divergence,
    kl_divergence_finite,
    support,
    total_variation,
)
from klgeo.experiments import ordering_instance

from conftest import random_dist

OUTCOMES5 = ("y1", "y2", "y3", "y4", "y5")
BASE5 = (0.10, 0.22, 0.18, 0.25, 0.25)
MASK5 = (True, True, True, False, False)


def five_point():
    base = FiniteDistribution(OUTCOMES5, BASE5)
    verifier = BinaryVerifier(MASK5)
    return base, verifier


class TestFiniteDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match=r"sum to 1\.1, not 1"):
            FiniteDistribution(("a", "b"), (0.5, 0.6))
        # a sum that overflows is printed as a plain float too
        with pytest.raises(ValueError, match="sum to inf, not 1"):
            FiniteDistribution(("a", "b"), (1e308, 1e308))
        # every comparison with NaN is false, so the sum test would let it pass
        for bad in ((math.nan, math.nan), (0.5, math.nan), (math.inf, 0.0),
                    (0.5, -math.inf)):
            with pytest.raises(ValueError, match="probabilities must be finite"):
                FiniteDistribution(("a", "b"), bad)

    def test_renormalizes_tiny_drift(self):
        p = FiniteDistribution(("a", "b"), (0.5 + 1e-10, 0.5))
        assert p.probs.sum() == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FiniteDistribution(("a", "b"), (-0.1, 1.1))

    def test_rejects_duplicate_outcomes(self):
        with pytest.raises(ValueError):
            FiniteDistribution(("a", "a"), (0.5, 0.5))

    def test_immutable(self):
        p = FiniteDistribution.uniform(("a", "b"))
        with pytest.raises(AttributeError):
            p.probs = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            p.probs[0] = 1.0  # read-only buffer

    def test_unknown_outcome_raises_value_error(self):
        p = FiniteDistribution.uniform(("a", "b"))
        assert p.index_of("b") == 1
        with pytest.raises(ValueError):
            p.prob("c")

    def test_dirac_and_uniform(self):
        d = FiniteDistribution.dirac(("a", "b", "c"), "b")
        assert d.prob("b") == 1.0 and d.prob("a") == 0.0
        u = FiniteDistribution.uniform(("a", "b", "c", "d"))
        assert np.allclose(u.probs, 0.25)


class TestKL:
    def test_identity_is_zero(self, rng):
        p = random_dist(rng, tuple(range(9)))
        assert kl_divergence(p, p) == 0.0

    def test_filtered_vs_base_closed_form(self):
        # KL(p*, a) telescopes to -log(mass of the valid set)
        base, verifier = five_point()
        pstar = condition(base, verifier.mask)
        got = kl_divergence_finite(pstar, base)
        direct = sum(pstar.prob(o) * math.log(pstar.prob(o) / base.prob(o))
                     for o in OUTCOMES5[:3])
        assert got == pytest.approx(direct, abs=1e-15)
        assert got == pytest.approx(-math.log(0.50), abs=1e-12)

    def test_support_mismatch_is_infinite(self):
        base, verifier = five_point()
        pstar = condition(base, verifier.mask)
        d = kl_divergence(base, pstar)
        assert type(d) is float and d == math.inf
        with pytest.raises(ValueError):
            kl_divergence_finite(base, pstar)

    def test_nonnegative_zero_iff_equal(self, rng):
        outcomes = tuple(range(7))
        for _ in range(20):
            p = random_dist(rng, outcomes)
            q = random_dist(rng, outcomes)
            assert kl_divergence_finite(p, q) > 0
        p = random_dist(rng, outcomes)
        assert kl_divergence_finite(p, FiniteDistribution(outcomes, p.probs)) == 0.0

    def test_dimension_mismatch(self):
        p = FiniteDistribution.uniform(("a", "b"))
        q = FiniteDistribution.uniform(("a", "c"))
        with pytest.raises(ValueError):
            kl_divergence(p, q)

    def test_shift_by_log_valid_mass(self, rng):
        # for q supported on the valid set, KL(q, a) = KL(q, p*) - log A1
        base, verifier = five_point()
        pstar = condition(base, verifier.mask)
        a1 = expected_reward(base, verifier)
        for _ in range(10):
            w = np.zeros(5)
            w[:3] = rng.uniform(3) + 0.05
            q = FiniteDistribution(OUTCOMES5, w / w.sum())
            lhs = kl_divergence_finite(q, base)
            rhs = kl_divergence_finite(q, pstar) + (-math.log(a1))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestTVD:
    def test_identity_zero(self, rng):
        p = random_dist(rng, tuple(range(6)))
        assert total_variation(p, p) == 0.0

    def test_ordering_instance_values(self):
        _, pstar, cands = ordering_instance()
        assert total_variation(cands["pi3"], pstar) == pytest.approx(0.07, abs=1e-12)
        assert total_variation(cands["pi4"], pstar) == pytest.approx(0.54, abs=1e-12)

    def test_metric_properties(self, rng):
        outcomes = tuple(range(11))
        for _ in range(25):
            p, q, s = (random_dist(rng, outcomes) for _ in range(3))
            assert total_variation(p, q) == total_variation(q, p)
            assert 0.0 <= total_variation(p, q) <= 1.0
            assert (total_variation(p, s)
                    <= total_variation(p, q) + total_variation(q, s) + 1e-12)


class TestEntropy:
    def test_dirac_zero(self):
        assert entropy(FiniteDistribution.dirac(tuple(range(4)), 2)) == 0.0

    def test_uniform_27(self):
        u = FiniteDistribution.uniform(tuple(range(27)))
        assert entropy(u) == pytest.approx(math.log(27), abs=1e-12)


class TestExpectedReward:
    def test_base_rate(self):
        base, verifier = five_point()
        assert expected_reward(base, verifier) == pytest.approx(0.50, abs=1e-12)

    def test_ordering_candidates(self):
        fam, _, cands = ordering_instance()
        assert expected_reward(cands["pi3"], fam.reward) == pytest.approx(0.93, abs=1e-12)
        assert expected_reward(cands["pi4"], fam.reward) == pytest.approx(0.98, abs=1e-12)

    def test_dirac_on_valid(self):
        _, verifier = five_point()
        d = FiniteDistribution.dirac(OUTCOMES5, "y2")
        assert expected_reward(d, verifier) == 1.0

    def test_verifier_range(self, rng):
        _, verifier = five_point()
        for _ in range(10):
            q = random_dist(rng, OUTCOMES5)
            assert 0.0 <= expected_reward(q, verifier) <= 1.0


class TestCondition:
    def test_filtered_model_values(self):
        base, verifier = five_point()
        pstar = condition(base, verifier.mask)
        assert np.allclose(pstar.probs, (0.20, 0.44, 0.36, 0.0, 0.0), atol=1e-15)
        # exact zeros off the conditioning set, not just small values
        assert pstar.probs[3] == 0.0 and pstar.probs[4] == 0.0

    def test_full_space_identity(self):
        base, _ = five_point()
        same = condition(base, np.ones(5, dtype=bool))
        assert np.array_equal(same.probs, base.probs)

    def test_complement_set(self):
        base, verifier = five_point()
        pminus = condition(base, ~verifier.mask)
        assert np.allclose(pminus.probs, (0, 0, 0, 0.5, 0.5), atol=1e-15)

    def test_outcome_list_rejected(self):
        base, _ = five_point()
        for outcomes in (("y1", "y2"), ["y1", "y2"]):
            with pytest.raises(ValueError, match="boolean mask"):
                condition(base, outcomes)

    def test_int_mask_rejected(self):
        # with integer outcomes a 0/1 mask also reads as the outcome list
        # (0, 1); only a boolean mask says which outcomes are kept
        p = FiniteDistribution(range(5), (0.1, 0.2, 0.3, 0.2, 0.2))
        for mask in ([0, 0, 1, 1, 1], np.array([0, 0, 1, 1, 1])):
            with pytest.raises(ValueError, match="boolean mask"):
                condition(p, mask)
        c = condition(p, np.array([0, 0, 1, 1, 1], dtype=bool))
        assert c.probs[0] == 0.0 and c.probs[1] == 0.0
        assert np.allclose(c.probs[2:], np.array([0.3, 0.2, 0.2]) / 0.7, atol=1e-15)

    @pytest.mark.parametrize("n", [4, 6])
    def test_wrong_length_mask_rejected(self, n):
        base, _ = five_point()
        with pytest.raises(ValueError, match=r"boolean mask of shape \(5,\)"):
            condition(base, np.ones(n, dtype=bool))

    def test_null_set_rejected(self):
        p = FiniteDistribution(("a", "b", "c"), (0.5, 0.5, 0.0))
        with pytest.raises(ValueError, match="null set"):
            condition(p, np.array([False, False, True]))

    def test_ratio_preservation(self, rng):
        outcomes = tuple(range(10))
        p = random_dist(rng, outcomes)
        mask = np.zeros(10, dtype=bool)
        mask[3:8] = True
        c = condition(p, mask)
        assert c.probs.sum() == pytest.approx(1.0, abs=1e-12)
        ratios = c.probs[mask] / p.probs[mask]
        assert ratios.max() - ratios.min() <= 1e-12


class TestSupport:
    def test_dirac(self):
        assert support(FiniteDistribution.dirac(("a", "b"), "a")) == ("a",)

    def test_filtered_support_is_valid_set(self):
        base, verifier = five_point()
        pstar = condition(base, verifier.mask)
        assert support(pstar) == ("y1", "y2", "y3")

    def test_strictly_positive_only(self):
        p = FiniteDistribution(("a", "b", "c"), (0.5, 0.5, 0.0))
        assert support(p) == ("a", "b")


class TestRewardTypes:
    def test_reward_bounds(self):
        r = RewardFn((0.2, -1.0, 3.5))
        assert r.m == -1.0 and r.M == 3.5 and not r.is_binary

    def test_binary_detection(self):
        assert RewardFn((0.0, 1.0, 1.0)).is_binary
        assert not RewardFn((0.0, 0.5, 1.0)).is_binary

    def test_verifier_needs_two_valid(self):
        with pytest.raises(ValueError):
            BinaryVerifier((True, False, False))

    def test_verifier_needs_one_invalid(self):
        with pytest.raises(ValueError):
            BinaryVerifier((True, True, True))
