"""Autoregressive n-gram policies: enumeration, objectives, gradients."""
import numpy as np
import pytest

from klgeo import ngram
from klgeo.dist import (
    FiniteDistribution,
    RewardFn,
    condition,
    kl_divergence_finite,
    total_variation,
)
from klgeo.experiments import DEFAULT_SIGMA
from klgeo.geometry import TiltedFamily
from klgeo.ngram import (
    FD_STEP,
    ForwardKLObjective,
    JBetaObjective,
    NGramPolicy,
    SequenceSpace,
    TVDObjective,
    bigram_orders,
    conditional_projection,
    full_orders,
    make_verifier_first_equals_last,
    project_policy,
    random_base_model,
    to_distribution,
    verify_gradients,
)
from klgeo.optimize import OptimizerConfig, ascend_j_beta, fit_tvd
from klgeo.rng import SeededRng

from conftest import FUZZ
from hypothesis import example, given
from hypothesis import strategies as st

SPACE = SequenceSpace(3, 3)


def toy_setup(seed=1):
    base_pol = random_base_model(SPACE, seed, DEFAULT_SIGMA)
    base = to_distribution(base_pol)
    verifier = make_verifier_first_equals_last(SPACE)
    fam = TiltedFamily(base, verifier)
    pstar = condition(base, verifier.mask)
    return base_pol, base, verifier, fam, pstar


def loop_central_difference(obj, struct, theta, h):
    """The per-coordinate central difference, written out as the oracle of
    the shared one."""
    fd = np.empty_like(theta)
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = h
        fd[i] = (obj.value_theta(struct, theta + e)
                 - obj.value_theta(struct, theta - e)) / (2.0 * h)
    return fd


class TestSequenceSpace:
    def test_size(self):
        assert SPACE.n_sequences == 27
        assert SequenceSpace(2, 4).n_sequences == 16

    def test_lexicographic_order(self):
        outs = SPACE.outcomes()
        assert outs[0] == (0, 0, 0)
        assert outs[1] == (0, 0, 1)
        assert outs[3] == (0, 1, 0)
        assert outs[-1] == (2, 2, 2)
        # position 0 is most significant
        for idx, seq in enumerate(outs):
            assert idx == seq[0] * 9 + seq[1] * 3 + seq[2]

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            SequenceSpace(0, 3)


class TestParameterCounts:
    def test_bigram_is_21(self):
        pol = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
        assert pol.n_params == 21
        rows = pol.logits.reshape(-1, 3)
        assert [rows[:1].shape, rows[1:4].shape, rows[4:].shape] == [
            (1, 3), (3, 3), (3, 3)]

    def test_full_is_39(self):
        pol = NGramPolicy(SPACE, full_orders(SPACE), np.zeros(39))
        assert pol.n_params == 39
        rows = pol.logits.reshape(-1, 3)
        assert [rows[:1].shape, rows[1:4].shape, rows[4:].shape] == [
            (1, 3), (3, 3), (9, 3)]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(20))

    def test_context_cannot_exceed_position(self):
        with pytest.raises(ValueError):
            NGramPolicy(SPACE, (1, 1, 1), np.zeros(27))


class TestStructureCache:
    """One structure per space and order tuple, whatever instances name them."""

    def test_equal_spaces_and_orders_share_one_structure(self):
        a, b = SequenceSpace(3, 3), SequenceSpace(3, 3)
        orders_a, orders_b = bigram_orders(a), tuple([0, 1, 1])
        assert a is not b and orders_a is not orders_b
        struct = ngram._structure(a, orders_a)
        assert ngram._structure(b, orders_b) is struct
        assert struct.space == b
        pol = NGramPolicy(b, orders_b, np.zeros(21))
        assert pol.context_lengths == orders_b and pol._struct is struct

    def test_other_orders_or_space_get_another_structure(self):
        struct = ngram._structure(SequenceSpace(3, 3), (0, 1, 1))
        others = [ngram._structure(SequenceSpace(3, 3), (0, 1, 2)),
                  ngram._structure(SequenceSpace(2, 3), (0, 1, 1)),
                  ngram._structure(SequenceSpace(3, 4), (0, 1, 1, 1))]
        assert len({id(s) for s in [struct, *others]}) == 4
        assert [s.n_params for s in others] == [39, 10, 30]

    def test_policies_of_one_family_share_the_structure(self):
        pol = NGramPolicy(SequenceSpace(3, 3), [0, 1, 1], np.zeros(21))
        same = [NGramPolicy(SequenceSpace(3, 3), bigram_orders(SPACE), np.ones(21)),
                pol.with_logits(np.arange(21.0)),
                random_base_model(SPACE, 1, DEFAULT_SIGMA).with_logits(np.zeros(39))]
        assert [p._struct is pol._struct for p in same] == [True, True, False]
        assert same[2]._struct is ngram._structure(SPACE, full_orders(SPACE))

    def test_structure_and_polish_stack_are_one_type(self):
        struct = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))._struct
        stack = ngram._Stack(struct.space, struct.index, 3)
        assert type(struct) is type(stack) is ngram._Stack
        assert stack.space is struct.space and stack.index is struct.index
        assert stack.n_params == 3 * struct.n_params


class TestToDistribution:
    def test_zero_logits_uniform(self):
        pol = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
        d = to_distribution(pol)
        assert np.allclose(d.probs, 1.0 / 27, atol=1e-15)

    def test_normalized_for_random_draws(self):
        rng = SeededRng(99)
        for _ in range(100):
            pol = NGramPolicy(SPACE, bigram_orders(SPACE), rng.normal(21, sigma=2.0))
            assert to_distribution(pol).probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_product_of_conditionals(self):
        pol = random_base_model(SPACE, 5, DEFAULT_SIGMA)
        d = to_distribution(pol)
        rows = pol.logits.reshape(-1, 3)
        b0, b1, b2 = [np.exp(b - np.log(np.exp(b).sum(axis=1, keepdims=True)))
                      for b in (rows[:1], rows[1:4], rows[4:])]
        for seq in ((0, 0, 0), (1, 2, 0), (2, 1, 2)):
            manual = (b0[0, seq[0]] * b1[seq[0], seq[1]]
                      * b2[seq[0] * 3 + seq[1], seq[2]])
            assert d.prob(seq) == pytest.approx(manual, abs=1e-14)

    def test_copy_biased_bigram_concentrates_on_diagonal(self):
        logits = np.zeros(21)
        pol = NGramPolicy(SPACE, bigram_orders(SPACE), logits)
        blocks = [np.zeros((1, 3)), 6.0 * np.eye(3), 6.0 * np.eye(3)]
        pol = pol.with_logits(np.concatenate([b.ravel() for b in blocks]))
        d = to_distribution(pol)
        diag_mass = sum(d.prob((v, v, v)) for v in range(3))
        assert diag_mass > 0.99


@pytest.mark.parametrize("shape", [(3, 3), (7, 2)], ids=lambda s: f"{s[0]}x{s[1]}")
class TestLogSoftmaxAccuracy:
    """The row log-softmax is within (V - 1) eps max(1, max|row|) of a
    50-digit reference at every finite entry (max over the row's finite
    logits), one eps per step of a row's log-sum-exp, and exactly -inf at
    every -inf logit: a bound on accuracy, not on bits, so it holds whatever
    order the kernel reduces a row in.  The max-shifted form the kernel
    used before meets it too; a fixed 2 eps does not hold for it at V >= 4."""

    def _assert_accurate(self, shape, theta):
        mpmath = pytest.importorskip("mpmath")
        V = shape[0]
        got = ngram._log_softmax(self._struct(shape), theta)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            for row, out in zip(theta.reshape(-1, V), got.reshape(-1, V)):
                lse = mpmath.log(mpmath.fsum(mpmath.exp(z) for z in row))
                bound = (V - 1) * eps * max(1.0, np.abs(row[np.isfinite(row)]).max())
                for z, value in zip(row, out):
                    if z == -np.inf:
                        assert value == -np.inf
                    else:
                        assert abs(mpmath.mpf(value) - (z - lse)) <= bound

    def _struct(self, shape):
        space = SequenceSpace(*shape)
        return ngram._structure(space, full_orders(space))

    @pytest.mark.parametrize("scale", [0.5, 3.0, 30.0, 300.0])
    def test_random_rows(self, shape, scale):
        rng = SeededRng(40 + int(scale))
        n = self._struct(shape).n_params
        for _ in range(5):
            self._assert_accurate(shape, rng.normal(n, sigma=scale))

    def test_rows_with_neg_inf_entries(self, shape):
        rng = SeededRng(41)
        n = self._struct(shape).n_params
        for _ in range(5):
            theta = rng.normal(n, sigma=3.0)
            dead = rng.uniform(n) < 0.4
            dead[::shape[0]] = False  # every row keeps a finite logit
            theta[dead] = -np.inf
            self._assert_accurate(shape, theta)

    def test_logits_near_max_float(self, shape):
        # each row's logits are of one sign and 0.9e308 to 1.7e308 in size,
        # with some of moderate size among them, so no difference of two
        # logits overflows
        rng = SeededRng(42)
        n = self._struct(shape).n_params
        for _ in range(5):
            sign = np.where(rng.uniform(n // shape[0]) < 0.5, -1.0, 1.0).repeat(shape[0])
            theta = sign * (0.9 + 0.8 * rng.uniform(n)) * 1e308
            moderate = rng.uniform(n) < 0.3
            theta[moderate] = rng.normal(n, sigma=3.0)[moderate]
            self._assert_accurate(shape, theta)


class TestVerifier:
    def test_valid_count(self):
        v = make_verifier_first_equals_last(SPACE)
        assert v.mask.sum() == 9

    def test_membership(self):
        v = make_verifier_first_equals_last(SPACE)
        outs = SPACE.outcomes()
        assert v.mask[outs.index((0, 1, 0))]
        assert not v.mask[outs.index((0, 1, 2))]

    def test_uniform_validity(self):
        v = make_verifier_first_equals_last(SPACE)
        u = FiniteDistribution.uniform(SPACE.outcomes())
        assert float(u.probs @ v.values) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_needs_length_two(self):
        with pytest.raises(ValueError):
            make_verifier_first_equals_last(SequenceSpace(3, 1))


class TestRandomBaseModel:
    def test_deterministic(self):
        a = random_base_model(SPACE, 7, DEFAULT_SIGMA)
        b = random_base_model(SPACE, 7, DEFAULT_SIGMA)
        assert np.array_equal(a.logits, b.logits)

    def test_small_sigma_near_uniform(self):
        pol = random_base_model(SPACE, seed=3, sigma=1e-6)
        v = make_verifier_first_equals_last(SPACE)
        d = to_distribution(pol)
        assert float(d.probs @ v.values) == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_a1_band_across_seeds(self):
        v = make_verifier_first_equals_last(SPACE)
        for seed in range(1, 9):
            d = to_distribution(random_base_model(SPACE, seed, DEFAULT_SIGMA))
            a1 = float(d.probs @ v.values)
            assert 0.20 <= a1 <= 0.47

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            random_base_model(SPACE, seed=1, sigma=0.0)


class TestGradients:
    def test_j_beta_matches_finite_differences(self):
        _, _, _, fam, _ = toy_setup()
        for seed in (2, 3):
            pol = NGramPolicy(SPACE, bigram_orders(SPACE),
                              SeededRng(seed).normal(21))
            err = verify_gradients(pol, JBetaObjective(fam, beta=0.2))
            assert err < 1e-7

    def test_forward_kl_matches_finite_differences(self):
        _, _, _, _, pstar = toy_setup()
        for seed in (2, 3):
            pol = NGramPolicy(SPACE, bigram_orders(SPACE),
                              SeededRng(seed).normal(21))
            err = verify_gradients(pol, ForwardKLObjective(pstar))
            assert err < 1e-7

    @pytest.mark.parametrize("orders", [bigram_orders, full_orders],
                             ids=["bigram", "full"])
    def test_tvd_subgradient_matches_finite_differences(self, orders):
        # TVD kinks where q_s = p*_s > 0 (q_s > 0 = p*_s is no kink); away
        # from them TVD is smooth and the analytic subgradient is its gradient
        _, _, _, _, pstar = toy_setup()
        n_params = ngram._structure(SPACE, orders(SPACE)).n_params
        for seed in (4, 5, 6):
            pol = NGramPolicy(SPACE, orders(SPACE), SeededRng(seed).normal(n_params))
            q = to_distribution(pol).probs
            assert np.abs(q - pstar.probs)[pstar.probs > 0].min() > 1e-3
            obj, struct = TVDObjective(pstar), pol._struct
            fd = ngram.central_difference(lambda t: obj.value_theta(struct, t),
                                          pol.logits)
            # atol covers the difference's round-off (eps / FD_STEP) on the
            # components that vanish analytically
            np.testing.assert_allclose(obj.grad_theta(struct, pol.logits), fd,
                                       rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("orders", [bigram_orders, full_orders],
                             ids=["bigram", "full"])
    @pytest.mark.parametrize("name", ["j_beta", "forward_kl", "tvd"])
    def test_central_difference_matches_loop(self, name, orders):
        _, _, _, fam, pstar = toy_setup()
        obj = {"j_beta": JBetaObjective(fam, beta=0.2),
               "forward_kl": ForwardKLObjective(pstar),
               "tvd": TVDObjective(pstar)}[name]
        pol = NGramPolicy(SPACE, orders(SPACE), SeededRng(6).normal(
            ngram._structure(SPACE, orders(SPACE)).n_params))
        struct, theta = pol._struct, pol.logits
        fd = loop_central_difference(obj, struct, theta, FD_STEP)
        assert np.array_equal(ngram.central_difference(
            lambda t: obj.value_theta(struct, t), theta), fd)
        # verify_gradients' error, written out on the loop's difference
        analytic = obj.grad_theta(struct, theta)
        f = obj.value_theta(struct, theta)
        logq = ngram._log_probs(struct, ngram._log_softmax(struct, theta))
        scale = max(abs(f), np.abs(logq[logq > -np.inf]).max())
        round_off = max(np.finfo(float).eps * scale / FD_STEP, 1e-12)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-12)
        err = np.abs(analytic - fd) / denom
        err[(np.abs(analytic) < 1e-12) & (np.abs(fd) < round_off)] = 0.0
        assert verify_gradients(pol, obj) == float(err.max())

    def test_central_difference_steps_by_fd_step(self):
        theta = np.array([0.3, -1.2, 2.0])
        points = []

        def f(t):
            points.append(t.copy())
            return float(t @ t)

        fd = ngram.central_difference(f, theta)
        assert len(points) == 2 * theta.shape[0]
        for i in range(theta.shape[0]):
            e = np.zeros_like(theta)
            e[i] = FD_STEP
            assert np.array_equal(points[2 * i], theta + e)
            assert np.array_equal(points[2 * i + 1], theta - e)
        np.testing.assert_allclose(fd, 2.0 * theta, rtol=1e-9)

    def test_forward_kl_zero_gradient_at_optimum(self):
        # well-specified target: the projection is stationary
        target = to_distribution(random_base_model(SPACE, 8, DEFAULT_SIGMA))
        proj = conditional_projection(target, SPACE, full_orders(SPACE))
        g = ForwardKLObjective(target).grad_theta(proj._struct, proj.logits)
        assert np.abs(g).max() < 1e-8

    def test_forward_kl_convex_along_segments(self):
        _, _, _, _, pstar = toy_setup()
        obj = ForwardKLObjective(pstar)
        rng = SeededRng(21)
        for _ in range(20):
            a = rng.normal(21, sigma=2.0)
            b = rng.normal(21, sigma=2.0)
            pa = NGramPolicy(SPACE, bigram_orders(SPACE), a)
            pb = pa.with_logits(b)
            pm = pa.with_logits(0.5 * (a + b))
            mid = obj.value_theta(pm._struct, pm.logits)
            avg = 0.5 * (obj.value_theta(pa._struct, pa.logits)
                         + obj.value_theta(pb._struct, pb.logits))
            assert mid <= avg + 1e-10

    def test_space_mismatch_rejected(self):
        # every objective built on another space's target refuses a policy
        # of this space, from its value and from its gradient
        other = SequenceSpace(2, 3)
        target = FiniteDistribution.uniform(other.outcomes())
        fam = TiltedFamily(target, make_verifier_first_equals_last(other))
        pol = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
        for obj in (JBetaObjective(fam, beta=0.2), ForwardKLObjective(target),
                    TVDObjective(target)):
            for method in (obj.value_theta, obj.grad_theta):
                with pytest.raises(ValueError, match="^objective target does not "
                                   "match the policy's space$"):
                    method(pol._struct, pol.logits)


class TestVerifyGradients:
    def test_guarded_zero_components(self):
        # at the uniform template every forward-KL gradient component is
        # tiny-but-nonzero except none; construct a symmetric case where
        # some components vanish and confirm the guard reports 0 for them
        target = to_distribution(NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21)))
        template = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
        err = verify_gradients(template, ForwardKLObjective(target))
        assert err == 0.0

    @pytest.mark.parametrize("dead", [False, True], ids=["uniform", "zero_q"])
    def test_guard_keeps_a_real_miss(self, dead):
        # an analytic 0 against a central difference of 1e-8, far above its
        # round-off eps * max(|f|, max|log q|) / h = 7.3e-11, is a miss; a
        # -inf logit, whose sequences have log q = -inf, does not widen it
        class Slope:
            def value_theta(self, struct, theta):
                return 1e-8 * float(theta[0])

            def grad_theta(self, struct, theta):
                return np.zeros_like(theta)

        logits = np.zeros(21)
        logits[20] = -np.inf if dead else 0.0
        template = NGramPolicy(SPACE, bigram_orders(SPACE), logits)
        assert verify_gradients(template, Slope()) == pytest.approx(1.0, abs=1e-6)

    def test_round_off_zero_component(self):
        # component 30 is 0.0 analytically and -5.6e-12 by central
        # difference, below the difference's round-off
        # eps * max(|f|, max |log q_s|) / h = 1.6e-10;
        # a fixed 1e-12 guard reported relative error 1.0 there
        _, _, _, _, pstar = toy_setup(1)
        pol = NGramPolicy(SPACE, full_orders(SPACE), SeededRng(5).normal(39))
        assert verify_gradients(pol, TVDObjective(pstar)) < 1e-7


class TestConditionalProjection:
    def test_full_order_reproduces_strictly_positive_target(self):
        target = to_distribution(random_base_model(SPACE, 6, DEFAULT_SIGMA))
        proj = conditional_projection(target, SPACE, full_orders(SPACE))
        assert total_variation(to_distribution(proj), target) < 1e-12

    def test_projection_beats_random_bigram(self):
        base_pol, base, _, _, _ = toy_setup()
        proj = project_policy(base_pol, bigram_orders(SPACE))
        rand = NGramPolicy(SPACE, bigram_orders(SPACE), SeededRng(2).normal(21))
        kl_proj = kl_divergence_finite(base, to_distribution(proj))
        kl_rand = kl_divergence_finite(base, to_distribution(rand))
        assert kl_proj < kl_rand

    def test_projection_is_forward_kl_stationary(self):
        base_pol, base, _, _, _ = toy_setup()
        proj = project_policy(base_pol, bigram_orders(SPACE))
        g = ForwardKLObjective(base).grad_theta(proj._struct, proj.logits)
        assert np.abs(g).max() < 1e-10

    def test_zero_mass_targets_get_exact_zeros(self):
        _, _, _, _, pstar = toy_setup()
        proj = conditional_projection(pstar, SPACE, full_orders(SPACE))
        q = to_distribution(proj)
        # the projection of the filtered model reproduces it, zeros included
        assert kl_divergence_finite(pstar, q) < 1e-12
        assert np.all(q.probs[pstar.probs == 0.0] == 0.0)

    def test_order_monotonicity(self):
        # richer families project at least as close, seed by seed
        for seed in range(1, 9):
            _, _, _, _, pstar = toy_setup(seed)
            big = conditional_projection(pstar, SPACE, bigram_orders(SPACE))
            full = conditional_projection(pstar, SPACE, full_orders(SPACE))
            kl_big = kl_divergence_finite(pstar, to_distribution(big))
            kl_full = kl_divergence_finite(pstar, to_distribution(full))
            assert kl_full <= kl_big + 1e-12

    def test_bigram_cannot_reach_filtered_model(self):
        for seed in range(1, 9):
            _, _, _, _, pstar = toy_setup(seed)
            big = conditional_projection(pstar, SPACE, bigram_orders(SPACE))
            assert kl_divergence_finite(pstar, to_distribution(big)) > 0.3


class _PerBlockReference:
    """The per-position kernels the flat (R, V) kernel replaced, kept as its
    oracle: one softmax block, one gather and one bincount per position."""

    def __init__(self, space, context_lengths):
        V = space.vocab_size
        seqs = np.array(space.outcomes(), dtype=np.intp)
        self.block_shapes = [(V ** c, V) for c in context_lengths]
        self.offsets = np.concatenate(
            [[0], np.cumsum([nc * V for nc, V in self.block_shapes])])
        self.n_params = int(self.offsets[-1])
        self.ctx, self.tok, self.flat = [], [], []
        for t, c in enumerate(context_lengths):
            ctx = np.zeros(space.n_sequences, dtype=np.intp)
            for k in range(c):
                ctx = ctx * V + seqs[:, t - c + k]
            self.ctx.append(ctx)
            self.tok.append(seqs[:, t].copy())
            self.flat.append(ctx * V + seqs[:, t])

    def log_softmax_blocks(self, theta):
        out = []
        for t, (nc, V) in enumerate(self.block_shapes):
            z = theta[self.offsets[t]:self.offsets[t + 1]].reshape(nc, V)
            out.append(z - np.logaddexp.reduce(z, axis=-1, keepdims=True))
        return out

    def probs(self, theta):
        lsm = self.log_softmax_blocks(theta)
        logq = lsm[0][self.ctx[0], self.tok[0]].copy()
        for t in range(1, len(lsm)):
            logq += lsm[t][self.ctx[t], self.tok[t]]
        return np.exp(logq)

    def grad_weighted_logprob(self, theta, w):
        lsm = self.log_softmax_blocks(theta)
        grad = np.empty(self.n_params)
        for t, (nc, V) in enumerate(self.block_shapes):
            sw = np.bincount(self.flat[t], weights=w, minlength=nc * V).reshape(nc, V)
            g = sw - np.exp(lsm[t]) * sw.sum(axis=1, keepdims=True)
            grad[self.offsets[t]:self.offsets[t + 1]] = g.ravel()
        return grad

    def projection_logits(self, p):
        logits = np.empty(self.n_params)
        for t, (nc, V) in enumerate(self.block_shapes):
            joint = np.bincount(self.flat[t], weights=p,
                                minlength=nc * V).reshape(nc, V)
            row = joint.sum(axis=1, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.where(row > 0, joint / np.where(row > 0, row, 1.0), 1.0 / V)
                logits[self.offsets[t]:self.offsets[t + 1]] = np.log(cond).ravel()
        return logits

    def tvd_grad(self, theta, p):
        q = self.probs(theta)
        return self.grad_weighted_logprob(theta, 0.5 * np.sign(q - p) * q)


ORACLE_ORDERS = {
    "unigram": lambda space: (0,) * space.length,
    "bigram": bigram_orders,
    "full": full_orders,
}
# (V, T) of the oracle spaces; 7 is the widest row that add.reduce sums in
# index order, the order of the flat kernel's bincount sums
ORACLE_SHAPES = [(3, 3), (2, 4), (4, 2), (7, 2), (3, 4)]


@pytest.mark.parametrize("order", sorted(ORACLE_ORDERS))
@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
class TestFlatKernelMatchesPerBlockReference:
    """The flat kernel is bit-identical to the per-position loops it replaced."""

    def _setup(self, shape, order):
        space = SequenceSpace(*shape)
        orders = ORACLE_ORDERS[order](space)
        struct = ngram._structure(space, orders)
        ref = _PerBlockReference(space, orders)
        assert struct.n_params == ref.n_params
        return space, orders, struct, ref, SeededRng(31 + sum(orders))

    def test_probs(self, shape, order):
        _, _, struct, ref, rng = self._setup(shape, order)
        for _ in range(5):
            theta = rng.normal(struct.n_params, sigma=2.0)
            assert np.array_equal(ngram._probs(struct, theta), ref.probs(theta))

    def test_grad_weighted_logprob(self, shape, order):
        space, _, struct, ref, rng = self._setup(shape, order)
        for _ in range(5):
            theta = rng.normal(struct.n_params, sigma=2.0)
            w = rng.normal(space.n_sequences)
            lsm = ngram._log_softmax(struct, theta)
            assert np.array_equal(ngram._grad_weighted_logprob(struct, lsm, w),
                                  ref.grad_weighted_logprob(theta, w))

    def test_j_beta_grad_theta_equals_two_pass_form(self, shape, order):
        # one log-softmax per gradient gives the same bits as the form that
        # recomputed it from the logits for the weighted-logprob gradient
        space, _, struct, ref, rng = self._setup(shape, order)
        w = rng.uniform(space.n_sequences) + 0.1
        base = FiniteDistribution(space.outcomes(), w / w.sum())
        obj = JBetaObjective(TiltedFamily(base, RewardFn(rng.uniform(space.n_sequences))), 0.3)
        for _ in range(3):
            theta = rng.normal(struct.n_params, sigma=2.0)
            logq = ngram._log_probs(struct, ngram._log_softmax(struct, theta))
            q = np.exp(logq)
            w = q * (obj._r - obj.beta * (logq - obj._log_base))
            assert np.array_equal(obj.grad_theta(struct, theta),
                                  ref.grad_weighted_logprob(theta, w))

    def test_tvd_subgradient_equals_two_pass_form(self, shape, order):
        # the subgradient gives the bits of the helpers' two-pass form, also
        # at -inf logits such as _polish_tvd leaves, where fit_tvd takes its
        # final gradient norm
        space, _, struct, _, rng = self._setup(shape, order)
        p = rng.uniform(space.n_sequences)
        p /= p.sum()
        thetas = [rng.normal(struct.n_params, sigma=2.0) for _ in range(3)]
        # one -inf per row at most, so that every row keeps some mass
        thetas[-1][::space.vocab_size + 1] = -np.inf
        for theta in thetas:
            lsm = ngram._log_softmax(struct, theta)
            q = np.exp(ngram._log_probs(struct, lsm))
            two_pass = ngram._grad_weighted_logprob(struct, lsm,
                                                    0.5 * np.sign(q - p) * q)
            grad = ngram._tvd_subgradient(struct, theta, p)
            assert np.array_equal(grad, two_pass)
            assert np.isfinite(grad).all()

    def test_descent_gradients_at_large_and_non_finite_logits(self, shape, order):
        # logits of sizes 1 to 1e3, where summing a row in another order
        # changes its last bits, and with a nan, a +inf and a -inf entry:
        # _gradient_run aborts on a non-finite gradient, so a nan or +inf
        # logit must give one; both descent gradients give the bits of the
        # helpers' two-pass form, sign bits included
        space, _, struct, _, rng = self._setup(shape, order)
        n = struct.n_params
        w = rng.uniform(space.n_sequences) + 0.1
        base = FiniteDistribution(space.outcomes(), w / w.sum())
        obj = JBetaObjective(TiltedFamily(base, RewardFn(rng.uniform(space.n_sequences))), 0.3)
        p = rng.uniform(space.n_sequences)
        p /= p.sum()
        thetas = [size * (2.0 * rng.uniform(n) - 1.0)
                  for size in (1.0, 10.0, 100.0, 1e3, 3.0, 3.0, 3.0)]
        for theta, bad in zip(thetas[4:], ((np.nan,), (np.inf,), (np.nan, np.inf, -np.inf))):
            theta[(3 * np.arange(len(bad)) + 1) % n] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            for theta in thetas:
                lsm = ngram._log_softmax(struct, theta)
                logq = ngram._log_probs(struct, lsm)
                q = np.exp(logq)
                f = obj._r - obj.beta * (logq - obj._log_base)
                aborts = np.isnan(theta).any() or np.isposinf(theta).any()
                for grad, weights in ((obj.grad_theta(struct, theta), q * f),
                                      (ngram._tvd_subgradient(struct, theta, p),
                                       0.5 * np.sign(q - p) * q)):
                    two_pass = ngram._grad_weighted_logprob(struct, lsm, weights)
                    assert np.array_equal(grad, two_pass, equal_nan=True)
                    assert np.array_equal(np.signbit(grad), np.signbit(two_pass))
                    assert np.isfinite(grad).all() != aborts

    def test_conditional_projection_logits(self, shape, order):
        space, orders, _, ref, rng = self._setup(shape, order)
        p = rng.uniform(space.n_sequences)
        # zero mass on the sequences whose first token is 0, so that some
        # logits are -inf and some contexts get the uniform conditional
        p[:space.n_sequences // space.vocab_size] = 0.0
        target = FiniteDistribution(space.outcomes(), p / p.sum())
        logits = conditional_projection(target, space, orders).logits
        assert np.isneginf(logits).any()
        assert np.array_equal(logits, ref.projection_logits(target.probs))

    def test_tvd_grad_theta(self, shape, order):
        space, _, struct, ref, rng = self._setup(shape, order)
        p = rng.uniform(space.n_sequences)
        target = FiniteDistribution(space.outcomes(), p / p.sum())
        obj = TVDObjective(target)
        for _ in range(3):
            theta = rng.normal(struct.n_params, sigma=2.0)
            assert np.array_equal(obj.grad_theta(struct, theta),
                                  ref.tvd_grad(theta, target.probs))


def _wide_range_values(rng, n):
    """n values of both signs and magnitudes 1e-300 to 1e300, with some
    signed zeros, nan and +-inf entries."""
    x = 10.0 ** (600.0 * rng.uniform(n) - 300.0) * np.sign(rng.uniform(n) - 0.5)
    pick = rng.uniform(n)
    for lo, value in enumerate((np.nan, np.inf, -np.inf, 0.0, -0.0)):
        x[(pick >= 0.01 * lo) & (pick < 0.01 * (lo + 1))] = value
    return x


@pytest.mark.parametrize("length", [2, 3, 4])
@pytest.mark.parametrize("vocab_size", [2, 3, 4, 5, 6, 7])
def test_bincount_sums_in_add_reduce_order(vocab_size, length):
    # the flat kernel sums rows and sequences with bincount, and keeps the
    # bits of the per-block and old-spelling oracles, which sum with
    # add.reduce, only because the two add in the same order here: each
    # bin's entries in index order from 0.0, on rows of fewer than 8
    # entries and along the T axis
    rng = SeededRng(100 * vocab_size + length)
    n_rows, n_seqs = 50, 40
    row_of_flat = np.repeat(np.arange(n_rows), vocab_size)
    seq_of_flat = np.tile(np.arange(n_seqs), length)
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(100):
            x = _wide_range_values(rng, n_rows * vocab_size)
            y = _wide_range_values(rng, length * n_seqs)
            for want, got in ((np.add.reduce(x.reshape(n_rows, vocab_size), 1),
                               np.bincount(row_of_flat, x, n_rows)),
                              (np.add.reduce(y.reshape(length, n_seqs), -2),
                               np.bincount(seq_of_flat, y, n_seqs))):
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("vocab_size", range(2, 17))
def test_logaddexp_reduceat_matches_reduce_per_row(vocab_size):
    # the kernel takes every row's log-sum-exp, over all copies at once, by
    # one logaddexp.reduceat, and keeps the bits of the per-block and
    # old-spelling oracles, which take logaddexp.reduce along each row, only
    # because the two reduce a row in the same order at every row width and
    # copy count.  Each row's logits have a scale of 0.5, 3, 30 or 300, and
    # a fifth of all entries are -inf
    rng = SeededRng(900 + vocab_size)
    n_rows, max_copies = 3, 64
    scales = np.array([0.5, 3.0, 30.0, 300.0])
    row_scale = scales[(4 * rng.uniform(max_copies * n_rows)).astype(int)]
    x = rng.normal(row_scale.size * vocab_size) * row_scale.repeat(vocab_size)
    x[rng.uniform(x.size) < 0.2] = -np.inf
    for copies in range(1, max_copies + 1):
        flat = x[:copies * n_rows * vocab_size]
        want = np.logaddexp.reduce(flat.reshape(-1, vocab_size), axis=-1)
        got = np.logaddexp.reduceat(flat, np.arange(0, flat.size, vocab_size))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", range(1, 41))
def test_accumulate_sums_left_to_right(n):
    # the TVD fill takes each token's total as the last entry of
    # add.accumulate over its n terms, and keeps the bits of the oracle's
    # loop only because accumulate adds left to right at every n, where
    # add.reduce sums 8 or more entries pairwise.  Values span 1e-320 to
    # 1e300, so the order of the additions shows in the bits; a fifth are
    # 0, at any place, and a tenth subnormal
    rng = SeededRng(700 + n)
    shape = (3, 4, n)
    for _ in range(20):
        c = 10.0 ** (620.0 * rng.uniform(12 * n) - 320.0)
        pick = rng.uniform(c.size)
        c[pick < 0.2] = 0.0
        tiny = (pick >= 0.2) & (pick < 0.3)
        c[tiny] = 5e-324 * np.ceil(1e4 * rng.uniform(c.size)[tiny])
        c = c.reshape(shape)
        want = np.empty(shape[:2])
        for index in np.ndindex(*shape[:2]):
            total = 0.0
            for x in c[index]:
                total += x
            want[index] = total
        got = np.add.accumulate(c, 2)[..., -1]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("order", sorted(ORACLE_ORDERS))
@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_undispatched_bincount_matches_bincount(shape, order):
    # the kernel calls bincount's C function, below numpy's dispatcher; on
    # each of the kernel's maps it gives np.bincount's bits, nan and +-inf
    # weights included, and still rejects a negative index
    assert ngram._bincount is not np.bincount
    space = SequenceSpace(*shape)
    struct = ngram._structure(space, ORACLE_ORDERS[order](space))
    rng = SeededRng(41 + struct.n_params)
    with np.errstate(invalid="ignore", over="ignore"):
        for keys, n_bins in ((struct.row_of_flat, struct.n_rows),
                             (struct.seq_of_flat, struct.n_sequences),
                             (struct.flat_index, struct.n_params)):
            for i in range(10):
                w = _wide_range_values(rng, keys.shape[0])
                w[[i % w.shape[0], (i + 1) % w.shape[0], (i + 2) % w.shape[0]]] = (
                    np.nan, np.inf, -np.inf)
                got = ngram._bincount(keys, w, n_bins)
                want = np.bincount(keys, w, n_bins)
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))
    with pytest.raises(ValueError):
        ngram._bincount(np.array([0, -1]), None, 2)


@pytest.mark.parametrize("orders", [bigram_orders, full_orders], ids=["bigram", "full"])
@pytest.mark.parametrize("beta", [1e-3, 0.2, 7.0, 1e3])
def test_j_beta_gradient_keeps_the_float_beta_bits(beta, orders):
    # the gradient multiplies by the 0-d array obj._beta; it is read-only
    # and gives the bits of the composition written with the float obj.beta
    _, _, _, fam, _ = toy_setup()
    obj = JBetaObjective(fam, beta)
    assert type(obj.beta) is float and obj._beta.shape == ()
    assert obj._beta == obj.beta and not obj._beta.flags.writeable
    with pytest.raises(ValueError):
        obj._beta[()] = 1.0
    struct = ngram._structure(SPACE, orders(SPACE))
    rng = SeededRng(43)
    for _ in range(5):
        theta = rng.normal(struct.n_params, sigma=2.0)
        lsm = ngram._log_softmax(struct, theta)
        logq = ngram._log_probs(struct, lsm)
        weights = np.exp(logq) * (obj._r - obj.beta * (logq - obj._log_base))
        assert np.array_equal(obj.grad_theta(struct, theta),
                              ngram._grad_weighted_logprob(struct, lsm, weights))


@pytest.mark.parametrize("order", sorted(ORACLE_ORDERS))
def test_descent_gradients_at_vocab_8_match_helpers_to_round_off(order):
    # from 8 entries on, add.reduce sums a row pairwise while bincount adds
    # it in index order, so at V = 8 the flat kernel's row sums can differ
    # from the per-block oracle's in the last bits; no program path has
    # V != 3.  Both descent gradients are still the helpers' composition.
    space = SequenceSpace(8, 2)
    orders = ORACLE_ORDERS[order](space)
    struct = ngram._structure(space, orders)
    ref = _PerBlockReference(space, orders)
    rng = SeededRng(31)
    n = space.n_sequences
    w = rng.uniform(n) + 0.1
    base = FiniteDistribution(space.outcomes(), w / w.sum())
    obj = JBetaObjective(TiltedFamily(base, RewardFn(rng.uniform(n))), 0.3)
    p = rng.uniform(n)
    p /= p.sum()
    bit_equal = []
    for _ in range(5):
        theta = rng.normal(struct.n_params, sigma=2.0)
        lsm = ngram._log_softmax(struct, theta)
        logq = ngram._log_probs(struct, lsm)
        q = np.exp(logq)
        for grad, weights in ((obj.grad_theta(struct, theta),
                               q * (obj._r - obj.beta * (logq - obj._log_base))),
                              (ngram._tvd_subgradient(struct, theta, p),
                               0.5 * np.sign(q - p) * q)):
            assert np.array_equal(grad, ngram._grad_weighted_logprob(struct, lsm, weights))
            per_block = ref.grad_weighted_logprob(theta, weights)
            assert np.allclose(grad, per_block, rtol=0.0,
                               atol=1e-13 * np.abs(per_block).max())
            bit_equal.append(np.array_equal(grad, per_block))
    assert not all(bit_equal)


@pytest.mark.parametrize("order", sorted(ORACLE_ORDERS))
def test_probs_and_projection_at_vocab_8_match_per_block_to_round_off(order):
    # the flat log-softmax and conditional_projection also sum each row in
    # index order, where the per-block oracle sums a row of 8 pairwise; the
    # probabilities and the projection's logits stay within round-off of it
    # and keep its -inf logits exactly
    space = SequenceSpace(8, 2)
    orders = ORACLE_ORDERS[order](space)
    struct = ngram._structure(space, orders)
    ref = _PerBlockReference(space, orders)
    rng = SeededRng(37)
    for _ in range(5):
        theta = rng.normal(struct.n_params, sigma=2.0)
        assert np.allclose(ngram._probs(struct, theta), ref.probs(theta),
                           rtol=1e-13, atol=0.0)
    p = rng.uniform(space.n_sequences)
    p[:space.n_sequences // space.vocab_size] = 0.0
    target = FiniteDistribution(space.outcomes(), p / p.sum())
    logits = conditional_projection(target, space, orders).logits
    want = ref.projection_logits(target.probs)
    assert np.array_equal(np.isneginf(logits), np.isneginf(want))
    finite = np.isfinite(want)
    assert np.allclose(logits[finite], want[finite], rtol=0.0, atol=1e-13)


# The kernels as first spelled on the (R, V) array, with np.tile, reshapes
# and .sum reductions, kept as the flat kernel's oracle: the same arithmetic
# in the same order at V <= 7, so the same bits.


def old_scatter(struct, w):
    return np.bincount(struct.index.ravel(), weights=np.tile(w, struct.space.length),
                       minlength=struct.n_params).reshape(-1, struct.space.vocab_size)


def old_log_softmax(struct, theta):
    z = theta.reshape(*theta.shape[:-1], -1, struct.space.vocab_size)
    return (z - np.logaddexp.reduce(z, axis=-1, keepdims=True)).reshape(theta.shape)


def old_log_probs(struct, lsm):
    return np.take(lsm, struct.index, axis=-1).sum(axis=-2)


def old_grad_weighted_logprob(struct, lsm, w):
    sw = old_scatter(struct, w)
    q = np.exp(lsm).reshape(sw.shape)
    return (sw - q * sw.sum(axis=1, keepdims=True)).ravel()


def old_tvd(struct, theta, p):
    q = np.exp(old_log_probs(struct, old_log_softmax(struct, theta)))
    return 0.5 * np.abs(q - p).sum()


def old_row_tvd_argmin(c, p, tok, vocab_size):
    """The row minimizer as first written on numpy arrays, terms in any token
    order, c_s > 0; a token's starting slope sums its c left to right."""
    segments = []  # (slope, token, length)
    for v in range(vocab_size):
        on = tok == v
        kinks = p[on] / c[on]
        order = np.argsort(kinks, kind="stable")
        total = 0.0
        for weight in c[on]:
            total += weight
        slope, left = -total, 0.0
        for kink, weight in zip(kinks[order], c[on][order]):
            segments.append((slope, v, kink - left))
            slope, left = slope + 2.0 * weight, kink
        segments.append((slope, v, np.inf))
    x = np.zeros(vocab_size)
    budget = 1.0
    for _, v, length in sorted(segments, key=lambda seg: seg[:2]):
        take = min(length, budget)
        x[v] += take
        budget -= take
        if budget <= 0.0:
            break
    return x


def row_argmin(c, p, tok, vocab_size):
    """ngram._row_tvd_argmin on one copy's terms in any token order: each
    token's terms in their order, padded with dead terms (c = 0) to the
    longest token's count."""
    width = max(np.bincount(tok, minlength=vocab_size).max(), 1)
    cs, ps = np.zeros((vocab_size, width)), np.zeros((vocab_size, width))
    for v in range(vocab_size):
        on = tok == v
        cs[v, :on.sum()], ps[v, :on.sum()] = c[on], p[on]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return ngram._row_tvd_argmin(cs[None], ps)[0]


def old_polish_run(struct, theta, p):
    """The row polish that recomputed every row's log-softmax for each row
    update and each TVD value; returns (logits, TVD there, sweeps run,
    whether the sweep cap stopped it)."""
    V = struct.space.vocab_size
    row_of = struct.index // V
    row_data = []
    for t in range(struct.space.length):
        others = np.delete(struct.index, t, axis=0)
        for r in range(row_of[t].min(), row_of[t].max() + 1):
            uses = np.flatnonzero(row_of[t] == r)
            row_data.append((r, p[uses], struct.index[t, uses] % V, others[:, uses]))
    theta = theta.copy()
    rows = theta.reshape(-1, V)
    value = old_tvd(struct, theta, p)
    for sweep in range(1, ngram.POLISH_MAX_SWEEPS + 1):
        start_value = value
        for r, p_r, tok, others in row_data:
            c = np.exp(np.take(old_log_softmax(struct, theta), others).sum(axis=0))
            live = c > 0.0
            if not live.any():
                continue
            x = old_row_tvd_argmin(c[live], p_r[live], tok[live], V)
            old_row = rows[r].copy()
            with np.errstate(divide="ignore"):
                rows[r] = np.log(x)
            new_value = old_tvd(struct, theta, p)
            if new_value <= value:
                value = new_value
            else:
                rows[r] = old_row
        if start_value - value <= ngram.POLISH_TOL:
            return theta, value, sweep, False
    return theta, value, ngram.POLISH_MAX_SWEEPS, True


def old_polish_tvd(struct, theta, p):
    """old_polish_run's (logits, TVD there)."""
    return old_polish_run(struct, theta, p)[:2]


@pytest.mark.parametrize("order", sorted(ORACLE_ORDERS))
@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_lean_kernel_matches_old_spelling(shape, order):
    space = SequenceSpace(*shape)
    struct = ngram._structure(space, ORACLE_ORDERS[order](space))
    rng = SeededRng(41)
    for _ in range(5):
        theta = rng.normal(struct.n_params, sigma=2.0)
        w = rng.normal(space.n_sequences)
        lsm = ngram._log_softmax(struct, theta)
        assert np.array_equal(lsm, old_log_softmax(struct, theta))
        assert np.array_equal(ngram._log_probs(struct, lsm), old_log_probs(struct, lsm))
        assert np.array_equal(ngram._grad_weighted_logprob(struct, lsm, w),
                              old_grad_weighted_logprob(struct, lsm, w))


class TestSolversMatchOldSpelling:
    """The solvers' final logits equal serial loops through the old kernels."""

    def test_ascend_j_beta(self):
        _, _, _, fam, _ = toy_setup()
        template = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
        obj = JBetaObjective(fam, beta=0.2)
        struct, theta = template._struct, template.logits.copy()
        for _ in range(300):
            lsm = old_log_softmax(struct, theta)
            logq = old_log_probs(struct, lsm)
            q = np.exp(logq)
            theta += 0.1 * old_grad_weighted_logprob(
                struct, lsm, q * (obj._r - obj.beta * (logq - obj._log_base)))
        trace = ascend_j_beta(fam, template, OptimizerConfig(steps=300), beta=0.2)
        assert np.array_equal(trace.final_policy.logits, theta)

    @staticmethod
    def _old_fit_tvd(pstar, template, restarts, steps):
        """(TVD, restart index, logits) of the best restart, each a descent
        through the old kernels then old_polish_tvd."""
        struct, p = template._struct, pstar.probs
        best = None
        for i in range(restarts):
            theta = SeededRng(0).spawn(i).normal(template.n_params)
            for _ in range(steps):
                lsm = old_log_softmax(struct, theta)
                q = np.exp(old_log_probs(struct, lsm))
                theta -= 0.1 * old_grad_weighted_logprob(struct, lsm,
                                                         0.5 * np.sign(q - p) * q)
            theta, value = old_polish_tvd(struct, theta, p)
            if best is None or value < best[0]:
                best = (value, i, theta)
        return best

    def test_fit_tvd_with_polish(self):
        _, _, _, _, pstar = toy_setup()
        template = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
        best = self._old_fit_tvd(pstar, template, restarts=3, steps=400)
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=400, restarts=3))
        assert (trace.final_value, trace.restart_index) == best[:2]
        assert np.array_equal(trace.final_policy.logits, best[2])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fit_tvd_at_the_refit_budget(self, seed):
        # the 16 restarts of 1000 steps the tvd_refit benchmark workload runs
        _, _, _, _, pstar = toy_setup(seed)
        template = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
        value, index, theta = self._old_fit_tvd(pstar, template, restarts=16, steps=1000)
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=1000, restarts=16))
        assert (trace.final_value, trace.restart_index) == (value, index)
        assert np.array_equal(trace.final_policy.logits, theta)
        assert np.array_equal(np.signbit(trace.final_policy.logits), np.signbit(theta))


class TestTVDPolish:
    """The exact row minimizer behind the TVD fit's block-coordinate polish."""

    @staticmethod
    def _simplex_grid(n):
        return np.array([(i, j, n - i - j) for i in range(n + 1)
                         for j in range(n + 1 - i)], dtype=float) / n

    def test_row_argmin_matches_brute_force_grid(self):
        # V = 3: sum_s |c_s x[tok_s] - p_s| at the minimizer is no larger than
        # anywhere on a fine simplex grid, and the minimizer is on the simplex
        rng = SeededRng(17)
        grid = self._simplex_grid(300)
        for trial in range(20):
            m = 4 + trial % 6
            c = rng.uniform(m) + 0.05
            p = rng.uniform(m) * (rng.uniform(m) > 0.2)
            tok = np.arange(m) % 3
            x = row_argmin(c, p, tok, 3)
            assert np.all(x >= 0.0) and x.sum() == pytest.approx(1.0, abs=1e-15)
            cost = lambda xs: np.abs(c * xs[..., tok] - p).sum(axis=-1)
            assert cost(x) <= cost(grid).min() + 1e-12

    @staticmethod
    @st.composite
    def _row_terms(draw):
        """(c, p, tok, V) of one row: V from 2 to 5 and 1 to 40 terms, drawn
        from a pool of at most 6 (c, p) pairs, so that kinks tie, with
        c from 1e-300 to 1e3 or 0 and p = 0 or in (0, 1]; at least one c > 0."""
        vocab_size = draw(st.integers(2, 5))
        pool = draw(st.lists(st.tuples(
            st.one_of(st.just(0.0), st.floats(1e-300, 1e3)),
            st.one_of(st.just(0.0), st.floats(1e-300, 1.0))), min_size=1, max_size=6))
        n = draw(st.integers(1, 40))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        tok = draw(st.lists(st.integers(0, vocab_size - 1), min_size=n, max_size=n))
        c, p = np.array([pool[i] for i in picks]).T
        c[draw(st.integers(0, n - 1))] = draw(st.floats(1e-300, 1e3))
        return c, p, np.array(tok), vocab_size

    @FUZZ
    @given(terms=_row_terms())
    def test_row_argmin_matches_old_argmin(self, terms):
        # the same bits, sign bits included, as the numpy argmin on the
        # terms with c > 0, both summing a token's c left to right; tokens
        # with dead terms among their live ones are common at 40
        c, p, tok, vocab_size = terms
        live = c > 0.0
        want = old_row_tvd_argmin(c[live], p[live], tok[live], vocab_size)
        got = row_argmin(c, p, tok, vocab_size)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_row_argmin_matches_old_argmin_on_permuted_tokens(self):
        # every token holds the same 9 terms in its own order, 9 as on bigram
        # row 0, and its starting slope sums them left to right: exact
        # arithmetic would tie every token, so the fill follows the rounding
        # of each sum and the tie rules.  Kinks tie (p = 0), and c = 1e-300
        # leaves a slope unchanged, so segments of one token tie too (its
        # p is scaled with it, so that its kink is not at the far end).
        rng = SeededRng(29)
        for trial in range(300):
            vocab_size = 2 + trial % 4
            c = 10.0 ** (rng.uniform(9) * 6.0 - 3.0)
            p = rng.uniform(9) * (rng.uniform(9) > 0.3)
            c[trial % 9], p[trial % 9] = 1e-300, 1e-300 * p[trial % 9]
            perms = [np.argsort(rng.uniform(9)) for _ in range(vocab_size)]
            cs = np.concatenate([c[perm] for perm in perms])
            ps = np.concatenate([p[perm] for perm in perms])
            tok = np.repeat(np.arange(vocab_size), 9)
            want = old_row_tvd_argmin(cs, ps, tok, vocab_size)
            got = row_argmin(cs, ps, tok, vocab_size)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @staticmethod
    @st.composite
    def _row_batches(draw):
        """(c, p) of one row in a batch: 1 to 4 copies of V = 2 to 4 tokens
        with n = 1 to 12 terms each, c of shape (B, V, n) and p of (V, n).
        Each copy draws n values of c (the subnormals 5e-324 and 1e-310, or
        1e-300 to 1e3), and each of its tokens holds the first k of them,
        k from 0 to n, at random places in random order, 0 elsewhere: live
        counts differ by copy and by token, and the slopes of tokens with
        equal k tie in exact arithmetic, so the sums' rounding orders them.
        p comes from a pool of at most 4 values (0 or 1e-300 to 1), so
        kinks tie too."""
        copies, vocab_size, n = (draw(st.integers(1, 4)), draw(st.integers(2, 4)),
                                 draw(st.integers(1, 12)))
        value = st.one_of(st.sampled_from([5e-324, 1e-310]), st.floats(1e-300, 1e3))
        c = np.zeros((copies, vocab_size, n))
        for b in range(copies):
            terms = draw(st.lists(value, min_size=n, max_size=n))
            for v in range(vocab_size):
                k = draw(st.integers(0, n))
                c[b, v, draw(st.permutations(range(n)))[:k]] = terms[:k]
        p_pool = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)),
                               min_size=1, max_size=4))
        p = draw(st.lists(st.sampled_from(p_pool), min_size=vocab_size * n,
                          max_size=vocab_size * n))
        return c, np.reshape(p, (vocab_size, n))

    @FUZZ
    @given(batch=_row_batches())
    # two copies of 9 terms a token, dead terms placed differently, so
    # that live counts of 9, 8, 7 and 0 are summed left to right with
    # dead terms between them
    @example(batch=(np.array([[[.3, .1, 0., .2, .5, .1, .7, .2, .4], [.2] * 9, [0.] * 9],
                              [[.3, .1, .6, .2, .5, .1, .7, .2, .4], [0.] + [.2] * 8,
                               [.1, 0., .2, 0., .3, .1, .2, .1, .3]]]),
                    np.array([[.01, .02, 0., .03, .01, .05, .02, .01, .04]] * 3)))
    # a subnormal c with p > 0 puts a kink at +inf, before the dead terms
    @example(batch=(np.array([[[5e-324, .4, 0.], [.2, 1e-310, .3]],
                              [[.1, 5e-324, 5e-324], [0., .3, 0.]]]),
                    np.array([[.2, .1, .3], [.1, .2, .0]])))
    # equal c and p everywhere: every kink and every slope ties
    @example(batch=(np.full((2, 3, 4), .25), np.full((3, 4), 1 / 48)))
    def test_batched_fill_matches_old_argmin_per_copy(self, batch):
        # each copy's x has the bits, sign bits included, of the numpy
        # argmin on that copy's live terms, summed left to right
        c, p = batch
        copies, vocab_size, n = c.shape
        tok = np.repeat(np.arange(vocab_size), n)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            got = ngram._row_tvd_argmin(c, p)
            for b in range(copies):
                live = c[b].ravel() > 0.0
                want = old_row_tvd_argmin(c[b].ravel()[live], p.ravel()[live],
                                          tok[live], vocab_size)
                assert np.array_equal(got[b], want)
                assert np.array_equal(np.signbit(got[b]), np.signbit(want))

    def test_batched_fill_matches_old_argmin_on_permuted_live_terms(self):
        # as on permuted tokens, but each token of each copy keeps the first
        # k of its copy's 12 terms (k from 5 to 12), at random places among
        # 0s: tokens with equal k tie in exact arithmetic, and each token's
        # terms are summed left to right, a dead one adding an exact 0
        rng = SeededRng(37)
        for trial in range(200):
            copies, vocab_size = 1 + trial % 3, 2 + trial % 4
            c = np.zeros((copies, vocab_size, 12))
            for b in range(copies):
                terms = 10.0 ** (rng.uniform(12) * 6.0 - 3.0)
                for v in range(vocab_size):
                    k = 5 + int(rng.uniform(1)[0] * 8)
                    c[b, v, np.argsort(rng.uniform(12))[:k]] = terms[:k]
            p = rng.uniform(vocab_size * 12).reshape(vocab_size, 12)
            p *= rng.uniform(p.size).reshape(p.shape) > 0.3
            tok = np.repeat(np.arange(vocab_size), 12)
            with np.errstate(divide="ignore", invalid="ignore"):
                got = ngram._row_tvd_argmin(c, p)
            for b in range(copies):
                live = c[b].ravel() > 0.0
                want = old_row_tvd_argmin(c[b].ravel()[live], p.ravel()[live],
                                          tok[live], vocab_size)
                assert np.array_equal(got[b], want)
                assert np.array_equal(np.signbit(got[b]), np.signbit(want))

    def test_row_update_is_exact_for_the_full_tvd(self):
        # with every other row fixed, the polish's update of one row gives the
        # lowest TVD over a grid of that row's conditionals
        _, _, _, _, pstar = toy_setup()
        struct = ngram._structure(SPACE, bigram_orders(SPACE))
        theta = SeededRng(8).normal(struct.n_params)
        grid = self._simplex_grid(60)
        V = SPACE.vocab_size
        for t, r in ((0, 0), (1, 2), (2, 5)):
            uses = np.flatnonzero(struct.index[t] // V == r)
            others = np.delete(struct.index, t, axis=0)[:, uses]
            c = np.exp(np.take(ngram._log_softmax(struct, theta), others).sum(axis=0))
            x = row_argmin(c, pstar.probs[uses], struct.index[t, uses] % V, V)

            def tvd_with_row(cond):
                th = theta.copy()
                with np.errstate(divide="ignore"):
                    th[r * V:(r + 1) * V] = np.log(cond)
                return ngram._tvd(struct, ngram._log_softmax(struct, th), pstar.probs)[0]

            assert tvd_with_row(x) <= min(map(tvd_with_row, grid)) + 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_sweep_raises_tvd(self, seed, monkeypatch):
        # one sweep per call: the TVD after each is no higher than before it,
        # and the sweeps chained end where one uncapped polish ends
        _, _, _, _, pstar = toy_setup(seed)
        struct = ngram._structure(SPACE, bigram_orders(SPACE))
        start = SeededRng(seed).normal(struct.n_params)
        polish = lambda th: [out[0] for out in ngram._polish_tvd(struct, th[None], pstar.probs)]
        full_theta, full_value, full_sweeps, capped = polish(start)
        assert not capped and full_sweeps >= 2
        monkeypatch.setattr(ngram, "POLISH_MAX_SWEEPS", 1)
        tvd = lambda th: ngram._tvd(struct, ngram._log_softmax(struct, th), pstar.probs)[0]
        theta, value = start, tvd(start)
        for _ in range(full_sweeps):
            theta, new_value, sweeps, _ = polish(theta)
            assert sweeps == 1 and new_value <= value
            assert new_value == tvd(theta)
            value = new_value
        assert value == full_value
        assert np.array_equal(theta, full_theta)
        # an updated row holds log-conditionals, -inf where one is zero
        rows = theta.reshape(-1, SPACE.vocab_size)
        moved = np.any(rows != start.reshape(rows.shape), axis=1)
        assert moved.any() and np.isneginf(rows[moved]).any()
        assert np.allclose(np.exp(rows[moved]).sum(axis=1), 1.0, atol=1e-15)


def polish_target(space, seed):
    """p* of the toy instance on any space: the random base model
    conditioned on the first token equalling the last."""
    base = to_distribution(random_base_model(space, seed, DEFAULT_SIGMA))
    return condition(base, make_verifier_first_equals_last(space).mask).probs


def polish_starts(struct, copies, seed):
    """copies Gaussian starts at sigma 2.  In every other copy about a
    fifth of the logits are -inf, each row keeping its first one finite;
    copy 0 also has x0(0) = 0, which leaves every c of the bigram row for
    context 0 at position 1 at 0."""
    V = struct.space.vocab_size
    rng = SeededRng(seed)
    thetas = rng.normal(copies * struct.n_params, sigma=2.0).reshape(copies, -1, V)
    holes = rng.uniform(thetas.size).reshape(thetas.shape) < 0.2
    holes[1::2] = False
    holes[:, :, 0] = False
    thetas[holes] = -np.inf
    thetas[0, 0] = [-np.inf] + [0.5] * (V - 1)
    return thetas.reshape(copies, -1)


POLISH_ORDERS = {"unigram": ORACLE_ORDERS["unigram"], "bigram": bigram_orders}
POLISH_SHAPES = [(3, 3), (2, 4), (4, 2)]


class TestBatchedPolish:
    """The lockstep polish over stacked starts equals the serial polish of
    each copy, bit for bit."""

    @staticmethod
    def _assert_matches_serial(struct, thetas, p):
        got = ngram._polish_tvd(struct, thetas, p)
        assert [out.shape[0] for out in got] == [thetas.shape[0]] * 4
        for b, start in enumerate(thetas):
            theta, value, sweeps, capped = old_polish_run(struct, start, p)
            assert np.array_equal(got[0][b], theta)
            assert np.array_equal(np.signbit(got[0][b]), np.signbit(theta))
            assert got[1][b] == value and np.signbit(got[1][b]) == np.signbit(value)
            assert (got[2][b], got[3][b]) == (sweeps, capped)
        return got

    @pytest.mark.parametrize("copies", [1, 2, 16])
    @pytest.mark.parametrize("order", sorted(POLISH_ORDERS))
    @pytest.mark.parametrize("shape", POLISH_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_serial_polish(self, shape, order, copies):
        space = SequenceSpace(*shape)
        struct = ngram._structure(space, POLISH_ORDERS[order](space))
        thetas = polish_starts(struct, copies, seed=copies + shape[0])
        self._assert_matches_serial(struct, thetas, polish_target(space, 1))

    @pytest.mark.parametrize("order", sorted(POLISH_ORDERS))
    def test_matches_serial_polish_over_200_starts(self, order):
        struct = ngram._structure(SPACE, POLISH_ORDERS[order](SPACE))
        got = self._assert_matches_serial(struct, polish_starts(struct, 200, seed=5),
                                          toy_setup()[4].probs)
        # copies leave the batch at different sweeps
        assert len(set(got[2].tolist())) > 2

    @pytest.mark.parametrize("cap", [1, 2])
    @pytest.mark.parametrize("order", sorted(POLISH_ORDERS))
    def test_matches_serial_polish_at_the_sweep_cap(self, order, cap, monkeypatch):
        monkeypatch.setattr(ngram, "POLISH_MAX_SWEEPS", cap)
        struct = ngram._structure(SPACE, POLISH_ORDERS[order](SPACE))
        got = self._assert_matches_serial(struct, polish_starts(struct, 16, seed=3),
                                          toy_setup(2)[4].probs)
        assert got[3].any() and np.all(got[2][got[3]] == cap)

    def test_skips_a_row_whose_terms_are_all_zero(self):
        # p = 0 on every sequence that starts with token 0, so a copy's
        # first row update sets x0(0) = 0 unless round-off leaves it a
        # crumb of the budget.  Where it is 0, no sequence through the
        # position-1 row of context 0 has mass after it: that row is
        # skipped in every sweep and keeps its start logits
        struct = ngram._structure(SPACE, bigram_orders(SPACE))
        p = toy_setup()[4].probs.copy()
        p[:9] = 0.0
        p /= p.sum()
        thetas = polish_starts(struct, 16, seed=4)
        got = self._assert_matches_serial(struct, thetas, p)
        zero = np.isneginf(got[0][:, 0])
        assert zero.sum() >= 8
        assert np.array_equal(got[0][zero, 3:6], thetas[zero, 3:6])


MAP_NAMES = ("n_rows", "n_params", "n_sequences",
             "row_start", "row_of_flat", "flat_index", "seq_of_flat")


def old_one_copy_maps(space, context_lengths, index):
    """The kernel's maps as the structure spelled them before _Stack built
    them from the index alone: sizes from the context lengths and the
    space, maps by ravel, tile and repeat."""
    V, T, N = space.vocab_size, space.length, space.n_sequences
    n_rows = int(np.cumsum([0] + [V ** c for c in context_lengths])[-1])
    return {"n_rows": n_rows, "n_params": n_rows * V, "n_sequences": N,
            "row_start": np.arange(0, n_rows * V, V),
            "row_of_flat": np.repeat(np.arange(n_rows), V),
            "flat_index": index.ravel(),
            "seq_of_flat": np.tile(np.arange(N), T)}


@pytest.mark.parametrize("order", sorted(ORACLE_ORDERS))
@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_one_copy_maps_match_the_old_spelling(shape, order):
    space = SequenceSpace(*shape)
    V, T = shape
    orders = ORACLE_ORDERS[order](space)
    struct = ngram._structure(space, orders)
    want = old_one_copy_maps(space, orders, struct.index)
    for maps in (struct, ngram._Stack(space, struct.index)):
        for name in MAP_NAMES:
            got = getattr(maps, name)
            assert type(got) is type(want[name]), name
            if isinstance(got, np.ndarray):
                assert got.dtype == want[name].dtype, name
                assert np.array_equal(got, want[name]), name
            else:
                assert got == want[name], name
    assert struct.n_params == struct.n_rows * V == sum(V ** (c + 1) for c in orders)
    assert struct.n_sequences == V ** T


@pytest.mark.parametrize("order", sorted(ORACLE_ORDERS))
@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_stacked_maps_give_each_copy_its_own_bits(shape, order):
    space = SequenceSpace(*shape)
    struct = ngram._structure(space, ORACLE_ORDERS[order](space))
    thetas = SeededRng(43).normal(4 * struct.n_params, sigma=2.0).reshape(4, -1)
    thetas[1, ::5] = -np.inf
    for copies in (1, 3, 4):
        stack = ngram._Stack(space, struct.index, copies)
        lsm = ngram._log_softmax(stack, thetas[:copies].ravel()).reshape(copies, -1)
        logq = ngram._log_probs(stack, lsm.ravel()).reshape(copies, -1)
        for b in range(copies):
            want = ngram._log_softmax(struct, thetas[b])
            assert np.array_equal(lsm[b], want)
            assert np.array_equal(np.signbit(lsm[b]), np.signbit(want))
            assert np.array_equal(logq[b], ngram._log_probs(struct, want))
