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
    grad_objective,
    make_verifier_first_equals_last,
    objective_value,
    project_policy,
    random_base_model,
    to_distribution,
)
from klgeo.optimize import OptimizerConfig, ascend_j_beta, fit_tvd, verify_gradients
from klgeo.rng import SeededRng

SPACE = SequenceSpace(3, 3)


def toy_setup(seed=1):
    base_pol = random_base_model(SPACE, seed)
    base = to_distribution(base_pol)
    verifier = make_verifier_first_equals_last(SPACE)
    fam = TiltedFamily(base, verifier)
    pstar = condition(base, verifier.mask)
    return base_pol, base, verifier, fam, pstar


def loop_central_difference(obj, struct, theta, h):
    """The per-coordinate central difference that the shared batched one
    replaced, kept as its oracle."""
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
        shapes = [b.shape for b in pol.blocks()]
        assert shapes == [(1, 3), (3, 3), (3, 3)]

    def test_full_is_39(self):
        pol = NGramPolicy(SPACE, full_orders(SPACE), np.zeros(39))
        assert pol.n_params == 39
        shapes = [b.shape for b in pol.blocks()]
        assert shapes == [(1, 3), (3, 3), (9, 3)]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(20))

    def test_context_cannot_exceed_position(self):
        with pytest.raises(ValueError):
            NGramPolicy(SPACE, (1, 1, 1), np.zeros(27))


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
        pol = random_base_model(SPACE, seed=5)
        d = to_distribution(pol)
        b0, b1, b2 = [np.exp(b - np.log(np.exp(b).sum(axis=1, keepdims=True)))
                      for b in pol.blocks()]
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
        a = random_base_model(SPACE, seed=7)
        b = random_base_model(SPACE, seed=7)
        assert np.array_equal(a.logits, b.logits)

    def test_small_sigma_near_uniform(self):
        pol = random_base_model(SPACE, seed=3, sigma=1e-6)
        v = make_verifier_first_equals_last(SPACE)
        d = to_distribution(pol)
        assert float(d.probs @ v.values) == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_a1_band_across_seeds(self):
        v = make_verifier_first_equals_last(SPACE)
        for seed in range(1, 9):
            d = to_distribution(random_base_model(SPACE, seed))
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
        n_params = ngram._Structure.get(SPACE, orders(SPACE)).n_params
        for seed in (4, 5, 6):
            pol = NGramPolicy(SPACE, orders(SPACE), SeededRng(seed).normal(n_params))
            q = to_distribution(pol).probs
            assert np.abs(q - pstar.probs)[pstar.probs > 0].min() > 1e-3
            obj, struct = TVDObjective(pstar), pol._struct
            fd = ngram.central_difference(
                lambda thetas: np.array([obj.value_theta(struct, t) for t in thetas]),
                pol.logits, FD_STEP)
            # atol covers the difference's round-off (eps / FD_STEP) on the
            # components that vanish analytically
            np.testing.assert_allclose(grad_objective(pol, obj), fd,
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
            ngram._Structure.get(SPACE, orders(SPACE)).n_params))
        struct, theta = pol._struct, pol.logits
        fd = loop_central_difference(obj, struct, theta, FD_STEP)
        values = lambda thetas: np.array([obj.value_theta(struct, t) for t in thetas])
        assert np.array_equal(ngram.central_difference(values, theta, FD_STEP), fd)
        # verify_gradients' error, written out on the loop's difference
        analytic = grad_objective(pol, obj)
        f = obj.value_theta(struct, theta)
        round_off = max(np.finfo(float).eps * abs(f) / FD_STEP, 1e-12)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-12)
        err = np.abs(analytic - fd) / denom
        err[(np.abs(analytic) < 1e-12) & (np.abs(fd) < round_off)] = 0.0
        assert verify_gradients(pol, obj) == float(err.max())

    def test_forward_kl_zero_gradient_at_optimum(self):
        # well-specified target: the projection is stationary
        target = to_distribution(random_base_model(SPACE, seed=8))
        proj = conditional_projection(target, SPACE, full_orders(SPACE))
        g = grad_objective(proj, ForwardKLObjective(target))
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
            mid = objective_value(pm, obj)
            avg = 0.5 * (objective_value(pa, obj) + objective_value(pb, obj))
            assert mid <= avg + 1e-10

    def test_space_mismatch_rejected(self):
        target = FiniteDistribution.uniform(tuple(range(8)))
        pol = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
        with pytest.raises(ValueError):
            grad_objective(pol, ForwardKLObjective(target))


class TestConditionalProjection:
    def test_full_order_reproduces_strictly_positive_target(self):
        target = to_distribution(random_base_model(SPACE, seed=6))
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
        g = grad_objective(proj, ForwardKLObjective(base))
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
            m = z.max(axis=1, keepdims=True)
            e = np.exp(z - m)
            out.append((z - m) - np.log(e.sum(axis=1, keepdims=True)))
        return out

    def probs(self, theta):
        lsm = self.log_softmax_blocks(theta)
        logq = lsm[0][self.ctx[0], self.tok[0]].copy()
        for t in range(1, len(lsm)):
            logq += lsm[t][self.ctx[t], self.tok[t]]
        return np.exp(logq)

    def batched_probs(self, thetas):
        B = thetas.shape[0]
        logq = np.zeros((B, len(self.tok[0])))
        for t, (nc, V) in enumerate(self.block_shapes):
            z = thetas[:, self.offsets[t]:self.offsets[t + 1]].reshape(B, nc, V)
            m = z.max(axis=2, keepdims=True)
            e = np.exp(z - m)
            lsm = (z - m) - np.log(e.sum(axis=2, keepdims=True))
            logq += lsm[:, self.ctx[t], self.tok[t]]
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


@pytest.mark.parametrize("order", sorted(ORACLE_ORDERS))
@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
class TestFlatKernelMatchesPerBlockReference:
    """The flat kernel is bit-identical to the per-position loops it replaced."""

    def _setup(self, shape, order):
        space = SequenceSpace(*shape)
        orders = ORACLE_ORDERS[order](space)
        struct = ngram._Structure.get(space, orders)
        ref = _PerBlockReference(space, orders)
        assert struct.n_params == ref.n_params
        return space, orders, struct, ref, SeededRng(31 + sum(orders))

    def test_probs_single_and_batched(self, shape, order):
        _, _, struct, ref, rng = self._setup(shape, order)
        for _ in range(5):
            theta = rng.normal(struct.n_params, sigma=2.0)
            assert np.array_equal(ngram._probs(struct, theta), ref.probs(theta))
        thetas = rng.normal(7 * struct.n_params, sigma=2.0).reshape(7, -1)
        assert np.array_equal(ngram._probs(struct, thetas), ref.batched_probs(thetas))

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


# The kernels as spelled before the structure held its scatter map and the
# reductions were called as ufunc methods, kept as the lean path's oracle:
# the same arithmetic, so the same bits.


def old_scatter(struct, w):
    return np.bincount(struct.index.ravel(), weights=np.tile(w, struct.space.length),
                       minlength=struct.n_params).reshape(-1, struct.space.vocab_size)


def old_log_softmax(struct, theta):
    z = theta.reshape(*theta.shape[:-1], -1, struct.space.vocab_size)
    zm = z - z.max(axis=-1, keepdims=True)
    return (zm - np.log(np.exp(zm).sum(axis=-1, keepdims=True))).reshape(theta.shape)


def old_log_probs(struct, lsm):
    return np.take(lsm, struct.index, axis=-1).sum(axis=-2)


def old_grad_weighted_logprob(struct, lsm, w):
    sw = old_scatter(struct, w)
    q = np.exp(lsm).reshape(sw.shape)
    return (sw - q * sw.sum(axis=1, keepdims=True)).ravel()


def old_tvd(struct, theta, p):
    q = np.exp(old_log_probs(struct, old_log_softmax(struct, theta)))
    return 0.5 * np.abs(q - p).sum()


def old_polish_tvd(struct, theta, p):
    """The row polish that recomputed every row's log-softmax for each row
    update and each TVD value; returns (logits, TVD there)."""
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
    for _ in range(ngram.POLISH_MAX_SWEEPS):
        start_value = value
        for r, p_r, tok, others in row_data:
            c = np.exp(np.take(old_log_softmax(struct, theta), others).sum(axis=0))
            live = c > 0.0
            if not live.any():
                continue
            x = ngram._row_tvd_argmin(c[live], p_r[live], tok[live], V)
            old_row = rows[r].copy()
            with np.errstate(divide="ignore"):
                rows[r] = np.log(x)
            new_value = old_tvd(struct, theta, p)
            if new_value <= value:
                value = new_value
            else:
                rows[r] = old_row
        if start_value - value <= ngram.POLISH_TOL:
            break
    return theta, value


@pytest.mark.parametrize("order", sorted(ORACLE_ORDERS))
@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_lean_kernel_matches_old_spelling(shape, order):
    space = SequenceSpace(*shape)
    struct = ngram._Structure.get(space, ORACLE_ORDERS[order](space))
    rng = SeededRng(41)
    for _ in range(5):
        theta = rng.normal(struct.n_params, sigma=2.0)
        w = rng.normal(space.n_sequences)
        lsm = ngram._log_softmax(struct, theta)
        assert np.array_equal(lsm, old_log_softmax(struct, theta))
        assert np.array_equal(struct.scatter(w), old_scatter(struct, w))
        assert np.array_equal(ngram._log_probs(struct, lsm), old_log_probs(struct, lsm))
        assert np.array_equal(ngram._grad_weighted_logprob(struct, lsm, w),
                              old_grad_weighted_logprob(struct, lsm, w))
    thetas = rng.normal(4 * struct.n_params, sigma=2.0).reshape(4, -1)
    lsm = ngram._log_softmax(struct, thetas)
    assert np.array_equal(lsm, old_log_softmax(struct, thetas))
    assert np.array_equal(ngram._log_probs(struct, lsm), old_log_probs(struct, lsm))


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

    def test_fit_tvd_with_polish(self):
        _, _, _, _, pstar = toy_setup()
        template = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
        struct, p = template._struct, pstar.probs
        best = None
        for i in range(3):
            theta = SeededRng(0).spawn(i).normal(template.n_params)
            for _ in range(400):
                lsm = old_log_softmax(struct, theta)
                q = np.exp(old_log_probs(struct, lsm))
                theta -= 0.1 * old_grad_weighted_logprob(struct, lsm,
                                                         0.5 * np.sign(q - p) * q)
            theta, value = old_polish_tvd(struct, theta, p)
            if best is None or value < best[0]:
                best = (value, i, theta)
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=400, restarts=3))
        assert (trace.final_value, trace.restart_index) == best[:2]
        assert np.array_equal(trace.final_policy.logits, best[2])


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
            x = ngram._row_tvd_argmin(c, p, tok, 3)
            assert np.all(x >= 0.0) and x.sum() == pytest.approx(1.0, abs=1e-15)
            cost = lambda xs: np.abs(c * xs[..., tok] - p).sum(axis=-1)
            assert cost(x) <= cost(grid).min() + 1e-12

    def test_row_update_is_exact_for_the_full_tvd(self):
        # with every other row fixed, the polish's update of one row gives the
        # lowest TVD over a grid of that row's conditionals
        _, _, _, _, pstar = toy_setup()
        struct = ngram._Structure.get(SPACE, bigram_orders(SPACE))
        theta = SeededRng(8).normal(struct.n_params)
        grid = self._simplex_grid(60)
        V = SPACE.vocab_size
        for t, r in ((0, 0), (1, 2), (2, 5)):
            uses = np.flatnonzero(struct.index[t] // V == r)
            others = np.delete(struct.index, t, axis=0)[:, uses]
            c = np.exp(np.take(ngram._log_softmax(struct, theta), others).sum(axis=0))
            x = ngram._row_tvd_argmin(c, pstar.probs[uses], struct.index[t, uses] % V, V)

            def tvd_with_row(cond):
                th = theta.copy()
                with np.errstate(divide="ignore"):
                    th[r * V:(r + 1) * V] = np.log(cond)
                return ngram._tvd(struct, ngram._log_softmax(struct, th), pstar.probs)

            assert tvd_with_row(x) <= min(map(tvd_with_row, grid)) + 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_sweep_raises_tvd(self, seed, monkeypatch):
        # one sweep per call: the TVD after each is no higher than before it,
        # and the sweeps chained end where one uncapped polish ends
        _, _, _, _, pstar = toy_setup(seed)
        struct = ngram._Structure.get(SPACE, bigram_orders(SPACE))
        start = SeededRng(seed).normal(struct.n_params)
        full_theta, full_value, full_sweeps, capped = ngram._polish_tvd(
            struct, start, pstar.probs)
        assert not capped and full_sweeps >= 2
        monkeypatch.setattr(ngram, "POLISH_MAX_SWEEPS", 1)
        tvd = lambda th: ngram._tvd(struct, ngram._log_softmax(struct, th), pstar.probs)
        theta, value = start, tvd(start)
        for _ in range(full_sweeps):
            theta, new_value, sweeps, _ = ngram._polish_tvd(struct, theta, pstar.probs)
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
