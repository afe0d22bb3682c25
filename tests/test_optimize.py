"""Gradient-descent driver: configs, traces, determinism, reference fits."""
import numpy as np
import pytest

from klgeo import ngram
from klgeo.dist import condition, expected_reward, kl_divergence_finite, total_variation
from klgeo.geometry import TiltedFamily
from klgeo.ngram import (
    ForwardKLObjective,
    NGramPolicy,
    SequenceSpace,
    TVDObjective,
    bigram_orders,
    conditional_projection,
    full_orders,
    make_verifier_first_equals_last,
    random_base_model,
    to_distribution,
)
from klgeo.optimize import (
    TRACE_STRIDE,
    OptimizerConfig,
    _gradient_run,
    ascend_j_beta,
    fit_forward_kl,
    fit_tvd,
    verify_gradients,
)
from klgeo.rng import SeededRng

SPACE = SequenceSpace(3, 3)


def setup(seed=1):
    base_pol = random_base_model(SPACE, seed)
    base = to_distribution(base_pol)
    verifier = make_verifier_first_equals_last(SPACE)
    fam = TiltedFamily(base, verifier)
    pstar = condition(base, verifier.mask)
    template = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
    return base_pol, base, fam, pstar, template


class TestOptimizerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(steps=0)
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)

    def test_rejects_budget_blowup(self):
        with pytest.raises(ValueError):
            OptimizerConfig(steps=1_000_000, restarts=1_000)

    def test_frozen(self):
        cfg = OptimizerConfig()
        with pytest.raises(AttributeError):
            cfg.steps = 10


class TestForwardKLFit:
    # the descent traces below check the gradient-descent driver on the
    # convex forward-KL objective; fit_forward_kl itself is closed form

    def test_trace_non_increasing(self):
        _, _, _, pstar, template = setup()
        cfg = OptimizerConfig(learning_rate=0.05, steps=2000)
        trace = _gradient_run(ForwardKLObjective(pstar), template, cfg, maximize=False)
        vals = trace.objective_values
        assert np.all(np.diff(vals) <= 1e-10)
        assert trace.final_value < vals[0]
        assert not trace.aborted

    def test_deterministic(self):
        _, _, _, pstar, template = setup()
        a = fit_forward_kl(pstar, template)
        b = fit_forward_kl(pstar, template)
        assert np.array_equal(a.final_policy.logits, b.final_policy.logits)
        assert np.array_equal(a.objective_values, b.objective_values)

    def test_trace_stride(self):
        _, _, _, pstar, template = setup()
        cfg = OptimizerConfig(learning_rate=0.05, steps=1000)
        trace = _gradient_run(ForwardKLObjective(pstar), template, cfg, maximize=False)
        # initial value plus one record every TRACE_STRIDE steps
        assert TRACE_STRIDE == 100
        assert trace.objective_values.shape == (11,)
        assert trace.steps_run == 1000

    def test_well_specified_converges(self):
        # fitting a bigram-representable target drives the KL to ~0
        target = to_distribution(
            NGramPolicy(SPACE, bigram_orders(SPACE), SeededRng(3).normal(21)))
        template = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
        trace = fit_forward_kl(target, template)
        assert trace.final_value < 1e-12
        assert trace.converged

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_closed_form_matches_descent(self, seed):
        # the serial gradient-descent fit the closed form replaced is the oracle
        _, _, _, pstar, template = setup(seed)
        trace = fit_forward_kl(pstar, template)
        gd = _gradient_run(ForwardKLObjective(pstar), template,
                           OptimizerConfig(learning_rate=0.05, steps=15000),
                           maximize=False)
        kl = kl_divergence_finite(pstar, to_distribution(trace.final_policy))
        kl_gd = kl_divergence_finite(pstar, to_distribution(gd.final_policy))
        assert abs(kl - kl_gd) <= 1e-10
        assert trace.final_value == pytest.approx(kl, abs=1e-12)
        assert trace.steps_run == 0 and trace.objective_values.shape == (1,)
        assert trace.converged and not trace.aborted

    def test_full_order_reaches_pstar(self):
        # p* is representable in the full-order family: the fit attains it
        base_pol, _, fam, pstar, _ = setup()
        trace = fit_forward_kl(pstar, base_pol)
        q = to_distribution(trace.final_policy)
        assert trace.final_policy.context_lengths == full_orders(SPACE)
        assert kl_divergence_finite(pstar, q) == pytest.approx(0.0, abs=1e-14)
        assert expected_reward(q, fam.reward) == pytest.approx(1.0, abs=1e-14)
        assert trace.converged


class TestJBetaAscent:
    def test_trace_non_decreasing(self):
        _, _, fam, _, template = setup()
        cfg = OptimizerConfig(learning_rate=0.1, steps=2000)
        trace = ascend_j_beta(fam, template, cfg, beta=0.2)
        assert np.all(np.diff(trace.objective_values) >= -1e-10)

    def test_huge_beta_pins_to_base(self):
        # at beta = 1e6 the KL term dominates and the optimum is the base
        base_pol, base, fam, _, _ = setup()
        cfg = OptimizerConfig(learning_rate=1e-7, steps=200)
        trace = ascend_j_beta(fam, base_pol, cfg, beta=1e6)
        assert total_variation(to_distribution(trace.final_policy), base) < 1e-3

    def test_rejects_nonpositive_beta(self):
        _, _, fam, _, template = setup()
        with pytest.raises(ValueError):
            ascend_j_beta(fam, template, OptimizerConfig(), beta=0.0)


class TestTVDFit:
    def test_well_specified_near_zero(self):
        target = to_distribution(
            NGramPolicy(SPACE, bigram_orders(SPACE), SeededRng(5).normal(21)))
        template = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
        cfg = OptimizerConfig(learning_rate=0.1, steps=5000, restarts=20)
        trace = fit_tvd(target, template, cfg)
        assert trace.final_value < 1e-3

    def test_best_of_n_monotone(self):
        _, _, _, pstar, template = setup()
        results = []
        for restarts in (1, 4, 12):
            cfg = OptimizerConfig(learning_rate=0.1, steps=600,
                                  restarts=restarts)
            results.append(fit_tvd(pstar, template, cfg).final_value)
        # restarts share the same spawned streams, so best-of-N can only improve
        assert results[1] <= results[0] + 1e-15
        assert results[2] <= results[1] + 1e-15

    def test_deterministic(self):
        _, _, _, pstar, template = setup()
        cfg = OptimizerConfig(learning_rate=0.1, steps=300, restarts=3)
        a = fit_tvd(pstar, template, cfg)
        b = fit_tvd(pstar, template, cfg)
        assert np.array_equal(a.final_policy.logits, b.final_policy.logits)
        assert a.restart_index == b.restart_index

    def test_matches_hand_written_descent_and_polish(self):
        # oracle: each restart as a plain loop from its SeededRng(0).spawn(i)
        # start on the subgradient written out, with the step halved every
        # 1000 steps, then the row polish; the fit is the better restart
        _, _, _, pstar, template = setup()
        struct, p = template._struct, pstar.probs
        finals = []
        for i in range(2):
            theta = SeededRng(0).spawn(i).normal(template.n_params, sigma=1.0)
            for k in range(1200):
                lsm = ngram._log_softmax(struct, theta)
                q = np.exp(ngram._log_probs(struct, lsm))
                grad = ngram._grad_weighted_logprob(struct, lsm, 0.5 * np.sign(q - p) * q)
                theta = theta - 0.1 * 0.5 ** (k // 1000) * grad
            theta, value, sweeps, capped = ngram._polish_tvd(struct, theta, p)
            assert not capped
            finals.append((value, i, theta, sweeps))
        value, index, theta, sweeps = min(finals, key=lambda f: f[0])
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=1200, restarts=2))
        assert trace.restart_index == index
        assert trace.final_value == value
        assert np.array_equal(trace.final_policy.logits, theta)
        assert trace.steps_run == 1200 and not trace.aborted
        assert trace.polish_sweeps == sweeps and trace.converged
        assert trace.diagnostic == ""

    def test_trace_ends_with_the_polished_value(self):
        # values at step 0, 100, 200 and 300, then the polished one, lower
        # than the descent's last
        _, _, _, pstar, template = setup()
        for restarts in (1, 2, 3):
            trace = fit_tvd(pstar, template, OptimizerConfig(steps=300, restarts=restarts))
            assert len(trace.objective_values) == 5
            assert trace.final_value < trace.objective_values[-2]
            assert trace.final_value == pytest.approx(
                total_variation(to_distribution(trace.final_policy), pstar), abs=1e-15)

    def test_sweep_cap_is_reported(self, monkeypatch):
        _, _, _, pstar, template = setup()
        monkeypatch.setattr(ngram, "POLISH_MAX_SWEEPS", 1)
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=300, restarts=1))
        assert trace.polish_sweeps == 1 and not trace.converged
        assert "1-sweep cap" in trace.diagnostic and not trace.aborted

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_order_is_closed_form(self, seed):
        # p* lies in the closure of the full family: the conditional
        # projection attains TVD 0, with no descent step
        _, _, _, pstar, _ = setup(seed)
        template = NGramPolicy(SPACE, full_orders(SPACE), np.zeros(39))
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=300, restarts=2))
        assert trace.final_value <= 1e-15
        assert total_variation(to_distribution(trace.final_policy), pstar) <= 1e-15
        assert trace.steps_run == 0 and trace.converged and not trace.aborted
        assert np.array_equal(trace.final_policy.logits,
                              conditional_projection(pstar, SPACE, full_orders(SPACE)).logits)


class _ExplodingObjective:
    """Stub that returns a non-finite gradient after a few calls."""

    name = "exploding"

    def __init__(self, inner, blow_at):
        self.inner = inner
        self.blow_at = blow_at
        self.calls = 0

    def value_theta(self, struct, theta):
        return self.inner.value_theta(struct, theta)

    def grad_theta(self, struct, theta):
        self.calls += 1
        g = self.inner.grad_theta(struct, theta)
        if self.calls > self.blow_at:
            g = g.copy()
            g[0] = np.nan
        return g


class TestAbort:
    def test_nonfinite_gradient_aborts(self):
        _, _, _, pstar, template = setup()
        obj = _ExplodingObjective(ForwardKLObjective(pstar), blow_at=10)
        cfg = OptimizerConfig(learning_rate=0.05, steps=500)
        trace = _gradient_run(obj, template, cfg, maximize=False)
        assert trace.aborted
        assert trace.steps_run == 10
        assert "non-finite" in trace.diagnostic
        assert np.isnan(trace.final_grad_norm)


class TestVerifyGradients:
    def test_rejects_bad_step(self):
        _, _, _, pstar, template = setup()
        with pytest.raises(ValueError):
            verify_gradients(template, ForwardKLObjective(pstar), h=0.0)

    def test_guarded_zero_components(self):
        # at the uniform template every forward-KL gradient component is
        # tiny-but-nonzero except none; construct a symmetric case where
        # some components vanish and confirm the guard reports 0 for them
        target = to_distribution(NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21)))
        template = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
        err = verify_gradients(template, ForwardKLObjective(target))
        assert err == 0.0

    def test_round_off_zero_component(self):
        # component 30 is 6.9e-18 analytically and -5.6e-12 by central
        # difference, below the difference's round-off eps * |f| / h = 1.9e-11;
        # a fixed 1e-12 guard reported relative error 1.0 there
        _, _, _, pstar, _ = setup(1)
        pol = NGramPolicy(SPACE, full_orders(SPACE), SeededRng(5).normal(39))
        assert verify_gradients(pol, TVDObjective(pstar)) < 1e-7
        # a step lost in the logits' round-off gives fd = 0: every nonzero
        # analytic component fails, however large the round-off estimate
        assert verify_gradients(pol, TVDObjective(pstar), h=1e-300) == 1.0


class TestWarmStart:
    def test_same_lambda_continues_monotonically(self):
        # stage two resumes where stage one stopped: no objective drop at the
        # seam, and the remaining improvement is a small fraction of stage one's
        _, _, fam, _, template = setup()
        cfg = OptimizerConfig(learning_rate=0.1, steps=4000)
        first = ascend_j_beta(fam, template, cfg, beta=1.0 / 5.0)
        second = ascend_j_beta(fam, first.final_policy, cfg, beta=1.0 / 5.0)
        assert second.objective_values[0] == pytest.approx(first.final_value, abs=1e-12)
        gain1 = first.final_value - first.objective_values[0]
        gain2 = second.final_value - second.objective_values[0]
        assert gain2 >= -1e-12
        assert gain2 <= 0.05 * gain1
