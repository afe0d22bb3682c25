"""Gradient-descent driver: configs, traces, determinism, reference fits."""
import dataclasses

import numpy as np
import pytest

from klgeo import ngram, optimize
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
from klgeo.experiments import DEFAULT_SIGMA, _toy_instance
from klgeo.optimize import (
    CONVERGED_GRAD_NORM,
    OptimizerConfig,
    RunTrace,
    _gradient_run,
    ascend_j_beta,
    fit_forward_kl,
    fit_tvd,
    verify_gradients,
)
from klgeo.rng import SeededRng

SPACE = SequenceSpace(3, 3)


def setup(seed=1):
    base_pol = random_base_model(SPACE, seed, DEFAULT_SIGMA)
    base = to_distribution(base_pol)
    verifier = make_verifier_first_equals_last(SPACE)
    fam = TiltedFamily(base, verifier)
    pstar = condition(base, verifier.mask)
    template = NGramPolicy(SPACE, bigram_orders(SPACE), np.zeros(21))
    return base_pol, base, fam, pstar, template


def chained(run, pol, pieces=20):
    """pieces consecutive runs, each from the policy the last one ended at:
    a long run cut into pieces whose start and final values can be compared."""
    traces = []
    for _ in range(pieces):
        traces.append(run(pol))
        pol = traces[-1].final_policy
    return traces


class TestOptimizerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                OptimizerConfig(learning_rate=lr)
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
        # a 2000-step descent in 20 pieces: none ends above its start
        _, _, _, pstar, template = setup()
        cfg = OptimizerConfig(learning_rate=0.05, steps=100)
        traces = chained(lambda pol: _gradient_run(ForwardKLObjective(pstar), pol,
                                                   cfg, maximize=False), template)
        assert all(t.final_value <= t.start_value + 1e-10 for t in traces)
        assert traces[-1].final_value < traces[0].start_value
        assert not any(t.aborted for t in traces)

    def test_deterministic(self):
        _, _, _, pstar, template = setup()
        a = fit_forward_kl(pstar, template)
        b = fit_forward_kl(pstar, template)
        assert np.array_equal(a.final_policy.logits, b.final_policy.logits)
        assert (a.start_value, a.final_value) == (b.start_value, b.final_value)

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
        assert trace.steps_run == 0 and trace.start_value == trace.final_value
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
        # a 2000-step ascent in 20 pieces: none ends below its start
        _, _, fam, _, template = setup()
        cfg = OptimizerConfig(learning_rate=0.1, steps=100)
        traces = chained(lambda pol: ascend_j_beta(fam, pol, cfg, beta=0.2), template)
        assert all(t.final_value >= t.start_value - 1e-10 for t in traces)
        assert traces[-1].final_value > traces[0].start_value

    def test_pieces_equal_one_run(self):
        # cutting an ascent into pieces changes none of its steps
        _, _, fam, _, template = setup()
        whole = ascend_j_beta(fam, template, OptimizerConfig(steps=2000), beta=0.2)
        traces = chained(lambda pol: ascend_j_beta(
            fam, pol, OptimizerConfig(steps=100), beta=0.2), template)
        assert np.array_equal(traces[-1].final_policy.logits, whole.final_policy.logits)
        assert (traces[0].start_value, traces[-1].final_value) == (
            whole.start_value, whole.final_value)

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
        # start on the subgradient written out, with the constant step 0.1,
        # then the row polish; the fit is the better restart
        _, _, _, pstar, template = setup()
        struct, p = template._struct, pstar.probs
        finals = []
        for i in range(2):
            theta = SeededRng(0).spawn(i).normal(template.n_params, sigma=1.0)
            for k in range(1200):
                lsm = ngram._log_softmax(struct, theta)
                q = np.exp(ngram._log_probs(struct, lsm))
                grad = ngram._grad_weighted_logprob(struct, lsm, 0.5 * np.sign(q - p) * q)
                theta = theta - 0.1 * grad
            theta, value, sweeps, capped = (
                out[0] for out in ngram._polish_tvd(struct, theta[None], p))
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
        # the best restart's descent, from the same start: the fit keeps its
        # start value and ends at the polished value, below the descent's
        _, _, _, pstar, template = setup()
        for restarts in (1, 2, 3):
            cfg = OptimizerConfig(steps=300, restarts=restarts)
            trace = fit_tvd(pstar, template, cfg)
            start = SeededRng(0).spawn(trace.restart_index).normal(template.n_params)
            descent = _gradient_run(TVDObjective(pstar), template.with_logits(start),
                                    cfg, maximize=False)
            assert trace.start_value == descent.start_value
            assert trace.final_value < descent.final_value
            assert trace.final_value == pytest.approx(
                total_variation(to_distribution(trace.final_policy), pstar), abs=1e-15)

    def test_sweep_cap_is_reported(self, monkeypatch):
        _, _, _, pstar, template = setup()
        monkeypatch.setattr(ngram, "POLISH_MAX_SWEEPS", 1)
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=300, restarts=1))
        assert trace.polish_sweeps == 1 and not trace.converged
        assert "1-sweep cap" in trace.diagnostic and not trace.aborted

    def test_aborted_restart_is_never_best(self, monkeypatch):
        # restart 0 aborts with a final value, 0, below every polished TVD;
        # the fit returns the lowest restart that did not abort
        _, _, _, pstar, template = setup()
        descents = []

        def first_aborts(*args, **kwargs):
            trace = _gradient_run(*args, **kwargs)
            descents.append(trace)
            if len(descents) > 1:
                return trace
            return dataclasses.replace(
                trace, final_value=0.0,
                aborted=True, diagnostic="non-finite gradient at step 100")

        monkeypatch.setattr(optimize, "_gradient_run", first_aborts)
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=300, restarts=3))
        polished = [ngram._polish_tvd(template._struct, d.final_policy.logits[None],
                                      pstar.probs)[1][0] for d in descents[1:]]
        assert not trace.aborted and trace.final_value > 0.0
        assert trace.restart_index == 1 + int(np.argmin(polished))
        assert trace.final_value == min(polished)

    @staticmethod
    def _mark_aborted(monkeypatch, aborted):
        """Makes the restarts in `aborted` abort, each with its own final
        value; returns the list of descents run, as they came back."""
        descents = []

        def some_abort(*args, **kwargs):
            trace = _gradient_run(*args, **kwargs)
            if len(descents) in aborted:
                trace = dataclasses.replace(
                    trace, final_value=aborted[len(descents)], aborted=True,
                    diagnostic="non-finite gradient at step 100")
            descents.append(trace)
            return trace

        monkeypatch.setattr(optimize, "_gradient_run", some_abort)
        return descents

    @staticmethod
    def _record_polishes(monkeypatch, fake=None):
        """Records the stack of every polish call; with fake, a function of
        the stack, returns fake's (values, sweeps, capped) at the unmoved
        starts instead of polishing."""
        calls = []

        def polish(struct, thetas, p):
            calls.append(np.array(thetas))
            if fake is None:
                return ngram._polish_tvd(struct, thetas, p)
            return (np.array(thetas), *map(np.array, fake(len(thetas))))

        monkeypatch.setattr(optimize, "_polish_tvd", polish)
        return calls

    def test_aborted_restarts_stay_out_of_the_polish(self, monkeypatch):
        _, _, _, pstar, template = setup()
        descents = self._mark_aborted(monkeypatch, {1: 0.0, 3: 0.5})
        calls = self._record_polishes(monkeypatch)
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=200, restarts=5))
        assert len(calls) == 1
        assert np.array_equal(calls[0], [descents[i].final_policy.logits for i in (0, 2, 4)])
        assert trace.restart_index in (0, 2, 4) and not trace.aborted

    def test_all_aborted_runs_no_polish(self, monkeypatch):
        # the first lowest aborted restart, as a serial loop would keep it
        _, _, _, pstar, template = setup()
        descents = self._mark_aborted(monkeypatch, {0: 0.5, 1: 0.2, 2: 0.2, 3: 0.7})
        calls = self._record_polishes(monkeypatch)
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=100, restarts=4))
        assert calls == []
        assert trace == dataclasses.replace(descents[1], restart_index=1)

    def test_first_of_tied_tvds_wins(self, monkeypatch):
        _, _, _, pstar, template = setup()
        self._record_polishes(monkeypatch, lambda n: ([0.4, 0.3, 0.3, 0.3][:n], [2] * n,
                                                      [False] * n))
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=100, restarts=4))
        assert (trace.restart_index, trace.final_value) == (1, 0.3)

    @pytest.mark.parametrize("winner", [0, 1, 2])
    def test_bookkeeping_follows_each_restart(self, winner, monkeypatch):
        # each restart gets its own copy's value, sweeps and cap flag, and
        # the subgradient norm at its own logits
        _, _, _, pstar, template = setup()
        sweeps, capped = [7, 100, 4], [False, True, False]
        values = [0.5] * 3
        values[winner] = 0.25
        descents = self._mark_aborted(monkeypatch, {})
        self._record_polishes(monkeypatch, lambda n: (values, sweeps, capped))
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=100, restarts=3))
        logits = descents[winner].final_policy.logits
        assert trace.restart_index == winner and trace.final_value == 0.25
        assert np.array_equal(trace.final_policy.logits, logits)
        assert trace.polish_sweeps == sweeps[winner]
        assert trace.converged == (not capped[winner]) and not trace.aborted
        assert trace.diagnostic == ("TVD polish stopped at its 100-sweep cap"
                                    if capped[winner] else "")
        assert trace.final_grad_norm == float(np.linalg.norm(
            ngram._tvd_subgradient(template._struct, logits, pstar.probs)))
        assert trace.wall_time > descents[winner].wall_time

    @pytest.mark.parametrize("aborted", [{}, {0: 0.5, 5: 0.1}, dict.fromkeys(range(16), 0.5)],
                             ids=["none", "two", "all"])
    def test_one_subgradient_per_fit(self, aborted, monkeypatch):
        # only the returned restart gets a subgradient norm: one subgradient
        # in a fit that polishes any restart, none when every restart aborts
        _, _, _, pstar, template = setup()
        self._mark_aborted(monkeypatch, aborted)
        calls = []

        def counting(struct, theta, p):
            calls.append(theta)
            return ngram._tvd_subgradient(struct, theta, p)

        monkeypatch.setattr(optimize, "_tvd_subgradient", counting)
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=50, restarts=16))
        assert len(calls) == (0 if trace.aborted else 1)
        assert trace.aborted == (len(aborted) == 16)
        if calls:
            assert np.array_equal(calls[0], trace.final_policy.logits)

    def test_bookkeeping_matches_a_lone_polish_at_the_cap(self, monkeypatch):
        # with a 2-sweep cap some restarts stop at it: the best one reports
        # what a polish of its descent alone reports
        _, _, _, pstar, template = setup()
        monkeypatch.setattr(ngram, "POLISH_MAX_SWEEPS", 2)
        descents = self._mark_aborted(monkeypatch, {})
        calls = self._record_polishes(monkeypatch)
        trace = fit_tvd(pstar, template, OptimizerConfig(steps=300, restarts=6))
        _, values, sweeps, capped = ngram._polish_tvd(template._struct, calls[0], pstar.probs)
        assert capped.any() and not capped.all()
        theta, value, n_sweeps, stopped = (out[0] for out in ngram._polish_tvd(
            template._struct, descents[trace.restart_index].final_policy.logits[None],
            pstar.probs))
        assert trace.final_value == value == values.min()
        assert np.array_equal(trace.final_policy.logits, theta)
        assert (trace.polish_sweeps, trace.converged) == (n_sweeps, not stopped)
        assert ("2-sweep cap" in trace.diagnostic) == stopped

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
    """Stub that puts `bad` into gradient entry `index` at the logits
    `blow_at`, or (with value_blows) returns a non-finite value at any logits
    but zeros.  Both are pure functions of theta, as _gradient_run requires;
    calls and value_calls count the calls."""

    name = "exploding"

    def __init__(self, inner, blow_at=None, bad=np.nan, index=0, value_blows=False):
        self.inner = inner
        self.blow_at = blow_at
        self.bad = bad
        self.index = index
        self.value_blows = value_blows
        self.calls = 0
        self.value_calls = 0

    def value_theta(self, struct, theta):
        self.value_calls += 1
        if self.value_blows and theta.any():
            return float("nan")
        return self.inner.value_theta(struct, theta)

    def grad_theta(self, struct, theta):
        self.calls += 1
        g = self.inner.grad_theta(struct, theta)
        if self.blow_at is not None and np.array_equal(theta, self.blow_at):
            g = g.copy()
            g[self.index] = self.bad
        return g


class _ConstantGradient:
    """Stub with a fixed gradient everywhere, and the value 0 or, given
    value_of, that objective's value."""

    name = "constant"

    def __init__(self, grad, value_of=None):
        self.grad = grad
        self.value_of = value_of

    def value_theta(self, struct, theta):
        return 0.0 if self.value_of is None else self.value_of.value_theta(struct, theta)

    def grad_theta(self, struct, theta):
        return self.grad


class TestAbort:
    def test_nonfinite_gradient_aborts(self):
        # nan, +inf and -inf in the first, a middle and the last entry: the
        # run stops before the bad step, at the logits of 10 finite steps
        _, _, _, pstar, template = setup()
        cfg = OptimizerConfig(learning_rate=0.05, steps=500)
        ten_steps = _gradient_run(ForwardKLObjective(pstar), template,
                                  dataclasses.replace(cfg, steps=10), maximize=False)
        for bad in (np.nan, np.inf, -np.inf):
            for index in (0, 10, 20):
                obj = _ExplodingObjective(ForwardKLObjective(pstar),
                                          blow_at=ten_steps.final_policy.logits,
                                          bad=bad, index=index)
                trace = _gradient_run(obj, template, cfg, maximize=False)
                assert trace.aborted, (bad, index)
                assert trace.steps_run == 10
                assert trace.diagnostic == "non-finite gradient at step 10"
                assert np.isnan(trace.final_grad_norm)
                assert np.array_equal(trace.final_policy.logits,
                                      ten_steps.final_policy.logits)
                assert obj.value_calls == 2

    def test_extreme_finite_gradient_does_not_abort(self):
        # |g| up to the largest double, the smallest subnormal and -0.0 are
        # finite: every step runs
        grad = np.zeros(21)
        grad[:4] = [1e308, -1e308, 5e-324, -0.0]
        _, _, _, _, template = setup()
        cfg = OptimizerConfig(learning_rate=1e-10, steps=3)
        trace = _gradient_run(_ConstantGradient(grad), template, cfg, maximize=False)
        assert not trace.aborted and trace.diagnostic == ""
        assert trace.steps_run == 3
        assert np.all(np.isfinite(trace.final_policy.logits))
        assert trace.final_policy.logits[0] < -1e298 < 1e298 < trace.final_policy.logits[1]

    def test_nonfinite_final_value_aborts(self):
        # the value is checked once, after the last step
        _, _, _, pstar, template = setup()
        obj = _ExplodingObjective(ForwardKLObjective(pstar), value_blows=True)
        cfg = OptimizerConfig(learning_rate=0.05, steps=500)
        trace = _gradient_run(obj, template, cfg, maximize=False)
        assert trace.aborted and not trace.converged
        assert trace.steps_run == 500
        assert trace.diagnostic == "non-finite objective at step 500"
        assert np.isnan(trace.final_value) and np.isnan(trace.final_grad_norm)
        assert obj.value_calls == 2


def checked_gradient_run(objective, pol, cfg, maximize):
    """_gradient_run's loop with every gradient tested for finiteness before
    its step, as it ran before the single test per run: the oracle of that
    test and its exact re-run (the diverged-run diagnostic left out)."""
    struct = pol._struct
    theta = pol.logits.copy()
    zeros = np.zeros_like(theta)
    scale = np.array((1.0 if maximize else -1.0) * cfg.learning_rate)
    steps_run, diagnostic = cfg.steps, ""
    with np.errstate(over="ignore", invalid="ignore"):
        first = objective.value_theta(struct, theta)
        for step in range(cfg.steps):
            grad = objective.grad_theta(struct, theta)
            if grad.dot(zeros):
                steps_run, diagnostic = step, f"non-finite gradient at step {step}"
                break
            theta += scale * grad
        last = objective.value_theta(struct, theta)
        if not diagnostic and not np.isfinite(last):
            diagnostic = f"non-finite objective at step {steps_run}"
        grad_norm = (float("nan") if diagnostic else
                     float(np.linalg.norm(objective.grad_theta(struct, theta))))
    return RunTrace(start_value=first, final_value=last,
                    final_policy=pol.with_logits(theta), final_grad_norm=grad_norm,
                    wall_time=0.0, steps_run=steps_run, aborted=bool(diagnostic),
                    diagnostic=diagnostic)


def assert_same_run(trace, want):
    """The same logits to the bit, sign bits and nan included, and the same
    values, step count and diagnostic."""
    got_logits, want_logits = trace.final_policy.logits, want.final_policy.logits
    assert np.array_equal(got_logits, want_logits, equal_nan=True)
    assert np.array_equal(np.signbit(got_logits), np.signbit(want_logits))
    for field in ("start_value", "final_value", "final_grad_norm"):
        assert repr(getattr(trace, field)) == repr(getattr(want, field)), field
    assert (trace.steps_run, trace.aborted, trace.diagnostic) == (
        want.steps_run, want.aborted, want.diagnostic)


class TestRerun:
    """A run tests its logits once, after the last step; when they are not
    finite it is made again from its start with every gradient tested.  It
    ends as the run that tests every gradient ends."""

    @staticmethod
    def _both(make_objective, pol, cfg, **kwargs):
        """(trace, objective) of _gradient_run, then of the oracle, each on
        an objective of its own."""
        runs = []
        for run in (_gradient_run, checked_gradient_run):
            obj = make_objective()
            runs.append((run(obj, pol, cfg, **kwargs), obj))
        return runs

    def test_nonfinite_gradient_mid_run(self):
        # the gradient at the logits of 10 of 30 steps is bad: the run stops
        # before step 10
        _, _, _, pstar, template = setup()
        start = template.with_logits(SeededRng(5).normal(template.n_params))
        cfg = OptimizerConfig(steps=30)
        ten_steps = _gradient_run(TVDObjective(pstar), start,
                                  dataclasses.replace(cfg, steps=10),
                                  maximize=False)
        for bad in (np.nan, np.inf, -np.inf):
            (trace, obj), (want, want_obj) = self._both(
                lambda: _ExplodingObjective(TVDObjective(pstar),
                                            blow_at=ten_steps.final_policy.logits,
                                            bad=bad, index=7),
                start, cfg, maximize=False)
            assert_same_run(trace, want)
            assert trace.diagnostic == "non-finite gradient at step 10"
            assert obj.value_calls == want_obj.value_calls == 2
            # 30 steps, then 11 gradients up to the bad one
            assert (obj.calls, want_obj.calls) == (41, 11)

    def test_overflow_on_the_last_step(self):
        # finite gradients, but the third step of 0.6 * 1e308 takes logit 0
        # past the largest double: the run ends with a non-finite objective
        _, _, _, pstar, template = setup()
        grad = np.zeros(template.n_params)
        grad[0] = 1e308
        (trace, obj), (want, _) = self._both(
            lambda: _ExplodingObjective(_ConstantGradient(grad, ForwardKLObjective(pstar))),
            template, OptimizerConfig(learning_rate=0.6, steps=3), maximize=False)
        assert_same_run(trace, want)
        assert trace.diagnostic == "non-finite objective at step 3"
        assert trace.final_policy.logits[0] == -np.inf
        assert obj.value_calls == 2

    def test_descent_from_minus_inf_logits(self):
        # a -inf logit stays -inf under finite steps: the TVD descent is made
        # twice, every gradient of it finite, and ends as the oracle does
        _, _, _, pstar, template = setup()
        start = SeededRng(5).normal(template.n_params)
        start[[0, 4, 8, 13]] = -np.inf
        (trace, obj), (want, want_obj) = self._both(
            lambda: _ExplodingObjective(TVDObjective(pstar)),
            template.with_logits(start), OptimizerConfig(steps=300),
            maximize=False)
        assert_same_run(trace, want)
        assert not trace.aborted and trace.steps_run == 300
        assert np.isneginf(trace.final_policy.logits).sum() == 4
        assert (obj.calls, want_obj.calls) == (601, 301)


class TestStepSize:
    def test_ascent_takes_a_constant_step(self):
        # the run is the hand loop with the step size written out at every step
        _, _, fam, _, template = setup()
        struct = template._struct
        start = SeededRng(5).normal(template.n_params)
        obj = ngram.JBetaObjective(fam, 0.2)
        trace = _gradient_run(obj, template.with_logits(start),
                              OptimizerConfig(learning_rate=0.3, steps=30),
                              maximize=True)
        theta = start
        for _ in range(30):
            theta = theta + 0.3 * obj.grad_theta(struct, theta)
        assert trace.steps_run == 30 and not trace.aborted
        assert np.array_equal(trace.final_policy.logits, theta)


class TestDiverged:
    def test_ascent_worse_than_start_fails(self):
        # the fixed step 0.1 is unstable at beta = 100: J_beta falls from
        # -2.381 to about -55 within 10 steps
        fam, _, template = _toy_instance(1, "bigram")
        trace = ascend_j_beta(fam, template, OptimizerConfig(steps=10), beta=100.0)
        assert trace.final_value < trace.start_value - 1.0
        assert not trace.converged and not trace.aborted
        assert trace.steps_run == 10
        assert repr(trace.final_value) in trace.diagnostic
        assert repr(trace.start_value) in trace.diagnostic

    def test_stationary_at_a_worse_point_is_not_converged(self):
        # at beta = 1000 the ascent settles, gradient norm below the
        # convergence bound, far below where it started
        fam, _, template = _toy_instance(3, "bigram")
        trace = ascend_j_beta(fam, template, OptimizerConfig(), beta=1000.0)
        assert trace.final_grad_norm < CONVERGED_GRAD_NORM
        assert trace.final_value < -1000.0 < trace.start_value
        assert not trace.converged and "worse than its start" in trace.diagnostic


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
        # component 30 is 6.9e-18 analytically and -5.6e-12 by central
        # difference, below the difference's round-off eps * |f| / h = 1.9e-11;
        # a fixed 1e-12 guard reported relative error 1.0 there
        _, _, _, pstar, _ = setup(1)
        pol = NGramPolicy(SPACE, full_orders(SPACE), SeededRng(5).normal(39))
        assert verify_gradients(pol, TVDObjective(pstar)) < 1e-7


class TestWarmStart:
    def test_same_lambda_continues_monotonically(self):
        # stage two resumes where stage one stopped: no objective drop at the
        # seam, and the remaining improvement is a small fraction of stage one's
        _, _, fam, _, template = setup()
        cfg = OptimizerConfig(learning_rate=0.1, steps=4000)
        first = ascend_j_beta(fam, template, cfg, beta=1.0 / 5.0)
        second = ascend_j_beta(fam, first.final_policy, cfg, beta=1.0 / 5.0)
        assert second.start_value == pytest.approx(first.final_value, abs=1e-12)
        gain1 = first.final_value - first.start_value
        gain2 = second.final_value - second.start_value
        assert gain2 >= -1e-12
        assert gain2 <= 0.05 * gain1
