"""Deterministic first-order optimization of the enumerated policy objectives.

Plain gradient steps only: no momentum, no adaptivity.  Runs are pure
functions of (initial logits, config), so identical inputs give identical
outputs to the last bit.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .geometry import TiltedFamily
from .ngram import (
    ForwardKLObjective,
    JBetaObjective,
    NGramPolicy,
    TVDObjective,
    _polish_tvd,
    _tvd_subgradient,
    conditional_projection,
    full_orders,
)
from .rng import SeededRng
from .dist import FiniteDistribution

# Hard cap on steps * restarts per call, to catch accidental budget blowups.
MAX_TOTAL_STEPS = 50_000_000

# A run counts as converged when its final gradient norm is below this.
CONVERGED_GRAD_NORM = 1e-6

# A run that ends worse than it started, in its own direction, by more than
# this times max(1, |start|) has diverged: more than the round-off of a run
# that starts at its optimum.
DIVERGED_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.1
    steps: int = 8000
    restarts: int = 1

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("steps and restarts must be positive")
        if self.steps * self.restarts > MAX_TOTAL_STEPS:
            raise ValueError("steps * restarts exceeds the configured budget")


# Default config for the TVD reference fit.
TVD_FIT_CONFIG = OptimizerConfig(steps=5000, restarts=200)


@dataclass(frozen=True)
class RunTrace:
    """One optimization run: the objective at its start and at final_policy.

    wall_time is the time of the run's steps.  fit_tvd polishes all its
    restarts in one call, but returns one trace: only that restart gets the
    polish fields, the polish call's time added to its wall_time, and the
    norm of the subgradient at its polished logits."""

    start_value: float
    final_value: float
    final_policy: NGramPolicy
    final_grad_norm: float
    wall_time: float
    steps_run: int
    aborted: bool = False
    diagnostic: str = ""
    converged: bool = False
    restart_index: int = 0
    polish_sweeps: int = 0


def _descend(grad_theta, struct, theta: np.ndarray, steps: int,
             scale: np.ndarray, check: bool) -> int:
    """Run theta += scale * grad_theta(struct, theta) in place for steps
    steps.  With check, stop before the first step whose gradient is not
    finite.  Returns the number of steps taken."""
    # the finiteness test in one numpy call: grad.dot(zeros) is 0 for a
    # finite gradient and nan if an entry is nan or +-inf (0 * inf is nan)
    zeros = np.zeros_like(theta)
    for step in range(steps):
        grad = grad_theta(struct, theta)
        if check and grad.dot(zeros):  # nan is true, 0.0 and -0.0 are false
            return step
        theta += scale * grad
    return steps


def _gradient_run(objective, pol: NGramPolicy, cfg: OptimizerConfig,
                  maximize: bool) -> RunTrace:
    """Gradient steps of the constant size cfg.learning_rate from pol; a
    non-finite gradient or final value aborts the run.  A run that ends
    worse than its start (see DIVERGED_TOL) is not aborted but has not
    converged, and its diagnostic names both values.

    The steps test no gradient: nan and +-inf carry through theta += step,
    so a non-finite gradient leaves the final logits non-finite, and one
    test of them after the last step finds it.  Only then is the run made
    again from its start, testing each gradient, to stop before the first
    non-finite one.  That re-run retraces the first exactly because the
    objective's value_theta and grad_theta must be pure functions of
    (struct, theta).

    numpy's overflow and invalid-value warnings are off for the run: what
    they would report ends it, with its own diagnostic."""
    struct = pol._struct
    theta = pol.logits.copy()
    sign = 1.0 if maximize else -1.0
    # the signed step as a 0-d array with the Python float's bits: a float
    # operand would cost about 0.13 µs more per step (see the notes on
    # ngram's kernel)
    descent = (objective.grad_theta, struct, theta, cfg.steps,
               np.array(sign * cfg.learning_rate))
    value_theta = objective.value_theta
    with np.errstate(over="ignore", invalid="ignore"):
        first = value_theta(struct, theta)
        start = time.perf_counter()
        steps_run = _descend(*descent, check=False)
        if theta.dot(np.zeros_like(theta)):  # nan unless every entry is finite
            theta[:] = pol.logits
            steps_run = _descend(*descent, check=True)
        diagnostic = ("" if steps_run == cfg.steps
                      else f"non-finite gradient at step {steps_run}")
        last = value_theta(struct, theta)
        if not diagnostic and not math.isfinite(last):
            diagnostic = f"non-finite objective at step {steps_run}"
        grad_norm = (float("nan") if diagnostic else
                     float(np.linalg.norm(objective.grad_theta(struct, theta))))
    aborted = bool(diagnostic)
    if not aborted and sign * (last - first) < -DIVERGED_TOL * max(1.0, abs(first)):
        diagnostic = f"the objective ended at {last!r}, worse than its start {first!r}"
    return RunTrace(
        start_value=first,
        final_value=last,
        final_policy=pol.with_logits(theta),
        final_grad_norm=grad_norm,
        wall_time=time.perf_counter() - start,
        steps_run=steps_run,
        aborted=aborted,
        diagnostic=diagnostic,
        converged=not diagnostic and grad_norm < CONVERGED_GRAD_NORM)


def ascend_j_beta(fam: TiltedFamily, pol: NGramPolicy,
                  cfg: OptimizerConfig, beta: float) -> RunTrace:
    """Gradient ascent on E_pi[r] - beta * KL(pi, base), from the given policy.
    The ascent is one run: cfg.restarts must be 1."""
    if cfg.restarts != 1:
        raise ValueError("the J_beta ascent runs once; restarts must be 1")
    return _gradient_run(JBetaObjective(fam, beta), pol, cfg, maximize=True)


def fit_forward_kl(target: FiniteDistribution, template: NGramPolicy) -> RunTrace:
    """The minimizer of KL(target, pi) over the template's family, in closed form.

    The objective decouples across softmax blocks, so the optimum is the
    conditional projection of the target; no descent steps are run.  The
    trace holds the objective and its gradient norm at that point.
    """
    return _closed_form_run(ForwardKLObjective(target), target, template)


def fit_tvd(target: FiniteDistribution, template: NGramPolicy,
            cfg: OptimizerConfig) -> RunTrace:
    """Minimization of TVD(pi, target) over the template's family.

    In the full-order family the target lies in the family's closure, so the
    conditional projection attains TVD 0 (to round-off) and no step is run.
    Otherwise every restart runs a descent on the analytic subgradient, and
    then one call of ngram._polish_tvd polishes the endpoints of all the
    restarts that did not abort, in lockstep.  A polished run counts as
    converged when its polish stopped before the sweep cap, and its gradient
    norm is that of the analytic subgradient, taken for the returned run
    alone.
    Restart i starts from SeededRng(0).spawn(i).normal(n_params) and takes
    the constant step cfg.learning_rate, so it depends only on i.
    Returns the first restart lowest in (aborted, TVD): the lowest TVD after
    its polish among the restarts that did not abort.  The objective is
    non-convex in the logits, so no global optimality is claimed there.
    """
    objective = TVDObjective(target)
    if template.context_lengths == full_orders(template.space):
        # q = p, up to round-off, where every subdifferential of |q_s - p_s|
        # holds 0, so the least-norm subgradient is 0
        return _closed_form_run(objective, target, template, grad_norm=0.0)
    rng = SeededRng(0)
    traces = [_gradient_run(objective,
                            template.with_logits(rng.spawn(i).normal(template.n_params)),
                            cfg, maximize=False)
              for i in range(cfg.restarts)]
    polished = [i for i, trace in enumerate(traces) if not trace.aborted]
    if not polished:
        i = min(range(cfg.restarts), key=lambda j: traces[j].final_value)
        return replace(traces[i], restart_index=i)
    struct, p = template._struct, target.probs
    start = time.perf_counter()
    thetas, values, sweeps, capped = _polish_tvd(
        struct, [traces[i].final_policy.logits for i in polished], p)
    polish_time = time.perf_counter() - start
    k = min(range(len(polished)), key=values.__getitem__)
    i, theta = polished[k], thetas[k]
    n_sweeps, stopped = int(sweeps[k]), bool(capped[k])
    return replace(
        traces[i],
        restart_index=i,
        final_value=values[k],
        final_policy=template.with_logits(theta),
        final_grad_norm=float(np.linalg.norm(_tvd_subgradient(struct, theta, p))),
        wall_time=traces[i].wall_time + polish_time,
        diagnostic=f"TVD polish stopped at its {n_sweeps}-sweep cap" if stopped else "",
        converged=not stopped,
        polish_sweeps=n_sweeps)


def _closed_form_run(objective, target: FiniteDistribution, template: NGramPolicy,
                     grad_norm: float | None = None) -> RunTrace:
    """The zero-step run at the conditional projection of the target onto the
    template's family; grad_norm, when known, spares the gradient."""
    start = time.perf_counter()
    pol = conditional_projection(target, template.space, template.context_lengths)
    value = objective.value_theta(pol._struct, pol.logits)
    if grad_norm is None:
        grad_norm = float(np.linalg.norm(objective.grad_theta(pol._struct, pol.logits)))
    return RunTrace(
        start_value=value,
        final_value=value,
        final_policy=pol,
        final_grad_norm=grad_norm,
        wall_time=time.perf_counter() - start,
        steps_run=0,
        converged=grad_norm < CONVERGED_GRAD_NORM)

