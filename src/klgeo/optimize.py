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
    FD_STEP,
    ForwardKLObjective,
    JBetaObjective,
    NGramPolicy,
    TVDObjective,
    _polish_tvd,
    _tvd_subgradient,
    central_difference,
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

# fit_tvd halves its step size every TVD_HALVING_STEPS steps.
TVD_HALVING_STEPS = 1000


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
    """One optimization run: the objective at its start and at final_policy."""

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


def _descend(grad_theta, struct, theta: np.ndarray, steps: int, rate: float,
             decay: float, check: bool) -> int:
    """Run theta += scale * grad_theta(struct, theta) in place for steps steps,
    with scale = rate * decay ** (step // TVD_HALVING_STEPS).  With check,
    stop before the first step whose gradient is not finite.  Returns the
    number of steps taken."""
    # the finiteness test in one numpy call: grad.dot(zeros) is 0 for a
    # finite gradient and nan if an entry is nan or +-inf (0 * inf is nan)
    zeros = np.zeros_like(theta)
    for step in range(steps):
        grad = grad_theta(struct, theta)
        if check and grad.dot(zeros):  # nan is true, 0.0 and -0.0 are false
            return step
        # the step size changes only at a halving, so it is made there, as a
        # 0-d array with the Python float's bits: a float operand would cost
        # about 0.13 µs more per step (see the notes on ngram's kernel)
        if step % TVD_HALVING_STEPS == 0:
            scale = np.array(rate * decay ** (step // TVD_HALVING_STEPS))
        theta += scale * grad
    return steps


def _gradient_run(objective, pol: NGramPolicy, cfg: OptimizerConfig,
                  maximize: bool, halving: bool = False) -> RunTrace:
    """Gradient steps from pol, of constant size or (halving) halved every
    TVD_HALVING_STEPS steps; a non-finite gradient or final value aborts the run.
    A run that ends worse than its start (see DIVERGED_TOL) is not aborted
    but has not converged, and its diagnostic names both values.

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
    descent = (objective.grad_theta, struct, theta, cfg.steps,
               sign * cfg.learning_rate, 0.5 if halving else 1.0)
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
    """Gradient ascent on E_pi[r] - beta * KL(pi, base), from the given policy."""
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
    Otherwise each restart is a descent on the analytic subgradient followed,
    unless it aborted, by the exact row polish of ngram._polish_tvd.  The
    polished run counts as converged when the polish stopped before its
    sweep cap, and its gradient norm is that of the analytic subgradient.
    Restart i starts from SeededRng(0).spawn(i).normal(n_params) and halves
    its step every TVD_HALVING_STEPS steps, so it depends only on i.
    Returns the first restart lowest in (aborted, TVD): the lowest TVD after
    its polish among the restarts that did not abort.  The objective is
    non-convex in the logits, so no global optimality is claimed there.
    """
    objective = TVDObjective(target)
    if template.context_lengths == full_orders(template.space):
        # q = p, up to round-off, where every subdifferential of |q_s - p_s|
        # holds 0, so the least-norm subgradient is 0
        return _closed_form_run(objective, target, template, grad_norm=0.0)
    p = target.probs
    rng = SeededRng(0)
    best = None
    for i in range(cfg.restarts):
        start_pol = template.with_logits(rng.spawn(i).normal(template.n_params))
        trace = _gradient_run(objective, start_pol, cfg, maximize=False,
                              halving=True)
        if not trace.aborted:
            start, pol = time.perf_counter(), trace.final_policy
            theta, value, sweeps, capped = _polish_tvd(pol._struct, pol.logits, p)
            trace = replace(
                trace,
                final_value=value,
                final_policy=pol.with_logits(theta),
                final_grad_norm=float(np.linalg.norm(
                    _tvd_subgradient(pol._struct, theta, p))),
                wall_time=trace.wall_time + time.perf_counter() - start,
                diagnostic=(f"TVD polish stopped at its {sweeps}-sweep cap"
                            if capped else ""),
                converged=not capped,
                polish_sweeps=sweeps)
        trace = replace(trace, restart_index=i)
        if best is None or (trace.aborted, trace.final_value) < (
                best.aborted, best.final_value):
            best = trace
    return best


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


def verify_gradients(pol: NGramPolicy, objective) -> float:
    """Max elementwise relative error between analytic and central-difference
    gradients (step FD_STEP), with the denominator guarded by
    max(|analytic|, |fd|, 1e-12).

    A component counts as zero, error 0, when the analytic side is below
    1e-12 and the difference within its round-off: eps * |f| / FD_STEP at
    the policy, or 1e-12 if that is larger."""
    struct = pol._struct
    analytic = objective.grad_theta(struct, pol.logits)
    fd = central_difference(lambda t: objective.value_theta(struct, t), pol.logits)
    f = objective.value_theta(struct, pol.logits)
    round_off = max(np.finfo(float).eps * abs(f) / FD_STEP, 1e-12)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-12)
    err = np.abs(analytic - fd) / denom
    err[(np.abs(analytic) < 1e-12) & (np.abs(fd) < round_off)] = 0.0
    return float(err.max())
