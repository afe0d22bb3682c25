"""Deterministic first-order optimization of the enumerated policy objectives.

Plain gradient steps only: no momentum, no adaptivity.  Runs are pure
functions of (initial logits, config), so identical inputs give identical
outputs to the last bit.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

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
    grad_objective,
)
from .rng import SeededRng
from .dist import FiniteDistribution

# Hard cap on steps * restarts per call, to catch accidental budget blowups.
MAX_TOTAL_STEPS = 50_000_000

# A run counts as converged when its final gradient norm is below this.
CONVERGED_GRAD_NORM = 1e-6

# A trace records the objective every TRACE_STRIDE steps and at the last step.
TRACE_STRIDE = 100

# fit_tvd halves its step size every TVD_HALVING_STEPS steps.
TVD_HALVING_STEPS = 1000


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.1
    steps: int = 8000
    restarts: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("steps and restarts must be positive")
        if self.steps * self.restarts > MAX_TOTAL_STEPS:
            raise ValueError("steps * restarts exceeds the configured budget")


# Default config for the TVD reference fit.
TVD_FIT_CONFIG = OptimizerConfig(steps=5000, restarts=200)


@dataclass
class RunTrace:
    """Strided objective values plus the final state of one optimization run."""

    objective_values: np.ndarray
    final_policy: NGramPolicy
    final_grad_norm: float
    wall_time: float
    steps_run: int
    aborted: bool = False
    diagnostic: str = ""
    converged: bool = False
    restart_index: int = 0
    polish_sweeps: int = 0

    @property
    def final_value(self) -> float:
        return float(self.objective_values[-1])


def _gradient_run(objective, pol: NGramPolicy, cfg: OptimizerConfig,
                  maximize: bool, halving: bool = False) -> RunTrace:
    """Gradient steps from pol, of constant size or (halving) halved every
    TVD_HALVING_STEPS steps; a non-finite gradient or value aborts the run.

    numpy's overflow and invalid-value warnings are off for the run: what
    they would report ends it, with its own diagnostic."""
    struct = pol._struct
    theta = pol.logits.copy()
    sign = 1.0 if maximize else -1.0
    decay = 0.5 if halving else 1.0
    grad_theta, value_theta = objective.grad_theta, objective.value_theta
    learning_rate, steps = cfg.learning_rate, cfg.steps
    steps_run, diagnostic = steps, ""
    with np.errstate(over="ignore", invalid="ignore"):
        values = [value_theta(struct, theta)]
        start = time.perf_counter()
        for step in range(steps):
            grad = grad_theta(struct, theta)
            if not np.isfinite(grad).all():
                steps_run, diagnostic = step, f"non-finite gradient at step {step}"
                break
            lr = learning_rate * decay ** (step // TVD_HALVING_STEPS)
            theta += sign * lr * grad
            if (step + 1) % TRACE_STRIDE == 0 or step + 1 == steps:
                v = value_theta(struct, theta)
                if not math.isfinite(v):
                    steps_run = step + 1
                    diagnostic = f"non-finite objective at step {steps_run}"
                    break
                values.append(v)
        grad_norm = (float("nan") if diagnostic else
                     float(np.linalg.norm(grad_theta(struct, theta))))
    return RunTrace(
        objective_values=np.array(values),
        final_policy=pol.with_logits(theta),
        final_grad_norm=grad_norm,
        wall_time=time.perf_counter() - start,
        steps_run=steps_run,
        aborted=bool(diagnostic),
        diagnostic=diagnostic,
        converged=grad_norm < CONVERGED_GRAD_NORM)


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
    start = time.perf_counter()
    objective = ForwardKLObjective(target)
    pol = conditional_projection(target, template.space, template.context_lengths)
    value = objective.value_theta(pol._struct, pol.logits)
    grad_norm = float(np.linalg.norm(objective.grad_theta(pol._struct, pol.logits)))
    return RunTrace(
        objective_values=np.array([value]),
        final_policy=pol,
        final_grad_norm=grad_norm,
        wall_time=time.perf_counter() - start,
        steps_run=0,
        converged=grad_norm < CONVERGED_GRAD_NORM)


def fit_tvd(target: FiniteDistribution, template: NGramPolicy,
            cfg: OptimizerConfig = TVD_FIT_CONFIG) -> RunTrace:
    """Minimization of TVD(pi, target) over the template's family.

    In the full-order family the target lies in the family's closure, so the
    conditional projection attains TVD 0 (to round-off) and no step is run.
    Otherwise each restart is a descent on the analytic subgradient followed
    by the exact row polish of ngram._polish_tvd.  Restart i starts from
    SeededRng(0).spawn(i).normal(n_params) and halves its step every
    TVD_HALVING_STEPS steps, so it depends only on i.  Returns the restart
    with the lowest TVD after its polish; the objective is non-convex in the
    logits, so no global optimality is claimed there.
    """
    if template.context_lengths == full_orders(template.space):
        return _tvd_closed_form(target, template)
    objective = TVDObjective(target)
    rng = SeededRng(0)
    best = None
    for i in range(cfg.restarts):
        start_pol = template.with_logits(rng.spawn(i).normal(template.n_params))
        trace = _gradient_run(objective, start_pol, cfg, maximize=False,
                              halving=True)
        if not trace.aborted:
            trace = _polished(trace, target.probs)
        trace.restart_index = i
        if best is None or (not trace.aborted
                            and trace.final_value < best.final_value):
            best = trace
    return best


def _tvd_closed_form(target: FiniteDistribution, template: NGramPolicy) -> RunTrace:
    start = time.perf_counter()
    pol = conditional_projection(target, template.space, template.context_lengths)
    value = TVDObjective(target).value_theta(pol._struct, pol.logits)
    # q = p, up to round-off, where every subdifferential of |q_s - p_s|
    # holds 0, so the least-norm subgradient is 0
    return RunTrace(
        objective_values=np.array([value]),
        final_policy=pol,
        final_grad_norm=0.0,
        wall_time=time.perf_counter() - start,
        steps_run=0,
        converged=True)


def _polished(trace: RunTrace, p: np.ndarray) -> RunTrace:
    """The descent's trace continued by the exact row polish.  The run counts
    as converged when the polish stopped before its sweep cap, at a point no
    sweep of row minimizations improves; its gradient norm is that of the
    analytic subgradient there."""
    start = time.perf_counter()
    pol = trace.final_policy
    theta, value, sweeps, capped = _polish_tvd(pol._struct, pol.logits, p)
    grad_norm = float(np.linalg.norm(_tvd_subgradient(pol._struct, theta, p)))
    return RunTrace(
        objective_values=np.append(trace.objective_values, value),
        final_policy=pol.with_logits(theta),
        final_grad_norm=grad_norm,
        wall_time=trace.wall_time + time.perf_counter() - start,
        steps_run=trace.steps_run,
        diagnostic=(f"TVD polish stopped at its {sweeps}-sweep cap"
                    if capped else ""),
        converged=not capped,
        polish_sweeps=sweeps)


def verify_gradients(pol: NGramPolicy, objective, h: float = FD_STEP) -> float:
    """Max elementwise relative error between analytic and central-difference
    gradients, with the denominator guarded by max(|analytic|, |fd|, 1e-12).

    A component counts as zero, error 0, when the analytic side is below
    1e-12 and the difference within its round-off: eps * |f| / h at the
    policy, or 1e-12 if that is larger."""
    if h <= 0:
        raise ValueError("h must be positive")
    struct = pol._struct
    analytic = grad_objective(pol, objective)
    fd = central_difference(
        lambda thetas: np.array([objective.value_theta(struct, t) for t in thetas]),
        pol.logits, h)
    f = objective.value_theta(struct, pol.logits)
    round_off = max(np.finfo(float).eps * abs(f) / h, 1e-12)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-12)
    err = np.abs(analytic - fd) / denom
    err[(np.abs(analytic) < 1e-12) & (np.abs(fd) < round_off)] = 0.0
    return float(err.max())
