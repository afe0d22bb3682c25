"""Deterministic first-order optimization of the enumerated policy objectives.

Plain gradient steps only: no momentum, no adaptivity.  Runs are pure
functions of (initial logits, config), so identical inputs give identical
outputs to the last bit.
"""
from __future__ import annotations

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
    conditional_projection,
    grad_objective,
)
from .rng import SeededRng
from .dist import FiniteDistribution

# Hard cap on steps * restarts per call, to catch accidental budget blowups.
MAX_TOTAL_STEPS = 50_000_000

# A run counts as converged when its final gradient norm is below this.
CONVERGED_GRAD_NORM = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.1
    steps: int = 8000
    # ("constant",) or ("decay", factor, every_k)
    schedule: tuple = ("constant",)
    restarts: int = 1
    # ("base_model",) | ("warm_start",) | ("random", seed, sigma)
    init: tuple = ("base_model",)
    record_every: int = 100

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("steps and restarts must be positive")
        if self.steps * self.restarts > MAX_TOTAL_STEPS:
            raise ValueError("steps * restarts exceeds the configured budget")
        if self.schedule[0] == "decay":
            factor = self.schedule[1]
            if not 0 < factor < 1:
                raise ValueError("decay factor must be in (0, 1)")
        elif self.schedule[0] != "constant":
            raise ValueError(f"unknown schedule {self.schedule[0]!r}")

    def lr_at(self, step: int) -> float:
        if self.schedule[0] == "decay":
            _, factor, every = self.schedule
            return self.learning_rate * factor ** (step // every)
        return self.learning_rate


# Default config for the TVD reference fit.
TVD_FIT_CONFIG = OptimizerConfig(
    learning_rate=0.1, steps=5000, schedule=("decay", 0.5, 1000),
    restarts=200, init=("random", 0, 1.0))


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

    @property
    def final_value(self) -> float:
        return float(self.objective_values[-1])


def _gradient_run(objective, pol: NGramPolicy, cfg: OptimizerConfig,
                  maximize: bool) -> RunTrace:
    struct = pol._struct
    theta = pol.logits.copy()
    sign = 1.0 if maximize else -1.0
    values = [objective.value_theta(struct, theta)]
    start = time.perf_counter()
    grad = np.zeros_like(theta)
    for step in range(cfg.steps):
        grad = objective.grad_theta(struct, theta)
        if not np.all(np.isfinite(grad)):
            return RunTrace(
                objective_values=np.array(values),
                final_policy=pol.with_logits(theta),
                final_grad_norm=float("nan"),
                wall_time=time.perf_counter() - start,
                steps_run=step, aborted=True,
                diagnostic=f"non-finite gradient at step {step}")
        theta += sign * cfg.lr_at(step) * grad
        if (step + 1) % cfg.record_every == 0 or step + 1 == cfg.steps:
            v = objective.value_theta(struct, theta)
            if not np.isfinite(v):
                return RunTrace(
                    objective_values=np.array(values),
                    final_policy=pol.with_logits(theta),
                    final_grad_norm=float("nan"),
                    wall_time=time.perf_counter() - start,
                    steps_run=step + 1, aborted=True,
                    diagnostic=f"non-finite objective at step {step + 1}")
            values.append(v)
    grad_norm = float(np.linalg.norm(objective.grad_theta(struct, theta)))
    return RunTrace(
        objective_values=np.array(values),
        final_policy=pol.with_logits(theta),
        final_grad_norm=grad_norm,
        wall_time=time.perf_counter() - start,
        steps_run=cfg.steps,
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
    """Best-effort minimization of TVD(pi, target): multi-restart descent
    with central finite-difference gradients.

    Restart initializations are i.i.d. Gaussian logits with per-restart
    seeds spawned from the master seed by counter.  Returns the lowest-TVD
    run; no global-optimality claim is made (the objective is non-convex in
    the logits).
    """
    objective = TVDObjective(target)
    if cfg.init[0] == "random":
        master, sigma = int(cfg.init[1]), float(cfg.init[2])
    else:
        master, sigma = 0, 1.0
    rng = SeededRng(master)
    best = None
    for i in range(cfg.restarts):
        if cfg.init[0] == "random" or i > 0:
            theta0 = rng.spawn(i).normal(template.n_params, sigma=sigma)
            start_pol = template.with_logits(theta0)
        else:
            start_pol = template
        trace = _gradient_run(objective, start_pol, cfg, maximize=False)
        trace.restart_index = i
        if not trace.aborted and (best is None or trace.final_value < best.final_value):
            best = trace
        elif best is None:
            best = trace
    return best


def verify_gradients(pol: NGramPolicy, objective, h: float = FD_STEP) -> float:
    """Max elementwise relative error between analytic and central-difference
    gradients, with the denominator guarded by max(|analytic|, |fd|, 1e-12)."""
    if h <= 0:
        raise ValueError("h must be positive")
    struct = pol._struct
    theta = pol.logits
    analytic = grad_objective(pol, objective)
    fd = np.empty_like(analytic)
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = h
        fd[i] = (objective.value_theta(struct, theta + e)
                 - objective.value_theta(struct, theta - e)) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-12)
    err = np.abs(analytic - fd) / denom
    # both sides at the guard floor means a genuinely zero component
    err[(np.abs(analytic) < 1e-12) & (np.abs(fd) < 1e-12)] = 0.0
    return float(err.max())


def warm_start_run(fam: TiltedFamily, pol: NGramPolicy, from_lambda: float,
                   to_lambda: float, cfg: OptimizerConfig) -> tuple:
    """Two chained ascents: first at a moderate natural parameter, then at the
    target one initialized from the first result.  Returns both traces."""
    first = ascend_j_beta(fam, pol, cfg, beta=1.0 / from_lambda)
    second = ascend_j_beta(fam, first.final_policy, cfg, beta=1.0 / to_lambda)
    return first, second
