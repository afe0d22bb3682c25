"""One-parameter tilted exponential family and its comparison identities.

The family is generated by a full-support base distribution and a bounded
reward: p_lam(y) = base(y) * exp(lam * r(y) - A(lam)).  For binary rewards
every quantity of interest has a closed elementary form in terms of the
base mass on the valid set; for general bounded rewards the same maps exist
and are computed numerically (the moment map is inverted by safeguarded
Newton iteration).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    FiniteDistribution,
    RewardFn,
    condition,
    expected_reward,
    kl_divergence_finite,
)

# Starting bracket for the general-reward natural-parameter search; each end
# doubles until it brackets the moment, up to _MAX_LAMBDA.
_LAMBDA_BRACKET = 60.0
_MAX_LAMBDA = 1e300
_MOMENT_TOL = 1e-12
_MAX_NEWTON_ITERS = 200


class TiltedFamily:
    """A base distribution plus a reward, yielding the tilted curve p_lam."""

    __slots__ = ("base", "reward", "_log_base", "A1", "A0")

    def __init__(self, base: FiniteDistribution, reward: RewardFn):
        if len(base) != len(reward):
            raise ValueError("base and reward have mismatched dimensions")
        if np.any(base.probs == 0.0):
            raise ValueError("base distribution must have full support")
        if reward.m == reward.M:
            raise ValueError("reward must be non-constant")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "reward", reward)
        log_base = np.log(base.probs)
        log_base.setflags(write=False)
        object.__setattr__(self, "_log_base", log_base)
        if reward.is_binary:
            a1 = float(base.probs[reward.values == 1.0].sum())
            object.__setattr__(self, "A1", a1)
            object.__setattr__(self, "A0", 1.0 - a1)
        else:
            object.__setattr__(self, "A1", None)
            object.__setattr__(self, "A0", None)

    def __setattr__(self, name, value):
        raise AttributeError("TiltedFamily is immutable")

    @property
    def is_binary(self) -> bool:
        return self.reward.is_binary


@dataclass(frozen=True)
class GeometryPoint:
    """One point on the tilted curve: natural parameter, moment, KL cost."""

    lam: float
    mu: float
    kappa: float

    @staticmethod
    def at_lambda(fam: TiltedFamily, lam: float) -> "GeometryPoint":
        mu = moment(fam, lam)
        return GeometryPoint(lam=lam, mu=mu, kappa=divergence_cost(fam, mu))


@dataclass(frozen=True)
class ComparisonReport:
    """Pairwise comparison of two candidate distributions at a fixed beta.

    d_j           : J_beta(pi2) - J_beta(pi)
    d_kl_tilted   : KL(pi, p_lam) - KL(pi2, p_lam)       with lam = 1/beta
    d_validity    : E_pi2[r] - E_pi[r]
    d_kl_base     : KL(pi2, base) - KL(pi, base)
    """

    d_j: float
    d_kl_tilted: float
    d_validity: float
    d_kl_base: float


def _shifted_log_weights(fam: TiltedFamily, lam: float):
    """For z = log base + lam r: m = max z, z - m, e^(z - m) and its sum s,
    so that A(lam) = m + log s and log p_lam = z - m - log s."""
    z = fam._log_base + lam * fam.reward.values
    m = z.max()
    z -= m
    w = np.exp(z)
    return m, z, w, w.sum()


def log_partition(fam: TiltedFamily, lam: float) -> float:
    """A(lam) = log sum_y base(y) exp(lam r(y)), via max-shifted log-sum-exp."""
    m, _, _, s = _shifted_log_weights(fam, lam)
    return float(m + np.log(s))


def tilted(fam: TiltedFamily, lam: float) -> FiniteDistribution:
    """The tilted distribution p_lam.  Full support for every finite lam."""
    _, _, w, s = _shifted_log_weights(fam, lam)
    return FiniteDistribution(fam.base.outcomes, w / s)


def kl_to_tilted(fam: TiltedFamily, q: FiniteDistribution, lam: float) -> float:
    """KL(q, p_lam), from log p_lam: finite at every finite lam, also where
    p_lam itself underflows to zero on some outcome."""
    _, z, _, s = _shifted_log_weights(fam, lam)
    log_p = z - np.log(s)
    m = q.probs > 0
    return float(np.sum(q.probs[m] * (np.log(q.probs[m]) - log_p[m])))


def moment(fam: TiltedFamily, lam: float):
    """Expected reward under p_lam; strictly increasing in lam.

    Binary rewards use the closed form A1 e^lam / (A0 + A1 e^lam), computed
    in extended precision: near the bounds mu saturates exponentially fast,
    and a double cannot hold enough of the gap 1 - mu for the logit map to
    recover lam afterwards.  It is evaluated with e^-|lam|, so no lam
    overflows.
    """
    if fam.is_binary:
        a0, a1 = np.longdouble(fam.A0), np.longdouble(fam.A1)
        e = np.exp(-np.longdouble(abs(lam)))
        return a1 / (a1 + a0 * e) if lam >= 0 else a1 * e / (a0 + a1 * e)
    return expected_reward(tilted(fam, lam), fam.reward)


def natural_param(fam: TiltedFamily, mu: float) -> float:
    """The unique lam with moment(lam) = mu, for mu strictly inside (m, M).

    Binary rewards use the closed form log(mu/(1-mu)) + log(A0/A1).  The
    general case runs bisection refined by Newton steps with derivative
    Var_{p_lam}(r), stopping on a 1e-12 moment residual or on a bracket
    four ulps of lam wide.  The bracket starts at [-60, 60] and each end
    doubles until the moment there brackets mu.  It raises ValueError when
    neither stop is reached (for instance when mu is so near a reward bound
    that no |lam| <= 1e300 brackets it).
    """
    if not (fam.reward.m < mu < fam.reward.M):
        raise ValueError("unattainable moment")
    if fam.is_binary:
        # extended precision mirrors moment(); see the note there
        mu_l = np.longdouble(mu)
        lam = np.log(mu_l / (np.longdouble(1.0) - mu_l))
        lam += np.log(np.longdouble(fam.A0) / np.longdouble(fam.A1))
        return float(lam)
    mu = float(mu)
    r = fam.reward.values
    lo, hi = -_LAMBDA_BRACKET, _LAMBDA_BRACKET
    while hi < _MAX_LAMBDA and moment(fam, hi) < mu:
        hi *= 2.0
    while lo > -_MAX_LAMBDA and moment(fam, lo) > mu:
        lo *= 2.0
    lam = 0.0
    for _ in range(_MAX_NEWTON_ITERS):
        p = tilted(fam, lam).probs
        mu_lam = float(p @ r)
        resid = mu_lam - mu
        var = float(p @ (r - mu_lam) ** 2)
        # residual alone is not enough near the reward bounds, where the
        # moment map is nearly flat; require the Newton step to be tiny too
        if abs(resid) <= _MOMENT_TOL and (var == 0.0 or abs(resid / var) <= 1e-11):
            return lam
        if resid > 0:
            hi = lam
        else:
            lo = lam
        # at the moment's round-off floor the residual may never pass the
        # test above; a bracket a few ulps wide pins lam all the same
        if hi - lo <= 4.0 * np.spacing(max(abs(lo), abs(hi))):
            return lam
        step = lam - resid / var if var > 0 else None
        if step is not None and lo < step < hi:
            lam = step
        else:
            lam = 0.5 * (lo + hi)
    raise ValueError(f"natural_param did not converge for mu={mu!r}; "
                     f"last moment residual {resid:.3e}")


def divergence_cost(fam: TiltedFamily, mu: float) -> float:
    """kappa(mu) = KL(p_{lam(mu)} || base) = lam(mu)*mu - A(lam(mu)).

    Binary rewards use the closed form KL(Bernoulli(mu) || Bernoulli(A1)).
    A reward bound (mu equal to the reward's min or max) extends
    continuously to the kl_ceiling -log base(bound set) of
    attained_bound_limits; other endpoint values are rejected.
    """
    mu = float(mu)
    r = fam.reward
    if mu == r.M:
        return attained_bound_limits(fam, "upper").kl_ceiling
    if mu == r.m:
        return attained_bound_limits(fam, "lower").kl_ceiling
    if not (r.m < mu < r.M):
        raise ValueError("moment outside the attainable range")
    if fam.is_binary:
        # KL(Bernoulli(mu) || Bernoulli(A1))
        return mu * math.log(mu / fam.A1) + (1.0 - mu) * math.log((1.0 - mu) / fam.A0)
    # lam*mu - A(lam) cancels at large |lam| (relative error 2.9e-12 at
    # lam = 20000), which is why binary rewards take the closed form
    lam = natural_param(fam, mu)
    return lam * mu - log_partition(fam, lam)


def kl_difference(fam: TiltedFamily, q: FiniteDistribution, l1: float, l2: float) -> float:
    """KL(q, p_{l2}) - KL(q, p_{l1}) without computing either KL directly.

    Equals A(l2) - A(l1) + E_q[r] * (l1 - l2); valid even when both KL terms
    are individually infinite.
    """
    mu_q = expected_reward(q, fam.reward)
    return log_partition(fam, l2) - log_partition(fam, l1) + mu_q * (l1 - l2)


def j_beta(fam: TiltedFamily, q: FiniteDistribution, beta: float) -> float:
    """E_q[r] - beta * KL(q, base); finite, because the base has full support."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return expected_reward(q, fam.reward) - beta * kl_divergence_finite(q, fam.base)


def compare(fam: TiltedFamily, pi: FiniteDistribution, pi2: FiniteDistribution,
            beta: float) -> ComparisonReport:
    """Populate all four comparison deltas between pi and pi2 at this beta."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    lam = 1.0 / beta
    p_lam = tilted(fam, lam)
    d_j = j_beta(fam, pi2, beta) - j_beta(fam, pi, beta)
    d_kl_tilted = (kl_divergence_finite(pi, p_lam)
                   - kl_divergence_finite(pi2, p_lam))
    d_validity = expected_reward(pi2, fam.reward) - expected_reward(pi, fam.reward)
    d_kl_base = (kl_divergence_finite(pi2, fam.base)
                 - kl_divergence_finite(pi, fam.base))
    return ComparisonReport(d_j=d_j, d_kl_tilted=d_kl_tilted,
                            d_validity=d_validity, d_kl_base=d_kl_base)


@dataclass(frozen=True)
class ProfilePoint:
    """Closed-form proximity of p_lam to the filtered model, binary rewards."""

    lam: float
    tvd_to_pstar: float
    fkl_from_pstar: float
    rkl_to_pstar: float


def convergence_profile(fam: TiltedFamily, lambdas) -> list[ProfilePoint]:
    """Per-lambda closed-form TVD / forward-KL / reverse-KL to the filtered model.

    tvd = A0 / (A0 + A1 e^lam), fkl = log(1 + (A0/A1) e^-lam), and the
    reverse KL is infinite at every finite lam (support mismatch).  Both
    are evaluated with e^-|lam|, so no lam overflows.
    """
    if not fam.is_binary:
        raise ValueError(
            "convergence_profile requires a binary reward; "
            "use attained_bound_limits for general bounded rewards")
    a0, a1 = fam.A0, fam.A1
    points = []
    for lam in lambdas:
        e = math.exp(-abs(lam))
        if lam >= 0:
            tvd, fkl = a0 * e / (a0 * e + a1), math.log1p((a0 / a1) * e)
        else:
            tvd, fkl = a0 / (a0 + a1 * e), -lam + math.log(a0 / a1) + math.log1p((a1 / a0) * e)
        points.append(ProfilePoint(lam=float(lam), tvd_to_pstar=tvd,
                                   fkl_from_pstar=fkl,
                                   rkl_to_pstar=math.inf))
    return points


@dataclass(frozen=True)
class BoundLimit:
    limit_dist: FiniteDistribution
    kl_ceiling: float


def attained_bound_limits(fam: TiltedFamily, direction: str) -> BoundLimit:
    """The limit of p_lam as lam -> +inf ("upper") or -inf ("lower").

    The limit is the base conditioned on the set attaining the reward bound,
    and the KL-to-base cost along the curve approaches -log base(bound set).
    """
    r = fam.reward
    if direction == "upper":
        mask = r.values == r.M
    elif direction == "lower":
        mask = r.values == r.m
    else:
        raise ValueError("direction must be 'upper' or 'lower'")
    limit = condition(fam.base, mask)
    ceiling = -math.log(float(fam.base.probs[mask].sum()))
    return BoundLimit(limit_dist=limit, kl_ceiling=ceiling)
