"""One-parameter tilted exponential family and its comparison identities.

The family is generated by a full-support base distribution and a bounded
reward: p_lam(y) = base(y) * exp(lam * r(y) - A(lam)).  For binary rewards
every quantity of interest has a closed elementary form in terms of the
base mass on the valid set; for general bounded rewards the same maps exist
and are computed numerically (the moment map is inverted by bisection).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    FiniteDistribution,
    RewardFn,
    _kl_sum,
    condition,
    expected_reward,
    kl_divergence_finite,
)

# Starting bracket for the general-reward natural-parameter search; each end
# doubles until it brackets the moment, up to _MAX_LAMBDA.
_LAMBDA_BRACKET = 60.0
_MAX_LAMBDA = 1e300


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


def _shifted_log_weights(fam: TiltedFamily, lam: float):
    """For the reward bound b (M if lam >= 0, else m): the shift c = lam b,
    z = log base + lam (r - b) <= log base, w = e^z and its sum s, so that
    A(lam) = c + log s and log p_lam = z - log s.  The outcomes attaining b
    keep z = log base at every lam, so s never underflows and log base is
    never absorbed into a large lam r."""
    r = fam.reward
    bound = r.M if lam >= 0 else r.m
    z = fam._log_base + lam * (r.values - bound)
    w = np.exp(z)
    return lam * bound, z, w, w.sum()


def log_partition(fam: TiltedFamily, lam: float) -> float:
    """A(lam) = log sum_y base(y) exp(lam r(y)), via bound-shifted log-sum-exp."""
    c, _, _, s = _shifted_log_weights(fam, lam)
    return float(c + np.log(s))


def tilted(fam: TiltedFamily, lam: float) -> FiniteDistribution:
    """The tilted distribution p_lam.  Full support for every finite lam."""
    _, _, w, s = _shifted_log_weights(fam, lam)
    return FiniteDistribution(fam.base.outcomes, w / s)


def kl_to_tilted(fam: TiltedFamily, q: FiniteDistribution, lam: float) -> float:
    """KL(q, p_lam), from log p_lam: finite at every finite lam, also where
    p_lam itself underflows to zero on some outcome (see dist._kl_sum)."""
    _, z, _, s = _shifted_log_weights(fam, lam)
    m = q.probs > 0
    return _kl_sum(q.probs[m], (z - np.log(s))[m])


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
    _, _, w, s = _shifted_log_weights(fam, lam)
    return float(w @ fam.reward.values / s)


def natural_param(fam: TiltedFamily, mu: float) -> float:
    """The unique lam with moment(lam) = mu, for mu strictly inside (m, M).

    Binary rewards use the closed form log(mu/(1-mu)) + log(A0/A1).  The
    general case starts from the bracket [-60, 60] and doubles each end
    until the moment there brackets mu, then bisects until the bracket is
    four ulps of lam wide and returns its midpoint.  It raises ValueError
    when no |lam| <= 1e300 brackets mu (mu within round-off of a bound).
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
    lo, hi = -_LAMBDA_BRACKET, _LAMBDA_BRACKET
    while moment(fam, hi) < mu:
        if hi >= _MAX_LAMBDA:
            raise ValueError(f"no lambda up to {_MAX_LAMBDA:g} reaches mu={mu!r}")
        hi *= 2.0
    while moment(fam, lo) > mu:
        if lo <= -_MAX_LAMBDA:
            raise ValueError(f"no lambda down to {-_MAX_LAMBDA:g} reaches mu={mu!r}")
        lo *= 2.0
    while hi - lo > 4.0 * np.spacing(max(abs(lo), abs(hi))):
        mid = 0.5 * (lo + hi)
        if moment(fam, mid) < mu:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


@dataclass(frozen=True)
class ProfilePoint:
    """Closed-form proximity of p_lam to the filtered model, binary rewards."""

    lam: float
    tvd_to_pstar: float
    fkl_from_pstar: float


def convergence_profile(fam: TiltedFamily, lambdas) -> list[ProfilePoint]:
    """Per-lambda closed-form TVD and forward KL to the filtered model.

    tvd = A0 / (A0 + A1 e^lam) and fkl = log(1 + (A0/A1) e^-lam), both
    evaluated with e^-|lam|, so no lam overflows.  The reverse KL is
    infinite at every finite lam (support mismatch), so it has no field.
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
                                   fkl_from_pstar=fkl))
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
