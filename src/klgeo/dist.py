"""Exact finite probability distributions and divergence primitives.

Everything downstream works with explicit probability vectors over a small
enumerated outcome set, so all divergences are computed by direct summation
with the 0*log(0) = 0 convention.  No sampling, no log-space storage.
"""
from __future__ import annotations

import math

import numpy as np

# Constructors renormalize when the sum is within this of 1, reject otherwise.
_RENORM_ATOL = 1e-9


class FiniteDistribution:
    """A probability vector over an ordered, enumerated outcome set.

    Immutable after construction.  The outcome order is the canonical
    enumeration order of the sample space; all binary operations require
    identical outcome tuples.
    """

    __slots__ = ("outcomes", "probs")

    def __init__(self, outcomes, probs):
        outcomes = tuple(outcomes)
        probs = np.array(probs, dtype=float)
        if probs.ndim != 1 or len(outcomes) != probs.shape[0]:
            raise ValueError("outcomes and probs must have matching length")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcomes must be distinct")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        with np.errstate(over="ignore"):  # an overflowing sum fails below
            total = float(probs.sum())
        if abs(total - 1.0) > _RENORM_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if total != 1.0:
            probs = probs / total
        probs.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "probs", probs)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteDistribution is immutable")

    def __len__(self):
        return len(self.outcomes)

    def __eq__(self, other):
        if not isinstance(other, FiniteDistribution):
            return NotImplemented
        return self.outcomes == other.outcomes and np.array_equal(self.probs, other.probs)

    def __repr__(self):
        return f"FiniteDistribution({len(self)} outcomes)"

    def index_of(self, outcome) -> int:
        """Position of outcome; ValueError if it is not an outcome."""
        return self.outcomes.index(outcome)

    def prob(self, outcome) -> float:
        return float(self.probs[self.index_of(outcome)])

    @staticmethod
    def dirac(outcomes, at) -> "FiniteDistribution":
        outcomes = tuple(outcomes)
        probs = np.zeros(len(outcomes))
        probs[outcomes.index(at)] = 1.0
        return FiniteDistribution(outcomes, probs)

    @staticmethod
    def uniform(outcomes) -> "FiniteDistribution":
        outcomes = tuple(outcomes)
        n = len(outcomes)
        return FiniteDistribution(outcomes, np.full(n, 1.0 / n))


class RewardFn:
    """A bounded real reward aligned with the canonical outcome order."""

    __slots__ = ("values", "m", "M")

    def __init__(self, values):
        values = np.array(values, dtype=float)
        if values.ndim != 1 or values.shape[0] == 0:
            raise ValueError("reward values must be a nonempty vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("reward values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "m", float(values.min()))
        object.__setattr__(self, "M", float(values.max()))

    def __setattr__(self, name, value):
        raise AttributeError("RewardFn is immutable")

    def __len__(self):
        return self.values.shape[0]

    @property
    def is_binary(self) -> bool:
        return bool(np.all((self.values == 0.0) | (self.values == 1.0)))


class BinaryVerifier(RewardFn):
    """A {0,1}-valued reward given by a boolean validity mask.

    Requires at least two valid outcomes and at least one invalid one, so
    both the valid set and its complement are meaningful.
    """

    __slots__ = ("mask",)

    def __init__(self, mask):
        mask = np.array(mask, dtype=bool)
        n_valid = int(mask.sum())
        if n_valid < 2:
            raise ValueError("verifier must accept at least two outcomes")
        if n_valid == mask.size:
            raise ValueError("verifier must reject at least one outcome")
        super().__init__(mask.astype(float))
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)


def _check_aligned(p: FiniteDistribution, q: FiniteDistribution):
    if p.outcomes != q.outcomes:
        raise ValueError("distributions are over different outcome spaces")


def _kl_sum(pm: np.ndarray, log_qm: np.ndarray) -> float:
    """sum pm (log pm - log_qm) for pm > 0: no ratio pm / qm, which
    overflows where qm is subnormal.  A negative sum is round-off of a KL
    below the sum's absolute error and returns 0.0; nan passes through."""
    kl = float(np.sum(pm * (np.log(pm) - log_qm)))
    return 0.0 if kl < 0.0 else kl


def kl_divergence(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """KL(p || q), summing only over the support of p (see _kl_sum);
    math.inf when some outcome has p > 0, q = 0."""
    _check_aligned(p, q)
    mask = p.probs > 0
    qm = q.probs[mask]
    if np.any(qm == 0.0):
        return math.inf
    return _kl_sum(p.probs[mask], np.log(qm))


def kl_divergence_finite(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """KL(p || q), for callers that know q covers p's support."""
    d = kl_divergence(p, q)
    if d == math.inf:
        raise ValueError("KL divergence is infinite (support mismatch)")
    return d


def total_variation(p: FiniteDistribution, q: FiniteDistribution) -> float:
    _check_aligned(p, q)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def entropy(p: FiniteDistribution) -> float:
    """Shannon entropy in nats, with 0*log(0) = 0."""
    pm = p.probs[p.probs > 0]
    return float(-np.sum(pm * np.log(pm)))


def expected_reward(q: FiniteDistribution, r: RewardFn) -> float:
    """E_q[r], clamped to [r.m, r.M]: a mean of r lies there, but the dot
    product's round-off can leave it by an ulp."""
    if len(q) != len(r):
        raise ValueError("reward and distribution have mismatched dimensions")
    return min(max(float(q.probs @ r.values), r.m), r.M)


def condition(p: FiniteDistribution, mask) -> FiniteDistribution:
    """The distribution p conditioned on the subset given by a boolean mask
    over its outcomes (any other mask raises ValueError).

    Probability ratios inside the subset are preserved exactly; outcomes off
    it get exact zeros."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (len(p),):
        raise ValueError(f"condition takes a boolean mask of shape ({len(p)},)")
    total = float(p.probs[mask].sum())
    if total == 0.0:
        raise ValueError("conditioning on null set")
    probs = np.where(mask, p.probs / total, 0.0)
    return FiniteDistribution(p.outcomes, probs)
