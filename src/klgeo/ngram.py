"""Logit-parametrized autoregressive policies over V^T with exact enumeration.

A policy is a product of per-position softmax conditionals.  The context
order is per-position data: context length 0 at every position gives a
unigram product, (0, 1, 1, ...) is the bigram family (next token depends on
the previous token only), and (0, 1, 2, ..., T-1) is the full-order family,
which can represent any strictly positive distribution over V^T.

All distributions, objectives and gradients are computed by enumerating the
V^T sequences; there is no sampling anywhere.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .dist import BinaryVerifier, FiniteDistribution, entropy
from .geometry import TiltedFamily
from .rng import SeededRng

# Central-difference step used for gradient verification.
FD_STEP = 1e-5

# The TVD polish stops once a sweep over the rows lowers TVD by no more than
# POLISH_TOL (round-off in a sum of N terms of size <= 1), or after
# POLISH_MAX_SWEEPS sweeps.
POLISH_TOL = 1e-14
POLISH_MAX_SWEEPS = 100


@dataclass(frozen=True)
class SequenceSpace:
    """All token sequences of a fixed length over a fixed vocabulary.

    Enumeration is lexicographic with position 0 most significant, so the
    sequence (t0, ..., t_{T-1}) has index sum_k t_k * V^(T-1-k).
    """

    vocab_size: int
    length: int

    def __post_init__(self):
        if self.vocab_size < 1 or self.length < 1:
            raise ValueError("vocab_size and length must be positive")

    @property
    def n_sequences(self) -> int:
        return self.vocab_size ** self.length

    def outcomes(self) -> tuple:
        return tuple(itertools.product(range(self.vocab_size), repeat=self.length))


def bigram_orders(space: SequenceSpace) -> tuple:
    return (0,) + (1,) * (space.length - 1)


def full_orders(space: SequenceSpace) -> tuple:
    return tuple(range(space.length))


class _Structure:
    """Precomputed index tying sequences to rows of one flat logit array.

    Every softmax block has width V, so the logits are one (R, V) array
    whose rows are the blocks' contexts stacked by position (block t holds
    V^c_t rows).  index[t, s] is the flat logit that sequence s uses at
    position t; flat_index is index.ravel() and seq_of_flat[k] the sequence
    behind flat_index[k], and row_of_flat[k] is the row of flat logit k.
    The kernel keys its sums by these maps: bincount over row_of_flat sums
    each row, over seq_of_flat each sequence's T log-probabilities, and
    over flat_index the sequences using each logit.
    """

    _cache: dict = {}

    def __init__(self, space: SequenceSpace, context_lengths: tuple):
        V, T = space.vocab_size, space.length
        if len(context_lengths) != T:
            raise ValueError("need one context length per position")
        for t, c in enumerate(context_lengths):
            if not 0 <= c <= t:
                raise ValueError(f"context length at position {t} must be in [0, {t}]")
        seqs = np.array(space.outcomes(), dtype=np.intp)  # (N, T)
        self.space = space
        self.context_lengths = tuple(context_lengths)
        first_row = np.cumsum([0] + [V ** c for c in context_lengths])
        self.n_rows = int(first_row[-1])
        self.n_params = self.n_rows * V
        # stored, not read through space's property on every objective call
        self.n_sequences = space.n_sequences
        self.index = np.empty((T, self.n_sequences), dtype=np.intp)
        for t, c in enumerate(context_lengths):
            ctx = seqs[:, t - c:t] @ V ** np.arange(c - 1, -1, -1, dtype=np.intp)
            self.index[t] = (first_row[t] + ctx) * V + seqs[:, t]
        self.flat_index = self.index.ravel()
        self.seq_of_flat = np.tile(np.arange(self.n_sequences), T)
        # the first flat logit of each row, and the row of each flat logit
        self.row_start = np.arange(0, self.n_params, V)
        self.row_of_flat = np.repeat(np.arange(self.n_rows), V)

    @cached_property
    def polish_rows(self) -> list:
        """The rows in the TVD polish's order, by position and then row, each
        as (row, uses, others, bounds): uses are the sequences through the
        row, stably grouped by their token there, with token v's at
        uses[bounds[v]:bounds[v + 1]], and others[:, j] the flat logits that
        sequence uses[j] uses at every other position."""
        V = self.space.vocab_size
        row_of = self.index // V
        rows = []
        for t in range(self.space.length):
            others = np.delete(self.index, t, axis=0)
            for r in range(row_of[t].min(), row_of[t].max() + 1):
                uses = np.flatnonzero(row_of[t] == r)
                tok = self.index[t, uses] % V
                uses = uses[np.argsort(tok, kind="stable")]
                bounds = (0, *np.cumsum(np.bincount(tok, minlength=V)).tolist())
                rows.append((r, uses, others[:, uses], bounds))
        return rows

    @classmethod
    def get(cls, space: SequenceSpace, context_lengths: tuple) -> "_Structure":
        key = (space.vocab_size, space.length, tuple(context_lengths))
        if key not in cls._cache:
            cls._cache[key] = cls(space, context_lengths)
        return cls._cache[key]


class NGramPolicy:
    """An autoregressive policy: per-position softmax blocks over a flat logit vector."""

    __slots__ = ("space", "context_lengths", "logits", "_struct")

    def __init__(self, space: SequenceSpace, context_lengths, logits):
        struct = _Structure.get(space, tuple(context_lengths))
        logits = np.array(logits, dtype=float)
        if logits.shape != (struct.n_params,):
            raise ValueError(f"expected {struct.n_params} logits, got {logits.shape}")
        logits.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "context_lengths", struct.context_lengths)
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "_struct", struct)

    def __setattr__(self, name, value):
        raise AttributeError("NGramPolicy is immutable; use with_logits")

    @property
    def n_params(self) -> int:
        return self._struct.n_params

    def with_logits(self, logits) -> "NGramPolicy":
        return NGramPolicy(self.space, self.context_lengths, logits)


# The kernel below runs once or twice per solver step on a few dozen
# numbers, where a numpy call's overhead outweighs its arithmetic, so it
# works on the flat logit vector with the numpy functions bound once here.
# It gathers with the array's own take, and spreads a row value back by
# take(row_of_flat) rather than broadcasting an (R, 1) column against the
# (R, V) rows, which costs more than twice a same-shape op at this size.
# Each row sum and each sequence's log-probability is a bincount, which
# adds a bin's entries in index order from 0.0 (add.reduce does the same
# on rows of fewer than 8 entries, and sums pairwise from 8 on).  Never sum
# a row with add.reduceat: it adds a0 + (a1 + a2), not (a0 + a1) + a2.
# bincount is bound below numpy's __array_function__ dispatcher, to the C
# function it forwards to, with the same input checks: 0.22 µs a call
# against 0.32 µs.  A constant operand of a per-step op is a 0-d array,
# never a Python float (0.41 µs an op, against 0.28 µs) and never a (1,)
# array (0.54 µs, a broadcast); timeit, 27 entries.

_max_reduceat = np.maximum.reduceat
_add_reduce = np.add.reduce
_exp, _log, _sign = np.exp, np.log, np.sign
_bincount = np.bincount._implementation
_HALF = np.array(0.5)


def _log_softmax(struct: _Structure, theta: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of the flat logit vector theta."""
    row_of_flat = struct.row_of_flat
    zm = theta - _max_reduceat(theta, struct.row_start).take(row_of_flat)
    return zm - _log(_bincount(row_of_flat, _exp(zm), struct.n_rows)).take(row_of_flat)


def _log_probs(struct: _Structure, lsm: np.ndarray) -> np.ndarray:
    """log q_s of every sequence, from the row log-softmax lsm."""
    return _bincount(struct.seq_of_flat, lsm.take(struct.flat_index), struct.n_sequences)


def _probs(struct: _Structure, theta: np.ndarray) -> np.ndarray:
    return np.exp(_log_probs(struct, _log_softmax(struct, theta)))


def _grad_weighted_logprob(struct: _Structure, lsm: np.ndarray,
                           w: np.ndarray) -> np.ndarray:
    """Gradient of sum_s w_s * log q_s in the logits, for fixed weights w,
    given the row log-softmax lsm of those logits."""
    row_of_flat = struct.row_of_flat
    sw = _bincount(struct.flat_index, w.take(struct.seq_of_flat), struct.n_params)
    return sw - _exp(lsm) * _bincount(row_of_flat, sw, struct.n_rows).take(row_of_flat)


def central_difference(f, theta: np.ndarray) -> np.ndarray:
    """Central-difference gradient (f(theta + h e_i) - f(theta - h e_i)) / 2h
    of f(theta) -> float, at the step h = FD_STEP."""
    return np.array([(f(theta + e) - f(theta - e)) / (2.0 * FD_STEP)
                     for e in FD_STEP * np.eye(theta.shape[0])])


def to_distribution(pol: NGramPolicy) -> FiniteDistribution:
    """The induced distribution over V^T, by exact enumeration."""
    return FiniteDistribution(pol.space.outcomes(), _probs(pol._struct, pol.logits))


# ---------------------------------------------------------------------------
# Objectives


def _check_space(struct: _Structure, values: np.ndarray):
    if struct.n_sequences != values.shape[0]:
        raise ValueError("objective target does not match the policy's space")


class JBetaObjective:
    """E_pi[r] - beta * KL(pi, base), as a function of the policy logits."""

    def __init__(self, fam: TiltedFamily, beta: float):
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.beta = float(beta)
        # the gradient's read-only 0-d copy of beta (see the kernel's notes)
        self._beta = np.array(self.beta)
        self._beta.setflags(write=False)
        self._r = fam.reward.values
        self._log_base = fam._log_base

    def value_theta(self, struct: _Structure, theta: np.ndarray) -> float:
        _check_space(struct, self._r)
        logq = _log_probs(struct, _log_softmax(struct, theta))
        q = np.exp(logq)
        return float(q @ self._r - self.beta * (q @ (logq - self._log_base)))

    def grad_theta(self, struct: _Structure, theta: np.ndarray) -> np.ndarray:
        _check_space(struct, self._r)
        lsm = _log_softmax(struct, theta)
        logq = _log_probs(struct, lsm)
        # d/dtheta sum_s q_s f_s with f = r - beta(log q - log base); the
        # -beta * sum q dlogq correction vanishes because sum dq = 0
        return _grad_weighted_logprob(
            struct, lsm, _exp(logq) * (self._r - self._beta * (logq - self._log_base)))


class ForwardKLObjective:
    """KL(target, pi) as a function of the policy logits; convex in them."""

    def __init__(self, target: FiniteDistribution):
        self._p = target.probs
        self._neg_entropy = -entropy(target)

    def value_theta(self, struct: _Structure, theta: np.ndarray) -> float:
        _check_space(struct, self._p)
        logq = _log_probs(struct, _log_softmax(struct, theta))
        mask = self._p > 0
        return float(self._neg_entropy - self._p[mask] @ logq[mask])

    def grad_theta(self, struct: _Structure, theta: np.ndarray) -> np.ndarray:
        _check_space(struct, self._p)
        # per block: (target block-marginal) * (softmax - onehot), aggregated
        return -_grad_weighted_logprob(struct, _log_softmax(struct, theta), self._p)


class TVDObjective:
    """TVD(pi, target) in the logits; non-convex, and non-smooth where some
    q_s = p_s.  grad_theta is the analytic subgradient, with sign(0) = 0."""

    def __init__(self, target: FiniteDistribution):
        self._p = target.probs

    def value_theta(self, struct: _Structure, theta: np.ndarray) -> float:
        _check_space(struct, self._p)
        return float(_tvd(struct, _log_softmax(struct, theta), self._p))

    def grad_theta(self, struct: _Structure, theta: np.ndarray) -> np.ndarray:
        _check_space(struct, self._p)
        return _tvd_subgradient(struct, theta, self._p)


def _tvd(struct: _Structure, lsm: np.ndarray, p: np.ndarray) -> float:
    """TVD(pi, p), from the row log-softmax lsm of pi's logits."""
    return 0.5 * np.add.reduce(np.abs(np.exp(_log_probs(struct, lsm)) - p))


def _tvd_subgradient(struct: _Structure, theta: np.ndarray,
                     p: np.ndarray) -> np.ndarray:
    """A subgradient of TVD(pi, p) in the logits: dq_s = q_s dlog q_s."""
    lsm = _log_softmax(struct, theta)
    q = _exp(_log_probs(struct, lsm))
    return _grad_weighted_logprob(struct, lsm, _HALF * _sign(q - p) * q)


_kink = itemgetter(0)
_slope_token = itemgetter(0, 1)


def _row_tvd_argmin(c: np.ndarray, p: np.ndarray, bounds: tuple) -> list:
    """The x on the simplex minimizing sum_s |c_s x[tok_s] - p_s|, c_s >= 0.

    The terms come grouped by token: token v's are c[bounds[v]:bounds[v + 1]]
    and the same slice of p.  Terms with c_s = 0 do not depend on x and are
    left out.  The sum is separable across tokens; each token's part is
    convex and piecewise linear with kinks at p_s / c_s.  Filling the
    segments in order of slope, ties broken by token, spends the unit budget
    optimally.  The work is on Python floats, which round as numpy's
    float64 does; each token's starting slope stays numpy's sum, which adds
    8 or more entries pairwise, not left to right.
    """
    segments = []  # (slope, token, length)
    for v, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        cv, pv = c[lo:hi], p[lo:hi]
        weights = cv.tolist()
        if 0.0 in weights:
            live = cv > 0.0
            cv, pv = cv[live], pv[live]
            weights = cv.tolist()
        slope, left = -float(_add_reduce(cv)), 0.0
        kinks = [ps / cs for ps, cs in zip(pv.tolist(), weights)]
        # sorted is stable, so tied kinks keep their order in the row
        for kink, weight in sorted(zip(kinks, weights), key=_kink):
            segments.append((slope, v, kink - left))
            slope, left = slope + 2.0 * weight, kink
        segments.append((slope, v, math.inf))
    segments.sort(key=_slope_token)
    x = [0.0] * (len(bounds) - 1)
    budget = 1.0
    for _, v, length in segments:
        take = min(length, budget)
        x[v] += take
        budget -= take
        if budget <= 0.0:
            break
    return x


def _polish_tvd(struct: _Structure, theta: np.ndarray, p: np.ndarray):
    """Exact block-coordinate descent on TVD(pi, p), one softmax row at a time.

    With every other row fixed, a sequence s through row r has probability
    c_s * x[tok_s] in that row's conditional x, and uses the row at most
    once, so the row's exact minimizer is _row_tvd_argmin.  Zero conditionals
    become -inf logits.  A row update is kept only if TVD does not rise, and
    sweeps over all rows repeat while one lowers TVD by more than POLISH_TOL.

    Returns (logits, TVD there, sweeps run, whether the sweep cap stopped it).
    """
    row_data = [(r, others, bounds, p.take(uses))
                for r, uses, others, bounds in struct.polish_rows]
    theta = theta.copy()
    rows = theta.reshape(-1, struct.space.vocab_size)  # a view into theta
    lsm = _log_softmax(struct, theta)
    value = _tvd(struct, lsm, p)
    # a zero conditional's log is -inf; no other op here divides
    with np.errstate(divide="ignore"):
        for sweep in range(1, POLISH_MAX_SWEEPS + 1):
            start_value = value
            for r, others, bounds, p_r in row_data:
                c = _exp(_add_reduce(lsm.take(others), 0))
                if not c.any():  # TVD does not depend on this row
                    continue
                old_row = rows[r].copy()
                rows[r] = _log(_row_tvd_argmin(c, p_r, bounds))
                new_lsm = _log_softmax(struct, theta)
                new_value = _tvd(struct, new_lsm, p)
                if new_value <= value:
                    value, lsm = new_value, new_lsm
                else:
                    rows[r] = old_row
            if start_value - value <= POLISH_TOL:
                return theta, value, sweep, False
    return theta, value, POLISH_MAX_SWEEPS, True


# ---------------------------------------------------------------------------
# Construction helpers


def make_verifier_first_equals_last(space: SequenceSpace) -> BinaryVerifier:
    """Verifier accepting sequences whose first token equals their last."""
    if space.length < 2:
        raise ValueError("first-equals-last verifier needs length >= 2")
    mask = np.array([seq[0] == seq[-1] for seq in space.outcomes()])
    return BinaryVerifier(mask)


def random_base_model(space: SequenceSpace, seed: int, sigma: float) -> NGramPolicy:
    """A full-order policy with i.i.d. Gaussian logits (sigma is the std dev)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    struct = _Structure.get(space, full_orders(space))
    logits = SeededRng(seed).normal(struct.n_params, sigma=sigma)
    return NGramPolicy(space, full_orders(space), logits)


def conditional_projection(target: FiniteDistribution, space: SequenceSpace,
                           context_lengths) -> NGramPolicy:
    """The forward-KL-optimal policy of the given order for this target.

    Minimizing KL(target, pi) decouples across softmax blocks; the optimum
    matches the target's conditional distribution aggregated by context.
    Zero conditional probabilities become -inf logits (the optimum lies in
    the closure of the family); contexts with no target mass get uniform
    conditionals.
    """
    struct = _Structure.get(space, tuple(context_lengths))
    if len(target) != space.n_sequences:
        raise ValueError("target does not match the sequence space")
    row_of_flat = struct.row_of_flat
    joint = _bincount(struct.flat_index, target.probs.take(struct.seq_of_flat),
                      struct.n_params)
    row = _bincount(row_of_flat, joint, struct.n_rows).take(row_of_flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        logits = np.log(np.where(row > 0, joint / np.where(row > 0, row, 1.0),
                                 1.0 / space.vocab_size))
    return NGramPolicy(space, context_lengths, logits)


def project_policy(pol: NGramPolicy, context_lengths) -> NGramPolicy:
    """Project a policy onto a (typically lower-order) family by forward KL."""
    return conditional_projection(to_distribution(pol), pol.space, context_lengths)

