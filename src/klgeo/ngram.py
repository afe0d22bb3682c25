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
from dataclasses import dataclass

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
    behind flat_index[k], so a scatter needs no per-call index work.
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
        self.block_shapes = [(V ** c, V) for c in context_lengths]
        first_row = np.cumsum([0] + [nc for nc, _ in self.block_shapes])
        self.row_shape = (int(first_row[-1]), V)
        self.n_params = self.row_shape[0] * V
        self.index = np.empty((T, space.n_sequences), dtype=np.intp)
        for t, c in enumerate(context_lengths):
            ctx = seqs[:, t - c:t] @ V ** np.arange(c - 1, -1, -1, dtype=np.intp)
            self.index[t] = (first_row[t] + ctx) * V + seqs[:, t]
        self.flat_index = self.index.ravel()
        self.seq_of_flat = np.tile(np.arange(space.n_sequences), T)

    @classmethod
    def get(cls, space: SequenceSpace, context_lengths: tuple) -> "_Structure":
        key = (space.vocab_size, space.length, tuple(context_lengths))
        if key not in cls._cache:
            cls._cache[key] = cls(space, context_lengths)
        return cls._cache[key]

    def scatter(self, w: np.ndarray) -> np.ndarray:
        """(R, V) array of sum_s w_s over the sequences using each logit."""
        return np.bincount(self.flat_index, weights=w[self.seq_of_flat],
                           minlength=self.n_params).reshape(self.row_shape)


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

    def blocks(self):
        """The logits reshaped into their per-position (n_contexts, V) blocks."""
        rows = self.logits.reshape(-1, self.space.vocab_size)
        return np.split(rows, np.cumsum([nc for nc, _ in self._struct.block_shapes[:-1]]))


# The kernels below run once or twice per solver step on a few dozen
# numbers, where a numpy call's overhead outweighs its arithmetic: they
# gather with the array's own take, not the np.take wrapper, and reduce
# with ufunc methods, which .max and .sum forward to through Python.


def _log_softmax(struct: _Structure, theta: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a logit vector or a (B, n_params) batch."""
    return _log_softmax_rows(theta.reshape(theta.shape[:-1] + struct.row_shape)
                             ).reshape(theta.shape)


def _log_softmax_rows(z: np.ndarray) -> np.ndarray:
    """log-softmax along the last axis; each row's bits depend on that row only."""
    zm = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    return zm - np.log(np.add.reduce(np.exp(zm), axis=-1, keepdims=True))


def _log_probs(struct: _Structure, lsm: np.ndarray) -> np.ndarray:
    """log q_s of every sequence, from the row log-softmax lsm."""
    # take keeps the (..., N) result C-contiguous; fancy indexing would not,
    # and sums over that result depend on its memory order
    return np.add.reduce(lsm.take(struct.index, axis=-1), axis=-2)


def _probs(struct: _Structure, theta: np.ndarray) -> np.ndarray:
    return np.exp(_log_probs(struct, _log_softmax(struct, theta)))


def _grad_weighted_logprob(struct: _Structure, lsm: np.ndarray,
                           w: np.ndarray) -> np.ndarray:
    """Gradient of sum_s w_s * log q_s in the logits, for fixed weights w,
    given the row log-softmax lsm of those logits."""
    sw = struct.scatter(w)
    q = np.exp(lsm).reshape(struct.row_shape)
    return (sw - q * np.add.reduce(sw, axis=1, keepdims=True)).ravel()


def central_difference(values, theta: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient (f(theta + h e_i) - f(theta - h e_i)) / 2h.

    values maps the (2n, n) batch of the n forward then the n backward
    points to their (2n,) objective values.
    """
    n = theta.shape[0]
    eye = h * np.eye(n)
    v = values(np.concatenate([theta + eye, theta - eye], axis=0))
    return (v[:n] - v[n:]) / (2.0 * h)


def to_distribution(pol: NGramPolicy) -> FiniteDistribution:
    """The induced distribution over V^T, by exact enumeration."""
    return FiniteDistribution(pol.space.outcomes(), _probs(pol._struct, pol.logits))


# ---------------------------------------------------------------------------
# Objectives


def _check_space(struct: _Structure, values: np.ndarray):
    if struct.space.n_sequences != values.shape[0]:
        raise ValueError("objective target does not match the policy's space")


class JBetaObjective:
    """E_pi[r] - beta * KL(pi, base), as a function of the policy logits."""

    name = "j_beta"

    def __init__(self, fam: TiltedFamily, beta: float):
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.fam = fam
        self.beta = float(beta)
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
        q = np.exp(logq)
        # d/dtheta sum_s q_s f_s with f = r - beta(log q - log base); the
        # -beta * sum q dlogq correction vanishes because sum dq = 0
        f = self._r - self.beta * (logq - self._log_base)
        return _grad_weighted_logprob(struct, lsm, q * f)


class ForwardKLObjective:
    """KL(target, pi) as a function of the policy logits; convex in them."""

    name = "forward_kl"

    def __init__(self, target: FiniteDistribution):
        self.target = target
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

    name = "tvd"

    def __init__(self, target: FiniteDistribution):
        self.target = target
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
    q = np.exp(_log_probs(struct, lsm))
    return _grad_weighted_logprob(struct, lsm, 0.5 * np.sign(q - p) * q)


def _row_tvd_argmin(c: np.ndarray, p: np.ndarray, tok: np.ndarray,
                    vocab_size: int) -> np.ndarray:
    """The x on the simplex minimizing sum_s |c_s x[tok_s] - p_s|, c_s > 0.

    The sum is separable across tokens; each token's part is convex and
    piecewise linear with kinks at p_s / c_s.  Filling the segments in order
    of slope, ties broken by token, spends the unit budget optimally.
    """
    segments = []  # (slope, token, length)
    for v in range(vocab_size):
        on = tok == v
        kinks = p[on] / c[on]
        order = np.argsort(kinks, kind="stable")
        slope, left = -c[on].sum(), 0.0
        for kink, weight in zip(kinks[order], c[on][order]):
            segments.append((slope, v, kink - left))
            slope, left = slope + 2.0 * weight, kink
        segments.append((slope, v, np.inf))
    x = np.zeros(vocab_size)
    budget = 1.0
    for _, v, length in sorted(segments, key=lambda seg: seg[:2]):
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
    V = struct.space.vocab_size
    # per row: the sequences through it, their tokens there, and the logits
    # they use at every other position
    row_data = []
    row_of = struct.index // V
    for t in range(struct.space.length):
        others = np.delete(struct.index, t, axis=0)
        for r in range(row_of[t].min(), row_of[t].max() + 1):
            uses = np.flatnonzero(row_of[t] == r)
            row_data.append((r, p[uses], struct.index[t, uses] % V, others[:, uses]))
    theta = theta.copy()
    rows = theta.reshape(struct.row_shape)  # a view: row updates write into theta
    # the row log-softmax of theta, kept in step with it one row at a time
    lsm = _log_softmax(struct, theta)
    lsm_rows = lsm.reshape(struct.row_shape)
    value = _tvd(struct, lsm, p)
    for sweep in range(1, POLISH_MAX_SWEEPS + 1):
        start_value = value
        for r, p_r, tok, others in row_data:
            c = np.exp(np.add.reduce(lsm.take(others), axis=0))
            live = c > 0.0
            if not live.any():  # TVD does not depend on this row
                continue
            x = _row_tvd_argmin(c[live], p_r[live], tok[live], V)
            old_row, old_lsm_row = rows[r].copy(), lsm_rows[r].copy()
            with np.errstate(divide="ignore"):
                rows[r] = np.log(x)
            lsm_rows[r] = _log_softmax_rows(rows[r])
            new_value = _tvd(struct, lsm, p)
            if new_value <= value:
                value = new_value
            else:
                rows[r], lsm_rows[r] = old_row, old_lsm_row
        if start_value - value <= POLISH_TOL:
            return theta, value, sweep, False
    return theta, value, POLISH_MAX_SWEEPS, True


def grad_objective(pol: NGramPolicy, objective) -> np.ndarray:
    """Gradient of the objective in the policy's flat logit vector."""
    return objective.grad_theta(pol._struct, pol.logits)


def objective_value(pol: NGramPolicy, objective) -> float:
    return objective.value_theta(pol._struct, pol.logits)


# ---------------------------------------------------------------------------
# Construction helpers


def make_verifier_first_equals_last(space: SequenceSpace) -> BinaryVerifier:
    """Verifier accepting sequences whose first token equals their last."""
    if space.length < 2:
        raise ValueError("first-equals-last verifier needs length >= 2")
    mask = np.array([seq[0] == seq[-1] for seq in space.outcomes()])
    return BinaryVerifier(mask)


def random_base_model(space: SequenceSpace, seed: int, sigma: float = 0.5) -> NGramPolicy:
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
    joint = struct.scatter(target.probs)
    row = joint.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(row > 0, joint / np.where(row > 0, row, 1.0),
                        1.0 / space.vocab_size)
        logits = np.log(cond).ravel()
    return NGramPolicy(space, context_lengths, logits)


def project_policy(pol: NGramPolicy, context_lengths) -> NGramPolicy:
    """Project a policy onto a (typically lower-order) family by forward KL."""
    return conditional_projection(to_distribution(pol), pol.space, context_lengths)

