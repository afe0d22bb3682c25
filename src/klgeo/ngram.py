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
from functools import cache

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


class _Stack:
    """The kernel's maps over `copies` copies of one policy side by side,
    worked out from the policy's (T, N) index: index[t, s] is the flat
    logit that sequence s uses at position t, and a row of logits has
    width vocab_size.

    Copy b's logits are entries b * n_params + k of one flat vector, its
    rows b * n_rows + r and its sequences b * N + s.  flat_index is each
    copy's index.ravel() in turn, seq_of_flat[k] the sequence behind
    flat_index[k], row_of_flat[k] the row of flat logit k, and row_start
    the first flat logit of each row.  The kernel keys its sums by these
    maps: bincount over row_of_flat sums each row, over seq_of_flat each
    sequence's T log-probabilities, and over flat_index the sequences
    using each logit.  Every reduceat segment and bincount bin holds one
    copy's entries in that copy's own order, so each copy gets the bits
    of its own call.
    """

    __slots__ = ("n_rows", "n_params", "n_sequences",
                 "row_start", "row_of_flat", "flat_index", "seq_of_flat")

    def __init__(self, index: np.ndarray, vocab_size: int, copies: int = 1):
        T, N = index.shape
        n_params = int(index.max()) + 1  # every row is reached by some sequence
        offsets = np.arange(copies)[:, None]
        self.n_params = copies * n_params
        self.n_rows = self.n_params // vocab_size
        self.n_sequences = copies * N
        self.row_start = np.arange(0, self.n_params, vocab_size)
        self.row_of_flat = np.repeat(np.arange(self.n_rows), vocab_size)
        self.flat_index = (index.ravel() + offsets * n_params).ravel()
        self.seq_of_flat = (np.arange(T * N) % N + offsets * N).ravel()


class _Structure(_Stack):
    """A policy's index, and the kernel's maps over it as one _Stack copy.

    Every softmax block has width V, so the logits are one (R, V) array
    whose rows are the blocks' contexts stacked by position (block t holds
    V^c_t rows).
    """

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
        self.index = np.empty((T, space.n_sequences), dtype=np.intp)
        for t, c in enumerate(context_lengths):
            ctx = seqs[:, t - c:t] @ V ** np.arange(c - 1, -1, -1, dtype=np.intp)
            self.index[t] = (first_row[t] + ctx) * V + seqs[:, t]
        super().__init__(self.index, V)

    @classmethod
    @cache
    def get(cls, space: SequenceSpace, context_lengths: tuple) -> "_Structure":
        """The one structure of each space and order tuple, built on first use."""
        return cls(space, context_lengths)


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
# take(row_of_flat), as broadcasting an (R, 1) column against the (R, V)
# rows costs more than twice a same-shape op at this size.  A row's
# log-sum-exp is one logaddexp.reduceat, which reduces each row left to
# right at any copy count.  A row sum or a sequence's log-probability is a
# bincount, which adds a bin's entries in index order from 0.0, as add.reduce
# does below 8 entries (pairwise from 8); add.reduceat adds a0 + (a1 + a2).
# bincount is bound to the C function below numpy's __array_function__
# dispatcher, with the same input checks: 0.22 µs a call against 0.32 µs.
# A per-step op's constant operand is a 0-d array (0.28 µs an op; timeit,
# 27 entries), never a Python float (0.41 µs) or a (1,) array (0.54 µs).

_lae_reduceat = np.logaddexp.reduceat
_add_reduce = np.add.reduce
_exp, _log, _sign = np.exp, np.log, np.sign
_bincount = np.bincount._implementation
_HALF = np.array(0.5)


def _log_softmax(struct: _Structure, theta: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of the flat logit vector theta."""
    return theta - _lae_reduceat(theta, struct.row_start).take(struct.row_of_flat)


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
        return float(_tvd(struct, _log_softmax(struct, theta), self._p)[0])

    def grad_theta(self, struct: _Structure, theta: np.ndarray) -> np.ndarray:
        _check_space(struct, self._p)
        return _tvd_subgradient(struct, theta, self._p)


def _tvd(struct, lsm: np.ndarray, p: np.ndarray) -> np.ndarray:
    """TVD(pi, p) of each copy pi in struct, from the row log-softmax lsm
    of the logits."""
    q = _exp(_log_probs(struct, lsm)).reshape(-1, p.shape[0])
    return _HALF * _add_reduce(np.abs(q - p), 1)


def _tvd_subgradient(struct: _Structure, theta: np.ndarray,
                     p: np.ndarray) -> np.ndarray:
    """A subgradient of TVD(pi, p) in the logits: dq_s = q_s dlog q_s."""
    lsm = _log_softmax(struct, theta)
    q = _exp(_log_probs(struct, lsm))
    return _grad_weighted_logprob(struct, lsm, _HALF * _sign(q - p) * q)


def _row_tvd_argmin(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """For each copy b, the x on the simplex minimizing
    sum_{v,j} |c[b, v, j] x[v] - p[v, j]|, for c >= 0 of shape (B, V, n)
    and p of shape (V, n); returns x, of shape (B, V).

    Terms with c = 0 do not depend on x and are left out.  The sum is
    separable across tokens; token v's part is convex and piecewise linear
    in x[v], with slope -sum c at 0 and kinks at p / c, where the slope
    rises by 2c.  Filling the segments in order of slope, ties broken by
    token and then by kink, spends the unit budget optimally.  Every copy
    gets the bits of the fill that builds and walks its segments one at a
    time on floats:
    - a token's starting slope is the sum of its c left to right, where a
      dead term adds an exact 0;
    - kinks sort stably, and a stable sort of slopes in token-major order
      is the (slope, token) key;
    - the budget is spent segment by segment, and x[v] adds its takes in
      that order from 0.0.
    Dead terms divide by 0, and segments past the fill's end may hold
    inf - inf, so the caller turns off numpy's divide, over and invalid
    warnings, as _polish_tvd does.
    """
    B, V, n = c.shape
    terms = np.arange(0, c.size, n).reshape(B, V, 1)  # each token's first term
    # each token's n + 1 segments, its terms in kink order as flat indices.
    # A dead term's kink p / 0 is +inf, or nan if p = 0, so dead terms sort
    # after the live ones, in order among any live kinks at +inf (p over a
    # subnormal c); no segment after a token's first infinite or nan one
    # is reached
    kinks = p / c
    by_kink = kinks.argsort(2, kind="stable") + terms
    kinks = kinks.take(by_kink)
    slopes = np.empty((B, V, n + 1))
    slopes[..., 0] = -np.add.accumulate(c, 2)[..., -1]
    np.multiply(c.take(by_kink), 2.0, out=slopes[..., 1:])
    np.add.accumulate(slopes, 2, out=slopes)
    lengths = np.empty((B, V, n + 1))
    lengths[..., 0] = kinks[..., 0]
    np.subtract(kinks[..., 1:], kinks[..., :-1], out=lengths[..., 1:n])
    lengths[..., n] = np.inf
    # all segments by slope, as flat indices, whose quotient by n + 1 is
    # the segment's copy and token, b * V + v.  The budget before each is
    # spent one segment at a time: the fill takes each whole up to the first
    # that holds the rest, which fmin finds in a nan length too (inf - inf,
    # or a dead term's).  Past that one the budget is <= 0 or nan, which
    # fmax makes 0, and fmin takes 0 from a nan length there.
    width = V * (n + 1)
    by_slope = (slopes.reshape(B, width).argsort(1, kind="stable")
                + np.arange(0, B * width, width)[:, None])
    lengths = lengths.take(by_slope)
    budget = np.empty((B, width))
    budget[:, 0] = 1.0
    budget[:, 1:] = lengths[:, :-1]
    np.subtract.accumulate(budget, 1, out=budget)
    takes = np.fmin(lengths, np.fmax(budget, 0.0))
    return _bincount((by_slope // (n + 1)).ravel(), takes.ravel(), B * V).reshape(B, V)


def _polish_tvd(struct: _Structure, thetas: np.ndarray, p: np.ndarray):
    """Exact block-coordinate descent on TVD(pi, p), one softmax row at a
    time, from each of the B starts thetas[b] at once.

    With every other row fixed, a sequence s through row r has probability
    c_s * x[tok_s] in that row's conditional x, and uses the row at most
    once, so the row's exact minimizer is _row_tvd_argmin.  Zero
    conditionals become -inf logits.  A copy whose c are all 0 at a row
    skips it (TVD does not depend on the row), and a copy keeps a row
    update only if its TVD does not rise.  A copy sweeps over all rows
    again while its last sweep lowered its TVD by more than POLISH_TOL, up
    to POLISH_MAX_SWEEPS sweeps; a copy that has stopped leaves the batch.
    The copies run in lockstep on _Stack(struct.index, V, n), the maps of
    the n running copies (struct's own are those at n = 1), built again
    when the batch shrinks; every step is per copy, so each gets the bits
    of its own polish.

    Returns (logits, TVD there, sweeps run, whether the sweep cap stopped
    it), each stacked by copy.
    """
    V = struct.space.vocab_size
    # per row, by position and then row: its logit columns; others[:, v, j],
    # the flat logits that its j-th sequence with token v there (in sequence
    # order; every token has as many) uses at every other position; and p
    # of those sequences
    row_of = struct.index // V
    row_data = []
    for t in range(struct.space.length):
        others = np.delete(struct.index, t, axis=0)
        for r in range(row_of[t].min(), row_of[t].max() + 1):
            uses = np.flatnonzero(row_of[t] == r)
            uses = uses[np.argsort(struct.index[t, uses] % V, kind="stable")].reshape(V, -1)
            row_data.append((slice(r * V, (r + 1) * V), others[:, uses], p.take(uses)))
    theta = np.array(thetas, dtype=float)  # the logits of the running copies
    n_copies = theta.shape[0]
    thetas, values = np.empty_like(theta), np.empty(n_copies)
    sweeps = np.full(n_copies, POLISH_MAX_SWEEPS)
    capped = np.ones(n_copies, dtype=bool)
    running = np.arange(n_copies)
    stack = _Stack(struct.index, V, n_copies)
    lsm = _log_softmax(stack, theta.ravel()).reshape(theta.shape)
    value = _tvd(stack, lsm, p)
    # a zero conditional's log is -inf, a dead term's kink p / 0, and the
    # fill's segments past its end may hold inf - inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for sweep in range(1, POLISH_MAX_SWEEPS + 1):
            start_value = value
            for cols, others, p_r in row_data:
                c = _exp(_add_reduce(lsm.take(others, 1), 1))
                old_row = theta[:, cols].copy()
                theta[:, cols] = _log(_row_tvd_argmin(c, p_r))
                new_lsm = _log_softmax(stack, theta.ravel()).reshape(theta.shape)
                new_value = _tvd(stack, new_lsm, p)
                keep = c.any((1, 2)) & (new_value <= value)
                theta[~keep, cols] = old_row[~keep]
                lsm = np.where(keep[:, None], new_lsm, lsm)
                value = np.where(keep, new_value, value)
            done = start_value - value <= POLISH_TOL
            if done.any():
                ended = running[done]
                thetas[ended], values[ended] = theta[done], value[done]
                sweeps[ended], capped[ended] = sweep, False
                going = ~done
                running, theta = running[going], theta[going]
                lsm, value = lsm[going], value[going]
                if not running.size:
                    break
                stack = _Stack(struct.index, V, running.size)
    thetas[running], values[running] = theta, value
    return thetas, values, sweeps, capped


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

