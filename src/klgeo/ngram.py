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

# Central-difference step used for TVD gradients and for gradient verification.
FD_STEP = 1e-5


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
    position t.
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
        self.n_params = int(first_row[-1]) * V
        self.index = np.empty((T, space.n_sequences), dtype=np.intp)
        for t, c in enumerate(context_lengths):
            ctx = seqs[:, t - c:t] @ V ** np.arange(c - 1, -1, -1, dtype=np.intp)
            self.index[t] = (first_row[t] + ctx) * V + seqs[:, t]

    @classmethod
    def get(cls, space: SequenceSpace, context_lengths: tuple) -> "_Structure":
        key = (space.vocab_size, space.length, tuple(context_lengths))
        if key not in cls._cache:
            cls._cache[key] = cls(space, context_lengths)
        return cls._cache[key]

    def scatter(self, w: np.ndarray) -> np.ndarray:
        """(R, V) array of sum_s w_s over the sequences using each logit."""
        T = self.space.length
        return np.bincount(self.index.ravel(), weights=np.tile(w, T),
                           minlength=self.n_params).reshape(-1, self.space.vocab_size)


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


def _log_softmax(struct: _Structure, theta: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a logit vector or a (B, n_params) batch."""
    z = theta.reshape(*theta.shape[:-1], -1, struct.space.vocab_size)
    zm = z - z.max(axis=-1, keepdims=True)
    return (zm - np.log(np.exp(zm).sum(axis=-1, keepdims=True))).reshape(theta.shape)


def _log_probs(struct: _Structure, lsm: np.ndarray) -> np.ndarray:
    """log q_s of every sequence, from the row log-softmax lsm."""
    # np.take keeps the (..., N) result C-contiguous; fancy indexing would not,
    # and the TVD finite difference's row sums depend on that memory order
    return np.take(lsm, struct.index, axis=-1).sum(axis=-2)


def _probs(struct: _Structure, theta: np.ndarray) -> np.ndarray:
    return np.exp(_log_probs(struct, _log_softmax(struct, theta)))


def _grad_weighted_logprob(struct: _Structure, lsm: np.ndarray,
                           w: np.ndarray) -> np.ndarray:
    """Gradient of sum_s w_s * log q_s in the logits, for fixed weights w,
    given the row log-softmax lsm of those logits."""
    sw = struct.scatter(w)
    q = np.exp(lsm).reshape(sw.shape)
    return (sw - q * sw.sum(axis=1, keepdims=True)).ravel()


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
        self._log_base = np.log(fam.base.probs)

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
    """TVD(pi, target) in the logits; non-convex, differentiated by central differences."""

    name = "tvd"

    def __init__(self, target: FiniteDistribution):
        self.target = target
        self._p = target.probs

    def value_theta(self, struct: _Structure, theta: np.ndarray) -> float:
        return float(self._values(struct, theta))

    def grad_theta(self, struct: _Structure, theta: np.ndarray) -> np.ndarray:
        return central_difference(lambda thetas: self._values(struct, thetas),
                                  theta, FD_STEP)

    def _values(self, struct: _Structure, theta: np.ndarray) -> np.ndarray:
        """TVD at a logit vector or at each row of a (B, n_params) batch."""
        _check_space(struct, self._p)
        return 0.5 * np.abs(_probs(struct, theta) - self._p).sum(axis=-1)


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

