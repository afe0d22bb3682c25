"""Registry of executable invariant checks.

Every named identity or structural property the library promises is
represented here once, so the `check` command cannot silently drop one.
Each check returns (passed, detail); a nonzero tolerance override
replaces the check's default tolerance.
"""
from __future__ import annotations

import numpy as np

from . import dist, geometry, ngram, optimize
from .experiments import _toy_instance, ordering_illustration, ordering_instance
from .rng import SeededRng


def _random_simplex(rng, n):
    w = -np.log(1.0 - rng.uniform(n))
    return w / w.sum()


def _toy_family(seed=7, n=27):
    rng = SeededRng(seed)
    base = dist.FiniteDistribution(range(n), _random_simplex(rng, n))
    mask = np.zeros(n, dtype=bool)
    mask[: n // 3] = True
    return geometry.TiltedFamily(base, dist.BinaryVerifier(mask)), rng


def _general_family(seed=11, n=27):
    rng = SeededRng(seed)
    base = dist.FiniteDistribution(range(n), _random_simplex(rng, n))
    reward = dist.RewardFn(rng.uniform(n))
    return geometry.TiltedFamily(base, reward), rng


def check_prop_identity(tol=None):
    """J_beta(q) = beta * (A(1/beta) - KL(q, p_{1/beta})) on random q."""
    tol = tol or 1e-10
    fam, rng = _toy_family()
    worst = 0.0
    for beta in (0.1, 0.5, 2.0):
        for _ in range(10):
            q = dist.FiniteDistribution(fam.base.outcomes,
                                        _random_simplex(rng, len(fam.base)))
            lam = 1.0 / beta
            lhs = geometry.j_beta(fam, q, beta)
            rhs = beta * (geometry.log_partition(fam, lam)
                          - dist.kl_divergence_finite(q, geometry.tilted(fam, lam)))
            worst = max(worst, abs(lhs - rhs))
    return worst <= tol, f"max residual {worst:.3e}"


def check_kl_difference_identity(tol=None):
    """Closed-form KL difference matches direct subtraction of the two KLs."""
    tol = tol or 1e-10
    fam, rng = _general_family()
    worst = 0.0
    for _ in range(20):
        q = dist.FiniteDistribution(fam.base.outcomes,
                                    _random_simplex(rng, len(fam.base)))
        l1, l2 = -1.0 + 4.0 * rng.uniform(2)
        direct = (dist.kl_divergence_finite(q, geometry.tilted(fam, l2))
                  - dist.kl_divergence_finite(q, geometry.tilted(fam, l1)))
        worst = max(worst, abs(geometry.kl_difference(fam, q, l1, l2) - direct))
    return worst <= tol, f"max residual {worst:.3e}"


def check_bijection_roundtrip(tol=None):
    """natural_param(moment(lam)) = lam, binary and general rewards."""
    tol = tol or 1e-10
    worst = 0.0
    for fam, _ in (_toy_family(), _general_family()):
        for lam in np.linspace(-20, 20, 21):
            mu = geometry.moment(fam, lam)
            worst = max(worst, abs(geometry.natural_param(fam, mu) - lam))
    return worst <= tol, f"max roundtrip error {worst:.3e}"


def check_legendre_consistency(tol=None):
    """kappa(mu) = lam(mu)*mu - A(lam(mu)) = KL(p_{lam(mu)}, base)."""
    tol = tol or 1e-10
    worst = 0.0
    for fam, _ in (_toy_family(), _general_family()):
        lo, hi = fam.reward.m, fam.reward.M
        for mu in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 9):
            lam = geometry.natural_param(fam, mu)
            kappa = geometry.divergence_cost(fam, mu)
            direct = dist.kl_divergence_finite(geometry.tilted(fam, lam), fam.base)
            dual = lam * mu - geometry.log_partition(fam, lam)
            worst = max(worst, abs(kappa - direct), abs(kappa - dual))
    return worst <= tol, f"max residual {worst:.3e}"


def check_closed_form_convergence(tol=None):
    """Binary closed forms for TVD and forward KL to the filtered model."""
    tol = tol or 1e-12
    fam, _ = _toy_family()
    pstar = geometry.attained_bound_limits(fam, "upper").limit_dist
    worst = 0.0
    for point in geometry.convergence_profile(fam, np.linspace(-10, 40, 26)):
        p_lam = geometry.tilted(fam, point.lam)
        worst = max(worst,
                    abs(dist.total_variation(pstar, p_lam) - point.tvd_to_pstar),
                    abs(dist.kl_divergence_finite(pstar, p_lam) - point.fkl_from_pstar))
        if dist.kl_divergence(p_lam, pstar) != np.inf:
            return False, "reverse KL unexpectedly finite"
    return worst <= tol, f"max residual {worst:.3e}"


def check_moment_monotone_convex(tol=None):
    """moment strictly increasing; log-partition second differences >= 0."""
    tol = tol or 1e-10
    for fam, _ in (_toy_family(), _general_family()):
        grid = np.linspace(-15, 15, 61)
        mus = [geometry.moment(fam, l) for l in grid]
        if any(b <= a for a, b in zip(mus, mus[1:])):
            return False, "moment map not strictly increasing"
        avals = [geometry.log_partition(fam, l) for l in grid]
        second = np.diff(avals, 2)
        if second.min() < -tol:
            return False, f"convexity violated by {second.min():.3e}"
    return True, "ok"


def check_iprojection_slice(tol=None):
    """KL(q, p_{lam(mu)}) - KL(q, base) is constant over the moment slice."""
    tol = tol or 1e-10
    fam, rng = _general_family()
    mu = 0.5 * (fam.reward.m + fam.reward.M)
    lam = geometry.natural_param(fam, mu)
    p_mu = geometry.tilted(fam, lam)
    gaps = []
    for _ in range(10):
        q = _slice_member(fam, rng, mu)
        gaps.append(dist.kl_divergence_finite(q, p_mu)
                    - dist.kl_divergence_finite(q, fam.base))
    spread = max(gaps) - min(gaps)
    return spread <= tol, f"gap spread {spread:.3e}"


def _slice_member(fam, rng, mu):
    """A random distribution with expected reward mu, by mixing a random
    point with a tilted point on the other side of the slice; a mixing
    weight outside [0, 1] leaves a negative entry, which raises."""
    r = fam.reward.values
    q = _random_simplex(rng, len(r))
    mu_q = float(q @ r)
    # mix with a tilted point whose moment lies on the opposite side
    other_mu = mu + (0.3 if mu_q < mu else -0.3) * (fam.reward.M - fam.reward.m)
    other_mu = min(max(other_mu, fam.reward.m + 1e-6), fam.reward.M - 1e-6)
    p_other = geometry.tilted(fam, geometry.natural_param(fam, other_mu)).probs
    mu_other = float(p_other @ r)
    t = (mu - mu_q) / (mu_other - mu_q)
    mix = (1 - t) * q + t * p_other
    return dist.FiniteDistribution(fam.base.outcomes, mix)


def check_ordering_crossing(tol=None):
    """The two mid-validity candidates swap order at the predicted lambda."""
    tol = tol or 1e-8
    fam, _, cands = ordering_instance()
    lam_star = ordering_illustration(()).crossing_lambda

    def kl(name, lam):
        return dist.kl_divergence_finite(cands[name], geometry.tilted(fam, lam))

    gap = kl("pi3", lam_star) - kl("pi4", lam_star)
    below = kl("pi4", lam_star - 1) < kl("pi3", lam_star - 1)
    above = kl("pi4", lam_star + 1) < kl("pi3", lam_star + 1)
    ok = abs(gap) <= tol and above and not below
    return ok, f"crossing at {lam_star:.4f}, gap {gap:.3e}"


def gradient_error(objective_name, base_seed, order, policy_seed,
                   h=ngram.FD_STEP):
    """Max relative error of the analytic gradient of one sweep objective
    ("j_beta" or "forward_kl") against central differences of step h, at a
    random policy of the given order ("bigram" or "full") on the (3, 3)
    first-equals-last toy whose base model has seed base_seed."""
    fam, pstar, template = _toy_instance(base_seed, order)
    pol = template.with_logits(SeededRng(policy_seed).normal(template.n_params))
    if objective_name == "j_beta":
        obj = ngram.JBetaObjective(fam, beta=0.2)
    else:
        obj = ngram.ForwardKLObjective(pstar)
    return optimize.verify_gradients(pol, obj, h=h)


def _gradcheck(objective_name, tol):
    """Fails on the worse of the bigram and the full-order family's errors."""
    errs = {order: gradient_error(objective_name, 3, order, 5)
            for order in ("bigram", "full")}
    return (max(errs.values()) <= tol, "max relative error "
            + ", ".join(f"{order} {err:.3e}" for order, err in errs.items()))


def check_gradient_j_beta(tol=None):
    """Analytic vs central-difference gradients of the KL-control objective."""
    return _gradcheck("j_beta", tol or 1e-7)


def check_gradient_forward_kl(tol=None):
    """Analytic vs central-difference gradients of the forward-KL fit."""
    return _gradcheck("forward_kl", tol or 1e-7)


def check_tvd_metric(tol=None):
    """Symmetry and triangle inequality of TVD on random triples."""
    tol = tol or 1e-12
    rng = SeededRng(13)
    outcomes = tuple(range(12))
    for _ in range(20):
        p, q, s = (dist.FiniteDistribution(outcomes, _random_simplex(rng, 12))
                   for _ in range(3))
        if dist.total_variation(p, q) != dist.total_variation(q, p):
            return False, "symmetry violated"
        if (dist.total_variation(p, s)
                > dist.total_variation(p, q) + dist.total_variation(q, s) + tol):
            return False, "triangle inequality violated"
    return True, "ok"


def check_conditioning(tol=None):
    """Conditioning renormalizes exactly and zeroes the complement."""
    tol = tol or 1e-12
    rng = SeededRng(17)
    outcomes = tuple(range(10))
    p = dist.FiniteDistribution(outcomes, _random_simplex(rng, 10))
    mask = np.zeros(10, dtype=bool)
    mask[2:7] = True
    c = dist.condition(p, mask)
    if abs(c.probs.sum() - 1.0) > tol:
        return False, "not normalized"
    if np.any(c.probs[~mask] != 0.0):
        return False, "mass off the conditioning set"
    ratio = c.probs[mask] / p.probs[mask]
    return float(ratio.max() - ratio.min()) <= tol, "ok"


# Name -> callable; the single source for the `check` command and the tests.
REGISTRY = {
    "prop-identity": check_prop_identity,
    "kl-difference-identity": check_kl_difference_identity,
    "bijection-roundtrip": check_bijection_roundtrip,
    "legendre-consistency": check_legendre_consistency,
    "closed-form-convergence": check_closed_form_convergence,
    "moment-monotone-convex": check_moment_monotone_convex,
    "iprojection-slice": check_iprojection_slice,
    "ordering-crossing": check_ordering_crossing,
    "gradient-j-beta": check_gradient_j_beta,
    "gradient-forward-kl": check_gradient_forward_kl,
    "tvd-metric": check_tvd_metric,
    "conditioning": check_conditioning,
}


def run_all(tolerance=None):
    """Run every registered check; returns {name: (passed, detail)}.  A check
    that raises ValueError or ArithmeticError fails, with the error as detail."""
    results = {}
    for name, fn in REGISTRY.items():
        try:
            results[name] = fn(tolerance)
        except (ValueError, ArithmeticError) as exc:
            results[name] = (False, f"raised {type(exc).__name__}: {exc}")
    return results
