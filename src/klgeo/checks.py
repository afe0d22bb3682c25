"""Registry of executable invariant checks.

Every named identity or structural property the library promises is
represented here once, so the `check` command cannot silently drop one,
and the acceptance criteria run these same checks.  Each check runs on
fixed instances at fixed tolerances and returns (passed, detail).
"""
from __future__ import annotations

import math

import numpy as np

from . import dist, geometry, ngram
from .experiments import (
    TABLE_A1,
    _toy_instance,
    ordering_illustration,
    ordering_instance,
    three_outcome_family,
)
from .rng import SeededRng


def _random_simplex(rng, n):
    w = -np.log(1.0 - rng.uniform(n))
    return w / w.sum()


def _random_dist(fam, rng):
    return dist.FiniteDistribution(fam.base.outcomes,
                                   _random_simplex(rng, len(fam.base)))


def _toy_family(seed=7):
    rng = SeededRng(seed)
    base = dist.FiniteDistribution(range(27), _random_simplex(rng, 27))
    mask = np.zeros(27, dtype=bool)
    mask[:9] = True
    return geometry.TiltedFamily(base, dist.BinaryVerifier(mask)), rng


def _general_family(seed=11):
    rng = SeededRng(seed)
    base = dist.FiniteDistribution(range(27), _random_simplex(rng, 27))
    reward = dist.RewardFn(rng.uniform(27))
    return geometry.TiltedFamily(base, reward), rng


def _identity_draws():
    """100 draws of (q, l1, l2, beta), l1, l2 in [-2, 4) and beta in
    [0.05, 2.05), on the general reward of seed 23."""
    fam, rng = _general_family(seed=23)
    draws = []
    for _ in range(100):
        q = _random_dist(fam, rng)
        l1, l2 = -2.0 + 6.0 * rng.uniform(2)
        beta = 0.05 + 2.0 * float(rng.uniform(1)[0])
        draws.append((q, l1, l2, beta))
    return fam, draws


def check_prop_identity():
    """J_beta(q) = beta * (A(1/beta) - KL(q, p_{1/beta})) on random q."""
    fam, rng = _toy_family()
    cases = [(fam, _random_dist(fam, rng), beta)
             for beta in (0.1, 0.5, 2.0) for _ in range(10)]
    fam23, draws = _identity_draws()
    cases += [(fam23, q, beta) for q, _, _, beta in draws]
    worst = 0.0
    for fam, q, beta in cases:
        lam = 1.0 / beta
        lhs = geometry.j_beta(fam, q, beta)
        rhs = beta * (geometry.log_partition(fam, lam)
                      - dist.kl_divergence_finite(q, geometry.tilted(fam, lam)))
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-10, f"max residual {worst:.3e}"


def check_kl_difference_identity():
    """Closed-form KL difference matches direct subtraction of the two KLs."""
    fam, rng = _general_family()
    cases = []
    for _ in range(20):
        q = _random_dist(fam, rng)
        l1, l2 = -1.0 + 4.0 * rng.uniform(2)
        cases.append((fam, q, l1, l2))
    fam23, draws = _identity_draws()
    cases += [(fam23, q, l1, l2) for q, l1, l2, _ in draws]
    worst = 0.0
    for fam, q, l1, l2 in cases:
        direct = (dist.kl_divergence_finite(q, geometry.tilted(fam, l2))
                  - dist.kl_divergence_finite(q, geometry.tilted(fam, l1)))
        worst = max(worst, abs(geometry.kl_difference(fam, q, l1, l2) - direct))
    return worst <= 1e-10, f"max residual {worst:.3e}"


def _moment_families():
    """Binary rewards of seeds 7 and 11 and the general reward of seed 11."""
    return [_toy_family(7)[0], _toy_family(11)[0], _general_family(11)[0]]


def check_bijection_roundtrip():
    """natural_param(moment(lam)) = lam, binary and general rewards."""
    worst = 0.0
    for fam in _moment_families():
        for lam in np.linspace(-20, 20, 41):
            mu = geometry.moment(fam, lam)
            worst = max(worst, abs(geometry.natural_param(fam, mu) - lam))
    return worst <= 1e-10, f"max roundtrip error {worst:.3e}"


def check_legendre_consistency():
    """kappa(mu) = lam(mu)*mu - A(lam(mu)) = KL(p_{lam(mu)}, base), on a mu
    grid and at mu = moment(lam) on a lam grid."""
    worst = 0.0
    for fam in _moment_families():
        for lam in np.linspace(-20, 20, 41):
            kappa = geometry.divergence_cost(fam, geometry.moment(fam, lam))
            direct = dist.kl_divergence_finite(geometry.tilted(fam, lam), fam.base)
            worst = max(worst, abs(kappa - direct))
        lo, hi = fam.reward.m, fam.reward.M
        for mu in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 9):
            lam = geometry.natural_param(fam, mu)
            kappa = geometry.divergence_cost(fam, mu)
            direct = dist.kl_divergence_finite(geometry.tilted(fam, lam), fam.base)
            dual = lam * mu - geometry.log_partition(fam, lam)
            worst = max(worst, abs(kappa - direct), abs(kappa - dual))
    return worst <= 1e-10, f"max residual {worst:.3e}"


def check_closed_form_convergence():
    """TVD and forward KL to the filtered model: the profile, the direct
    values and A0/(A0 + A1 e^lam), log1p((A0/A1) e^-lam) agree; the
    reverse KL is infinite.  At lam in {1e3, 1e17, 1e300}, kl_to_tilted
    matches log1p((A0/A1) e^-lam) and log_partition (relative to
    max(1, |A|)) matches lam + log A1 + log1p((A0/A1) e^-lam)."""
    fams = [_toy_family()[0]] + [three_outcome_family(a1) for a1 in TABLE_A1]
    worst = 0.0
    for fam in fams:
        a0, a1 = fam.A0, fam.A1
        pstar = geometry.attained_bound_limits(fam, "upper").limit_dist
        for point in geometry.convergence_profile(fam, np.linspace(-10, 40, 51)):
            p_lam = geometry.tilted(fam, point.lam)
            tvds = (point.tvd_to_pstar, dist.total_variation(pstar, p_lam),
                    a0 / (a0 + a1 * math.exp(point.lam)))
            fkls = (point.fkl_from_pstar, dist.kl_divergence_finite(pstar, p_lam),
                    math.log1p((a0 / a1) * math.exp(-point.lam)))
            worst = max(worst, max(tvds) - min(tvds), max(fkls) - min(fkls))
            if dist.kl_divergence(p_lam, pstar) != math.inf:
                return False, "reverse KL unexpectedly finite"
        for lam in (1e3, 1e17, 1e300):
            fkl = math.log1p((a0 / a1) * math.exp(-lam))
            log_z = lam + math.log(a1) + fkl
            a_err = abs(geometry.log_partition(fam, lam) - log_z) / max(1.0, abs(log_z))
            worst = max(worst, abs(geometry.kl_to_tilted(fam, pstar, lam) - fkl), a_err)
    return worst <= 1e-12, f"max residual {worst:.3e}"


def check_moment_monotone_convex():
    """moment strictly increasing; log-partition second differences >= 0."""
    grid = np.linspace(-20, 20, 81)
    for fam in _moment_families():
        mus = [geometry.moment(fam, l) for l in grid]
        if any(b <= a for a, b in zip(mus, mus[1:])):
            return False, "moment map not strictly increasing"
        second = np.diff([geometry.log_partition(fam, l) for l in grid], 2)
        if second.min() < -1e-10:
            return False, f"convexity violated by {second.min():.3e}"
    return True, "ok"


def check_iprojection_slice():
    """KL(q, p_{lam(mu)}) - KL(q, base) is constant over the moment slice."""
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
    return spread <= 1e-10, f"gap spread {spread:.3e}"


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


def check_ordering_crossing():
    """The candidates pi3 and pi4, of validities 0.93 and 0.98, swap order
    at the lambda the tilt identity predicts, (KL(pi4, a) - KL(pi3, a)) / 0.05,
    and pi4 stays ahead at every larger lambda of the curves' grid."""
    fam, _, cands = ordering_instance()
    res = ordering_illustration(np.linspace(0.5, 60.0, 120))
    lam_star = res.crossing_lambda
    pred = (dist.kl_divergence_finite(cands["pi4"], fam.base)
            - dist.kl_divergence_finite(cands["pi3"], fam.base)) / (0.98 - 0.93)

    def kl(name, lam):
        return dist.kl_divergence_finite(cands[name], geometry.tilted(fam, lam))

    gap = kl("pi3", lam_star) - kl("pi4", lam_star)
    below = kl("pi4", lam_star - 1) < kl("pi3", lam_star - 1)
    above = kl("pi4", lam_star + 1) < kl("pi3", lam_star + 1)
    ahead = all(k4 < k3 for lam, k3, k4 in zip(res.lambdas, res.curves["pi3"],
                                               res.curves["pi4"]) if lam > lam_star)
    ok = (abs(res.validities["pi3"] - 0.93) < 1e-12
          and abs(res.validities["pi4"] - 0.98) < 1e-12
          and math.isfinite(lam_star) and abs(lam_star - pred) <= 1e-6
          and abs(gap) <= 1e-8 and above and not below and ahead)
    return ok, (f"crossing at {lam_star:.4f} vs predicted {pred:.4f}, "
                f"gap {gap:.3e}")


# (base seed, order, policy seed) of each instance the gradient checks run
_GRADIENT_CASES = ((3, "bigram", 5), (3, "full", 5), (1, "bigram", 101),
                   (1, "bigram", 102), (1, "bigram", 103))


def _gradcheck(make_objective):
    """The max relative error of the analytic gradient of the objective
    make_objective(fam, pstar) against central differences, at a random
    policy of each instance's order ("bigram" or "full") on the (3, 3)
    first-equals-last toy.  Fails unless every instance's error is below
    1e-7; reports the worst error of each order."""
    worst = {"bigram": 0.0, "full": 0.0}
    for base_seed, order, policy_seed in _GRADIENT_CASES:
        fam, pstar, template = _toy_instance(base_seed, order)
        pol = template.with_logits(SeededRng(policy_seed).normal(template.n_params))
        obj = make_objective(fam, pstar)
        worst[order] = max(worst[order], ngram.verify_gradients(pol, obj))
    return (max(worst.values()) < 1e-7, "max relative error "
            + ", ".join(f"{order} {err:.3e}" for order, err in worst.items()))


def check_gradient_j_beta():
    """Analytic vs central-difference gradients of the KL-control objective."""
    return _gradcheck(lambda fam, pstar: ngram.JBetaObjective(fam, beta=0.2))


def check_gradient_forward_kl():
    """Analytic vs central-difference gradients of the forward-KL fit."""
    return _gradcheck(lambda fam, pstar: ngram.ForwardKLObjective(pstar))


def check_tvd_metric():
    """Symmetry and triangle inequality of TVD on random triples."""
    rng = SeededRng(13)
    outcomes = tuple(range(12))
    for _ in range(20):
        p, q, s = (dist.FiniteDistribution(outcomes, _random_simplex(rng, 12))
                   for _ in range(3))
        if dist.total_variation(p, q) != dist.total_variation(q, p):
            return False, "symmetry violated"
        if (dist.total_variation(p, s)
                > dist.total_variation(p, q) + dist.total_variation(q, s) + 1e-12):
            return False, "triangle inequality violated"
    return True, "ok"


def check_conditioning():
    """Conditioning renormalizes exactly and zeroes the complement."""
    rng = SeededRng(17)
    outcomes = tuple(range(10))
    p = dist.FiniteDistribution(outcomes, _random_simplex(rng, 10))
    mask = np.zeros(10, dtype=bool)
    mask[2:7] = True
    c = dist.condition(p, mask)
    if abs(c.probs.sum() - 1.0) > 1e-12:
        return False, "not normalized"
    if np.any(c.probs[~mask] != 0.0):
        return False, "mass off the conditioning set"
    ratio = c.probs[mask] / p.probs[mask]
    return float(ratio.max() - ratio.min()) <= 1e-12, "ok"


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


def run_all():
    """Run every registered check; returns {name: (passed, detail)}.  A check
    that raises ValueError or ArithmeticError fails, with the error as detail."""
    results = {}
    for name, fn in REGISTRY.items():
        try:
            results[name] = fn()
        except (ValueError, ArithmeticError) as exc:
            results[name] = (False, f"raised {type(exc).__name__}: {exc}")
    return results
