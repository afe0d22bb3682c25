"""Sweep orchestration, ordering instance, beta-mu table, diagnostics."""
import math

import numpy as np
import pytest

from klgeo.dist import (
    BinaryVerifier,
    FiniteDistribution,
    condition,
    expected_reward,
    kl_divergence_finite,
)
from klgeo.experiments import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_SIGMA,
    TOP_K,
    SweepRecord,
    _toy_instance,
    beta_mu_table,
    multi_seed,
    ordering_illustration,
    ordering_instance,
    run_sweep,
    top_sequences,
    tvd_dip_diagnostic,
)
from klgeo.geometry import TiltedFamily, log_partition, moment, tilted
from klgeo.ngram import SequenceSpace, random_base_model, to_distribution
from klgeo.optimize import OptimizerConfig


TINY_CFG = OptimizerConfig(learning_rate=0.1, steps=200)
TINY_TVD = OptimizerConfig(learning_rate=0.1, steps=200, restarts=2)


class TestOrderingInstance:
    def test_candidate_validities(self):
        fam, pstar, cands = ordering_instance()
        res = ordering_illustration((1.0, 5.0))
        assert res.validities["pi1"] == pytest.approx(1.0, abs=1e-12)
        assert res.validities["pi2"] == pytest.approx(1.0, abs=1e-12)
        assert res.validities["pi3"] == pytest.approx(0.93, abs=1e-12)
        assert res.validities["pi4"] == pytest.approx(0.98, abs=1e-12)

    def test_pi3_is_contaminated_filtered_model(self):
        _, pstar, cands = ordering_instance()
        nu0 = np.array([0.0, 0.0, 0.0, 0.4, 0.6])
        assert np.allclose(cands["pi3"].probs, 0.93 * pstar.probs + 0.07 * nu0,
                           atol=1e-15)

    def test_curves_satisfy_tilt_identity(self):
        # KL(pi, p_lam) = KL(pi, a) - lam * E_pi[r] + A(lam)
        fam, _, cands = ordering_instance()
        lambdas = (0.5, 2.0, 8.0, 30.0)
        res = ordering_illustration(lambdas)
        for name, pi in cands.items():
            kl_base = kl_divergence_finite(pi, fam.base)
            mu = expected_reward(pi, fam.reward)
            for j, lam in enumerate(lambdas):
                expect = kl_base - lam * mu + log_partition(fam, lam)
                assert res.curves[name][j] == pytest.approx(expect, abs=1e-12)

    def test_curves_match_direct_kl(self):
        # the tilt identity against KL to the enumerated p_lam
        fam, _, cands = ordering_instance()
        lambdas = (0.5, 2.0, 8.0, 30.0, 100.0)
        res = ordering_illustration(lambdas)
        for name, pi in cands.items():
            for j, lam in enumerate(lambdas):
                expect = kl_divergence_finite(pi, tilted(fam, lam))
                assert res.curves[name][j] == pytest.approx(expect, abs=1e-12)

    def test_curves_finite_where_tilted_underflows(self):
        # at lambda = 1000 p_lam has no invalid mass left in a double, yet
        # the KL of a candidate with invalid mass is finite: KL(pi, a)
        # + A(lam) - lam E_pi[r]
        fam, _, cands = ordering_instance()
        assert tilted(fam, 1000.0).probs[3:].max() == 0.0
        res = ordering_illustration((1000.0,))
        pi3 = cands["pi3"]
        expect = (kl_divergence_finite(pi3, fam.base) + log_partition(fam, 1000.0)
                  - 1000.0 * expected_reward(pi3, fam.reward))
        assert res.curves["pi3"][0] == pytest.approx(expect, rel=1e-12)
        assert res.curves["pi4"][0] < res.curves["pi3"][0]

    def test_crossing_flips_preference(self):
        res = ordering_illustration((1.0,))
        lam_star = res.crossing_lambda
        assert lam_star > 0
        below = ordering_illustration((lam_star * 0.9,))
        above = ordering_illustration((lam_star * 1.1,))
        # below the crossing the nearer (lower-validity) candidate pi3 wins;
        # above it the higher-validity pi4 wins
        assert below.curves["pi3"][0] < below.curves["pi4"][0]
        assert above.curves["pi4"][0] < above.curves["pi3"][0]
        at = ordering_illustration((lam_star,))
        assert at.curves["pi3"][0] == pytest.approx(at.curves["pi4"][0], abs=1e-12)

    def test_fully_valid_gap_is_lambda_free(self):
        # pi1 = p* and the dirac pi2 both have validity 1, so their KL gap to
        # p_lam is constant in lambda and p* is always the preferred one
        res = ordering_illustration((0.5, 40.0))
        gaps = [res.curves["pi2"][j] - res.curves["pi1"][j] for j in (0, 1)]
        assert gaps[0] == pytest.approx(gaps[1], abs=1e-10)
        assert gaps[0] > 0


class TestBetaMuTable:
    def test_row_invariants(self):
        rows = beta_mu_table((0.1, 0.33, 0.9), (0.5, 0.9, 0.99))
        assert len(rows) == 9
        for row in rows:
            base = FiniteDistribution(
                ("v1", "v2", "i1"), (row.A1 / 2, row.A1 / 2, 1 - row.A1))
            fam = TiltedFamily(base, BinaryVerifier((True, True, False)))
            # the required lambda reproduces the target validity
            assert moment(fam, row.lambda_required) == pytest.approx(
                row.mu_target, abs=1e-10)
            # kappa is the KL from the tilted model to the base
            p_lam = tilted(fam, row.lambda_required)
            assert row.kappa_cost == pytest.approx(
                kl_divergence_finite(p_lam, base), abs=1e-10)
            if abs(row.lambda_required) > 1e-12:
                assert row.beta_required == pytest.approx(
                    1.0 / row.lambda_required, abs=1e-12)

    def test_mu_equal_a1_needs_no_tilt(self):
        (row,) = beta_mu_table((0.9,), (0.9,))
        assert row.lambda_required == pytest.approx(0.0, abs=1e-12)
        assert row.beta_required == math.inf
        assert row.kappa_cost == pytest.approx(0.0, abs=1e-12)

    def test_kappa_closed_form(self):
        (row,) = beta_mu_table((0.3,), (0.8,))
        mu, a1, a0 = 0.8, 0.3, 0.7
        kappa = mu * math.log(mu / a1) + (1 - mu) * math.log((1 - mu) / a0)
        assert row.kappa_cost == pytest.approx(kappa, abs=1e-12)
        lam = math.log(mu / (1 - mu)) + math.log(a0 / a1)
        assert row.lambda_required == pytest.approx(lam, abs=1e-10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            beta_mu_table((1.0,), (0.5,))
        with pytest.raises(ValueError):
            beta_mu_table((0.5,), (1.0,))


class TestTopSequences:
    def test_ties_broken_by_enumeration_order(self):
        d = FiniteDistribution(tuple("abcdefgh"), (0.125,) * 8)
        assert top_sequences(d) == tuple((o, 0.125) for o in "abcde")

    def test_k_larger_than_space(self):
        d = FiniteDistribution(("a", "b"), (0.7, 0.3))
        assert top_sequences(d) == (("a", 0.7), ("b", 0.3))

    def test_descending(self):
        d = FiniteDistribution(("a", "b", "c"), (0.2, 0.5, 0.3))
        assert [o for o, _ in top_sequences(d)] == ["b", "c", "a"]


class TestToyInstance:
    @pytest.mark.parametrize("order", ["bigram", "full"])
    def test_base_model_drawn_at_default_sigma(self, order):
        # the sweep's base logits have std dev DEFAULT_SIGMA
        base = _toy_instance(4, order)[0].base
        pol = random_base_model(SequenceSpace(3, 3), 4, DEFAULT_SIGMA)
        assert np.array_equal(base.probs, to_distribution(pol).probs)


class TestRunSweep:
    def test_structure_and_identities(self):
        lambdas = (0.5, 1.0, 2.0, 5.0)
        summary = run_sweep(1, "bigram", lambdas, TINY_CFG, TINY_TVD)
        assert summary.seed == 1
        assert len(summary.records) == 4
        assert 0.20 <= summary.A1_base <= 0.47
        for rec, lam in zip(summary.records, lambdas):
            assert isinstance(rec, SweepRecord)
            assert rec.lam == lam and rec.beta == pytest.approx(1.0 / lam)
            assert 0.0 <= rec.validity <= 1.0
            assert 0.0 <= rec.tvd_to_pstar <= 1.0
            assert rec.entropy >= 0.0
            assert len(rec.top_sequences) == TOP_K == 5
            probs = [p for _, p in rec.top_sequences]
            assert probs == sorted(probs, reverse=True)

    def test_records_satisfy_prop1a(self):
        # J_beta(q) = J_beta(p_lam) - beta * KL(q, p_lam), checked on every record
        from klgeo.geometry import j_beta

        summary = run_sweep(2, "bigram", (1.0, 5.0, 20.0), TINY_CFG,
                            TINY_TVD)
        fam = _toy_instance(2, "bigram")[0]
        for rec in summary.records:
            beta = 1.0 / rec.lam
            p_lam = tilted(fam, rec.lam)
            j_opt = j_beta(fam, p_lam, beta)
            assert rec.j_beta_value == pytest.approx(
                j_opt - beta * rec.rkl_to_tilted, abs=1e-9)

    def test_full_order_runs(self):
        summary = run_sweep(1, "full", (1.0, 5.0), TINY_CFG, TINY_TVD)
        assert len(summary.records) == 2

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            run_sweep(1, "bigram", (5.0, 1.0), TINY_CFG, TINY_TVD)
        with pytest.raises(ValueError):
            run_sweep(1, "bigram", (-1.0, 2.0), TINY_CFG, TINY_TVD)
        with pytest.raises(ValueError):
            run_sweep(1, "trigram", (1.0,), TINY_CFG, TINY_TVD)

    @pytest.mark.parametrize("order", ["bigram", "full"])
    def test_reference_metrics_populated(self, order):
        # in the full order the projection is p* itself, to round-off: the
        # sum of its KL terms is -1.3e-16 at seed 3, written as 0
        summary = run_sweep(3, order, (1.0,), TINY_CFG, TINY_TVD)
        assert 0.0 <= summary.fkl_ref_validity <= 1.0
        assert summary.fkl_ref_kl >= 0.0
        assert 0.0 <= summary.tvd_ref_tvd <= 1.0
        p = _toy_instance(3, order)[1].probs
        assert summary.pstar_entropy == pytest.approx(
            float(-(p[p > 0] * np.log(p[p > 0])).sum()), abs=1e-12)

    def test_full_order_fkl_validity_is_one(self):
        # at seed 1 the projection's valid mass sums to 1 + 2.2e-16 in the
        # dot product; refs.csv writes an expected reward, in [0, 1]
        assert run_sweep(1, "full", (1.0,), TINY_CFG, TINY_TVD).fkl_ref_validity == 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_aborted_ascent_raises(self):
        # beta = 1/lambda = 1e300 makes the first gradient non-finite
        with pytest.raises(ValueError, match=r"seed 2: the ascent at lambda "
                           r"1e-300 aborted: non-finite gradient"):
            run_sweep(2, "bigram", (1e-300, 1.0), TINY_CFG, TINY_TVD)

    def test_diverged_ascent_raises(self):
        # at beta = 1/lambda = 100 the fixed step 0.1 drives J_beta down
        with pytest.raises(ValueError, match=r"seed 1: the ascent at lambda "
                           r"0.01 diverged: the objective ended at -"):
            run_sweep(1, "bigram", (0.01,), OptimizerConfig(steps=10), TINY_TVD)

    def test_deterministic(self):
        a = run_sweep(4, "bigram", (2.0,), TINY_CFG, TINY_TVD)
        b = run_sweep(4, "bigram", (2.0,), TINY_CFG, TINY_TVD)
        assert a.records[0].j_beta_value == b.records[0].j_beta_value
        assert a.tvd_ref_tvd == b.tvd_ref_tvd


class TestMultiSeed:
    def test_aggregates(self):
        res = multi_seed((1, 2), "bigram", (1.0, 5.0), TINY_CFG, TINY_TVD)
        assert len(res.summaries) == 2
        assert res.lambdas == [1.0, 5.0]
        v = res.per_lambda["validity"]
        assert len(v["mean"]) == 2 and len(v["std"]) == 2
        raw = [s.records[1].validity for s in res.summaries]
        assert v["mean"][1] == pytest.approx(np.mean(raw), abs=1e-15)
        assert v["std"][1] == pytest.approx(np.std(raw), abs=1e-15)
        assert set(res.references) == {"A1_base", "fkl_ref_validity",
                                       "fkl_ref_kl", "tvd_ref_tvd",
                                       "pstar_entropy"}

    def test_single_seed_has_no_aggregate(self):
        res = multi_seed((1,), "bigram", (1.0,), TINY_CFG, TINY_TVD)
        assert [s.seed for s in res.summaries] == [1]
        assert res.per_lambda is None and res.references is None

    def test_passes_warm_start(self):
        res = multi_seed((1,), "full", (1.0, 5.0), TINY_CFG, TINY_TVD,
                         warm_start=True)
        warm = run_sweep(1, "full", (1.0, 5.0), TINY_CFG, TINY_TVD, warm_start=True)
        cold = run_sweep(1, "full", (1.0, 5.0), TINY_CFG, TINY_TVD)
        assert res.summaries[0].records == warm.records
        assert res.summaries[0].records[1] != cold.records[1]


class TestDipDiagnostic:
    def test_requires_spanning_grid(self):
        summary = run_sweep(1, "bigram", (1.0, 2.0, 5.0), TINY_CFG,
                            TINY_TVD)
        with pytest.raises(ValueError):
            tvd_dip_diagnostic(summary)

    def test_runs_on_full_grid(self):
        summary = run_sweep(1, "bigram", DEFAULT_LAMBDA_GRID, TINY_CFG,
                            TINY_TVD)
        diag = tvd_dip_diagnostic(summary)
        assert isinstance(diag.dip_present, bool)
        assert diag.argmin_lambda in DEFAULT_LAMBDA_GRID
