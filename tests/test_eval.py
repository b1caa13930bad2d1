"""Tests for the evaluation harness (runner, curves, transfer, ablation)."""

import math

import numpy as np
import pytest

from repro.attacks.base import AttackResult, OnePixelAttack
from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
from repro.core.dsl.ast import Program
from repro.core.stepping import Query, StepCounter
from repro.eval.ablation import ablation_table
from repro.eval.reporting import (
    format_ablation,
    format_success_curves,
    format_synthesis_study,
    format_table,
    format_transfer,
)
from repro.eval.runner import AttackRunSummary, attack_dataset
from repro.eval.success_curves import success_curves
from repro.eval.synthesis_study import synthesis_study
from repro.eval.transfer import transfer_matrix
from repro.core.synthesis.oppsla import OppslaConfig


def ok(queries):
    return AttackResult(
        success=True, queries=queries, location=(0, 0), perturbation=np.ones(3)
    )


def fail(queries):
    return AttackResult(success=False, queries=queries)


class TestAttackRunSummary:
    def make(self):
        results = [ok(5), ok(50), fail(100), ok(500)]
        return AttackRunSummary("test", results, budget=1000)

    def test_success_rate(self):
        summary = self.make()
        assert summary.success_rate == pytest.approx(0.75)
        assert summary.successes == 3
        assert summary.total_images == 4

    def test_success_rate_at(self):
        summary = self.make()
        assert summary.success_rate_at(4) == 0.0
        assert summary.success_rate_at(5) == pytest.approx(0.25)
        assert summary.success_rate_at(50) == pytest.approx(0.5)
        assert summary.success_rate_at(10_000) == pytest.approx(0.75)

    def test_avg_and_median(self):
        summary = self.make()
        assert summary.avg_queries == pytest.approx((5 + 50 + 500) / 3)
        assert summary.median_queries == 50.0

    def test_empty_results(self):
        summary = AttackRunSummary("none", [], budget=None)
        assert summary.success_rate == 0.0
        assert math.isinf(summary.avg_queries)
        assert math.isinf(summary.median_queries)

    def test_curve_monotone(self):
        summary = self.make()
        curve = summary.curve([1, 10, 100, 1000])
        assert curve == sorted(curve)

    def test_attack_dataset_runs_each_pair(self, linear_classifier, toy_pairs):
        summary = attack_dataset(
            FixedSketchAttack(), linear_classifier, toy_pairs, budget=60
        )
        assert summary.total_images == len(toy_pairs)
        for result in summary.results:
            assert result.queries <= 60


class _BudgetLeakingAttack(OnePixelAttack):
    """A non-compliant attack that lets QueryBudgetExceeded escape.

    Compliant attacks count with their own ``StepCounter`` and catch the
    exhaustion signal; this one queries until the caller-supplied cap
    trips, the failure mode the dataset runner must degrade gracefully
    around.
    """

    name = "BudgetLeaker"

    def steps(self, image, true_class, budget=None, target_class=None,
              batch_size=None):
        counter = StepCounter(budget)
        while True:  # no exception handling on purpose
            yield counter.submit(image)


class TestBudgetExhaustionGracefulness:
    def test_escaping_budget_exception_degrades_one_image(
        self, linear_classifier, toy_pairs
    ):
        """A QueryBudgetExceeded escaping one attack must not kill the
        dataset run: the image is recorded as a failure at full budget
        with an error tag and the remaining images still run."""
        summary = attack_dataset(
            _BudgetLeakingAttack(), linear_classifier, toy_pairs, budget=25
        )
        assert summary.total_images == len(toy_pairs)
        assert summary.successes == 0
        for result in summary.results:
            assert not result.success
            assert result.queries == 25
            assert result.error == "QueryBudgetExceeded"
        assert summary.to_dict()["errors"] == {
            "QueryBudgetExceeded": len(toy_pairs)
        }

    def test_unbudgeted_escape_uses_exception_budget(self, linear_classifier):
        """Without a caller budget the degraded result reports the
        budget the exception itself carried."""
        from repro.classifier.blackbox import QueryBudgetExceeded
        from repro.runtime.tasks import run_single_attack

        class _Raises(OnePixelAttack):
            name = "Raises"

            def steps(self, image, true_class, budget=None,
                      target_class=None, batch_size=None):
                yield Query(image)
                raise QueryBudgetExceeded(17)

        result = run_single_attack(
            _Raises(), linear_classifier, np.zeros((6, 6, 3)), 0, None
        )
        assert isinstance(result, AttackResult)
        assert not result.success
        assert result.queries == 17
        assert result.error == "QueryBudgetExceeded"


class TestSuccessCurves:
    def test_runs_all_attacks(self, linear_classifier, toy_pairs):
        attacks = [
            FixedSketchAttack(),
            SparseRS(SparseRSConfig(seed=0)),
        ]
        curves = success_curves(
            attacks, linear_classifier, toy_pairs, thresholds=(10, 60), budget=60
        )
        assert set(curves) == {"Sketch+False", "Sparse-RS"}
        for curve in curves.values():
            assert len(curve.rates) == 2
            assert curve.rates == sorted(curve.rates)

    def test_requires_thresholds(self, linear_classifier, toy_pairs):
        with pytest.raises(ValueError):
            success_curves([FixedSketchAttack()], linear_classifier, toy_pairs, ())


class TestTransfer:
    def test_matrix_structure(self, linear_classifier, toy_pairs):
        programs = {"a": Program.constant(False), "b": Program.constant(True)}
        classifiers = {"a": linear_classifier, "b": linear_classifier}
        pairs = {"a": toy_pairs[:4], "b": toy_pairs[4:8]}
        matrix = transfer_matrix(programs, classifiers, pairs, budget=60)
        assert matrix.names == ["a", "b"]
        for target in "ab":
            for source in "ab":
                assert matrix.entry(target, source) > 0
        assert matrix.diagonal("a") == matrix.entry("a", "a")

    def test_transfer_overhead(self, linear_classifier, toy_pairs):
        programs = {"a": Program.constant(False), "b": Program.constant(False)}
        classifiers = {"a": linear_classifier, "b": linear_classifier}
        pairs = {"a": toy_pairs[:4], "b": toy_pairs[:4]}
        matrix = transfer_matrix(programs, classifiers, pairs, budget=60)
        # identical programs: overhead is exactly 1
        assert matrix.transfer_overhead("a", "b") == pytest.approx(1.0)

    def test_key_mismatch_rejected(self, linear_classifier, toy_pairs):
        with pytest.raises(ValueError):
            transfer_matrix(
                {"a": Program.constant(False)},
                {"b": linear_classifier},
                {"a": toy_pairs},
            )


class TestAblation:
    def test_rows(self, linear_classifier, toy_pairs):
        rows = ablation_table(
            "toy",
            linear_classifier,
            [FixedSketchAttack(), SparseRS(SparseRSConfig(seed=0))],
            toy_pairs,
            budget=60,
        )
        assert [row.approach for row in rows] == ["Sketch+False", "Sparse-RS"]
        for row in rows:
            assert row.classifier == "toy"
            assert 0.0 <= row.success_rate <= 1.0


class TestSynthesisStudy:
    def test_study_points(self, linear_classifier, toy_pairs):
        study = synthesis_study(
            linear_classifier,
            toy_pairs[:6],
            toy_pairs[6:],
            config=OppslaConfig(max_iterations=4, per_image_budget=60, seed=0),
            replay_budget=60,
        )
        assert study.points, "at least the initial program is accepted"
        assert study.points[0].iteration == 0
        queries = [point.synthesis_queries for point in study.points]
        assert queries == sorted(queries)
        assert study.fixed_avg_queries > 0
        assert study.improvement_over_fixed > 0


class TestAsciiChart:
    def test_renders_all_series(self):
        from repro.eval.reporting import render_ascii_chart

        text = render_ascii_chart(
            {"alpha": [(1, 0.1), (10, 0.5)], "beta": [(1, 0.2), (10, 0.3)]},
            width=30,
            height=6,
            log_x=True,
        )
        assert "A" in text and "B" in text
        assert "log10(x)" in text
        assert "alpha" in text and "beta" in text

    def test_handles_empty_and_degenerate(self):
        from repro.eval.reporting import render_ascii_chart

        assert render_ascii_chart({}) == "(no data)"
        assert render_ascii_chart({"a": []}) == "(no data)"
        # a single point must not divide by zero
        text = render_ascii_chart({"a": [(5.0, 1.0)]})
        assert "A" in text

    def test_ignores_non_finite_points(self):
        from repro.eval.reporting import render_ascii_chart

        text = render_ascii_chart(
            {"a": [(1.0, 1.0), (2.0, float("inf")), (3.0, 2.0)]}
        )
        assert "A" in text


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["33", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_success_curves(self, linear_classifier, toy_pairs):
        curves = success_curves(
            [FixedSketchAttack()], linear_classifier, toy_pairs,
            thresholds=(10, 60), budget=60,
        )
        text = format_success_curves("toy", curves)
        assert "Figure 3" in text and "Sketch+False" in text and "q<=10" in text

    def test_format_transfer(self, linear_classifier, toy_pairs):
        matrix = transfer_matrix(
            {"a": Program.constant(False)},
            {"a": linear_classifier},
            {"a": toy_pairs[:3]},
            budget=60,
        )
        text = format_transfer(matrix)
        assert "Table 1" in text

    def test_format_ablation_handles_inf(self):
        from repro.eval.ablation import AblationRow

        rows = [
            AblationRow("c", "never-succeeds", math.inf, math.inf, 2048.0, 0.0),
        ]
        text = format_ablation(rows)
        assert "-" in text

    def test_format_synthesis_study(self, linear_classifier, toy_pairs):
        study = synthesis_study(
            linear_classifier,
            toy_pairs[:4],
            toy_pairs[4:6],
            config=OppslaConfig(max_iterations=2, per_image_budget=60, seed=0),
            replay_budget=60,
        )
        text = format_synthesis_study(study)
        assert "Figure 4" in text and "fixed-prioritization" in text
