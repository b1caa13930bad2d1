"""The lifecycle equivalence oracle, and proof that it has teeth."""

import pytest

from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
from repro.testkit.lifecycle import (
    FlightDroppingBroker,
    LifecycleCell,
    LifecycleEquivalenceRunner,
    cancel_during_flight,
    toy_lifecycle_runner,
)


class TestSweep:
    def test_single_seed_sweep_is_clean(self):
        report = toy_lifecycle_runner(seeds=(1,)).run()
        assert report.ok, report.describe()
        # 1 seed x {direct, broker} x {scalar, batched} x {cancel, expire}
        assert report.cells_run == 8
        assert "zero divergences" in report.describe()

    def test_parked_cell_matches_budget_k_exactly(self):
        runner = toy_lifecycle_runner(seeds=(8,))
        cell = LifecycleCell(
            seed=8, path="direct", batched=True, kind="expire", k_target=12
        )
        parked = runner.run_parked(cell)
        assert parked.state == "expired"
        assert parked.queries >= 12
        assert parked.result is not None
        assert parked.result.queries == parked.queries
        golden = runner.run_golden(8, parked.queries)
        assert golden.queries == parked.queries
        assert golden.result.success is False

    def test_unknown_axes_rejected(self):
        with pytest.raises(ValueError):
            toy_lifecycle_runner(seeds=(1,), paths=("direct", "teleport"))
        with pytest.raises(ValueError):
            toy_lifecycle_runner(seeds=(1,), kinds=("cancel", "maybe"))
        with pytest.raises(ValueError):
            toy_lifecycle_runner(seeds=(1,), window=0)

    def test_oracle_catches_a_lying_park(self):
        """A park that misreports its count must surface as a divergence."""
        runner = toy_lifecycle_runner(seeds=(1,), kinds=("cancel",),
                                      paths=("direct",))
        original = LifecycleEquivalenceRunner.run_parked

        def lying_park(self, cell):
            session = original(self, cell)
            session.queries += 1  # off-by-one accounting bug
            return session

        runner.run_parked = lying_park.__get__(runner)
        report = runner.run()
        assert not report.ok
        assert "diverged" in report.describe()


class TestSparseRSParks:
    """A parked Sparse-RS session carries its budget-k result.

    Sparse-RS never wins on the hard seeds, so every park boundary is
    reachable; a session that dropped the unwind would park with no
    result and diverge from its budget-k golden in every cell.
    """

    def _runner(self, seeds):
        toy = toy_lifecycle_runner(seeds=seeds)
        return LifecycleEquivalenceRunner(
            lambda seed: SparseRS(SparseRSConfig(seed=seed)),
            toy.classifier_factory,
            toy.case_factory,
            seeds=seeds,
            budget=toy.budget,
        )

    def test_sweep_is_clean(self):
        report = self._runner((1, 8, 20, 26)).run()
        assert report.ok, report.describe()
        assert report.cells_run == 4 * 2 * 2 * 2

    @pytest.mark.parametrize("kind, state", [
        ("cancel", "cancelled"), ("expire", "expired"),
    ])
    def test_parked_result_is_the_budget_k_result(self, kind, state):
        runner = self._runner((20,))
        parked = runner.run_parked(LifecycleCell(
            seed=20, path="broker", batched=False, kind=kind, k_target=15
        ))
        assert parked.state == state
        assert parked.queries == 15
        golden = runner.run_golden(20, 15).result
        assert parked.result == golden
        assert not golden.success and golden.queries == 15


@pytest.mark.slow
class TestCancelDuringFlight:
    def test_cobatched_survivor_settles_with_golden_count(self):
        verdict = cancel_during_flight()
        assert verdict["settled"], verdict
        assert verdict["survivor_queries"] == verdict["survivor_golden"]
        assert verdict["cancelled_state"] == "cancelled"
        assert verdict["cancelled_exact"], verdict

    def test_flight_dropping_broker_is_caught(self):
        """Negative control: a broker that drops flights after a
        cancellation must poison the co-batched session visibly."""
        verdict = cancel_during_flight(
            broker_cls=FlightDroppingBroker, drop_on_cancel=True
        )
        assert not verdict["settled"], verdict
