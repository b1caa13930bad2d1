"""A uniform-random one-pixel baseline (Narodytska & Kasiviswanathan style).

The simplest black-box attack: walk the (location, corner) pair space in
a uniformly random order without repetition, returning the first
successful pair.  It shares the sketch's perturbation space and
completeness but uses no prioritization whatsoever, so it lower-bounds
what any prioritization (fixed or learned) must beat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.attacks.base import AttackResult, OnePixelAttack
from repro.core.stepping import (
    AttackSteps,
    Query,
    QueryBatch,
    StepCounter,
    resolve_batch_window,
)
from repro.classifier.blackbox import QueryBudgetExceeded
from repro.core.geometry import NUM_CORNERS, RGB_CORNERS


@dataclass(frozen=True)
class UniformRandomConfig:
    seed: int = 0


class UniformRandomAttack(OnePixelAttack):
    """Exhaustive search of the corner space in random order."""

    def __init__(self, config: UniformRandomConfig = None):
        self.config = config or UniformRandomConfig()

    @property
    def name(self) -> str:
        return "UniformRandom"

    def steps(
        self,
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        target_class: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> AttackSteps:
        """The random walk as a generator; batches candidate blocks.

        With a batch window, consecutive candidates from the random
        order are posed as one :class:`QueryBatch` (Sparse-RS style
        candidate-block evaluation).  Blocks never outrun the budget --
        the block size is capped at the remaining allowance -- and each
        member is charged and checked for success in walk order, so an
        early win returns with exactly the scalar path's query count.
        """
        self._validate(image)
        if batch_size is None:
            batch_size = self.batch_size
        window = resolve_batch_window(batch_size)
        rng = np.random.default_rng(self.config.seed)
        counter = StepCounter(budget)
        d1, d2 = image.shape[:2]
        order = rng.permutation(d1 * d2 * NUM_CORNERS)

        def decode(flat: int):
            corner = int(flat % NUM_CORNERS)
            location_index = int(flat // NUM_CORNERS)
            row, col = location_index // d2, location_index % d2
            perturbed = image.copy()
            perturbed[row, col] = RGB_CORNERS[corner]
            return corner, row, col, perturbed

        def verdict(corner, row, col, scores) -> Optional[AttackResult]:
            winner = int(np.argmax(scores))
            won = (
                winner != true_class
                if target_class is None
                else winner == target_class
            )
            if won:
                return AttackResult(
                    success=True,
                    queries=counter.count,
                    location=(row, col),
                    perturbation=RGB_CORNERS[corner],
                    adversarial_class=winner,
                )
            return None

        try:
            if window <= 0:
                for flat in order:
                    corner, row, col, perturbed = decode(flat)
                    scores = yield counter.submit(perturbed)
                    result = verdict(corner, row, col, scores)
                    if result is not None:
                        return result
            else:
                position = 0
                while position < len(order):
                    if counter.allowance == 0:
                        counter.charge()  # raises at the scalar stop point
                    size = len(order) - position
                    size = min(size, window)
                    if counter.budget is not None:
                        size = min(size, counter.allowance)
                    block = [decode(flat) for flat in order[position:position + size]]
                    batch = QueryBatch(tuple(
                        Query(perturbed) for _, _, _, perturbed in block
                    ))
                    answers = np.asarray((yield batch), dtype=np.float64)
                    for (corner, row, col, _), query, scores in zip(
                        block, batch.queries, answers
                    ):
                        counter.charge()
                        batch.note(query, scores)
                        result = verdict(corner, row, col, scores)
                        if result is not None:
                            return result
                    position += size
        except QueryBudgetExceeded:
            pass
        return AttackResult(success=False, queries=counter.count)
