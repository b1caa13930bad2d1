"""A one-pixel CornerSearch baseline (Croce & Hein, ICCV 2019).

CornerSearch attacks in two phases: it first scores candidate single-
pixel corner writes by their effect on the margin loss, then tries
combinations of the most promising candidates.  Specialized to one pixel
the second phase degenerates into checking the best-ranked candidates
exhaustively, so the attack becomes:

1. *probe phase*: query a sampled subset of (location, corner) pairs and
   rank them by margin loss (one query each);
2. *exploit phase*: walk the remaining pairs in order of the loss
   observed at their location (pairs at locations that lowered the
   margin come first).

Unlike the paper's sketch, CornerSearch spends a fixed upfront probe
budget before exploiting -- the query profile the paper's introduction
argues against -- which makes it a useful contrast baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.attacks.base import AttackResult, OnePixelAttack
from repro.attacks.sparse_rs import margin
from repro.classifier.blackbox import QueryBudgetExceeded
from repro.core.geometry import NUM_CORNERS, RGB_CORNERS
from repro.core.stepping import AttackSteps, StepCounter


@dataclass(frozen=True)
class CornerSearchConfig:
    """Hyper-parameters for the one-pixel CornerSearch."""

    probe_fraction: float = 0.15  # fraction of locations probed upfront
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.probe_fraction <= 1.0:
            raise ValueError("probe_fraction must be in (0, 1]")


class CornerSearch(OnePixelAttack):
    """One-pixel CornerSearch: probe, rank, exploit."""

    def __init__(self, config: CornerSearchConfig = None):
        self.config = config or CornerSearchConfig()

    @property
    def name(self) -> str:
        return "CornerSearch"

    def steps(
        self,
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        target_class: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> AttackSteps:
        """Probe, rank and exploit as a scalar generator.

        Queries are posed one at a time; ``batch_size`` is accepted and
        ignored.
        """
        self._validate(image)
        rng = np.random.default_rng(self.config.seed)
        counter = StepCounter(budget)
        d1, d2 = image.shape[:2]

        def query(row: int, col: int, corner: int):
            perturbed = image.copy()
            perturbed[row, col] = RGB_CORNERS[corner]
            scores = yield counter.submit(perturbed)
            loss = margin(scores, true_class, target_class)
            if loss < 0:
                return loss, AttackResult(
                    success=True,
                    queries=counter.count,
                    location=(row, col),
                    perturbation=RGB_CORNERS[corner],
                    adversarial_class=int(np.argmax(scores)),
                )
            return loss, None

        num_locations = d1 * d2
        num_probes = max(1, int(round(self.config.probe_fraction * num_locations)))
        probe_locations = rng.choice(num_locations, size=num_probes, replace=False)
        location_loss = np.full(num_locations, np.inf)
        probed_corner = {}

        try:
            # phase 1: one random corner per probed location
            for flat in probe_locations:
                row, col = int(flat // d2), int(flat % d2)
                corner = int(rng.integers(0, NUM_CORNERS))
                loss, result = yield from query(row, col, corner)
                if result is not None:
                    return result
                location_loss[flat] = loss
                probed_corner[int(flat)] = corner

            # phase 2: exploit -- walk all remaining pairs, probed
            # locations first (ascending observed loss), then the rest in
            # a random order
            probed = [int(f) for f in probe_locations]
            probed.sort(key=lambda f: location_loss[f])
            unprobed = [
                f for f in rng.permutation(num_locations)
                if np.isinf(location_loss[f])
            ]
            for flat in probed + [int(f) for f in unprobed]:
                row, col = int(flat // d2), int(flat % d2)
                skip = probed_corner.get(flat)
                for corner in range(NUM_CORNERS):
                    if corner == skip:
                        continue
                    _, result = yield from query(row, col, corner)
                    if result is not None:
                        return result
        except QueryBudgetExceeded:
            pass
        return AttackResult(success=False, queries=counter.count)
