"""Sparse-RS (Croce et al., AAAI 2022), specialized to one pixel.

Sparse-RS is the random-search framework the paper treats as the
query-minimizing state of the art.  For the L0 / pixel threat model with
``k`` perturbed pixels it keeps a current set of (location, color) choices
with colors restricted to the RGB-cube corners, and at each step resamples
the locations and/or colors of a random subset, accepting the candidate
when the margin loss does not increase.  With ``k = 1`` the subset is the
single pixel, so a step either moves the pixel (keeping its color) or
recolors it (keeping its location); the probability of a location move
decays over time, mirroring Sparse-RS's shrinking resampling schedule.

The margin loss is the standard untargeted objective
``f(x')_{c_x} - max_{c != c_x} f(x')_c``; the attack succeeds as soon as
it goes negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.attacks.base import AttackResult, OnePixelAttack
from repro.classifier.blackbox import QueryBudgetExceeded
from repro.core.geometry import NUM_CORNERS, RGB_CORNERS
from repro.core.stepping import AttackSteps, StepCounter


@dataclass(frozen=True)
class SparseRSConfig:
    """Hyper-parameters of the one-pixel Sparse-RS.

    ``alpha_init`` and ``schedule_half_life`` shape the probability of
    proposing a location move (vs. a color move) at step ``t``:
    ``p_loc(t) = max(alpha_min, alpha_init * 0.5^(t / half_life))``.
    Early steps explore locations aggressively; later steps mostly
    fine-tune the color, as in the original's decaying schedule.
    """

    alpha_init: float = 0.8
    alpha_min: float = 0.1
    schedule_half_life: int = 200
    max_steps: int = 20000
    seed: int = 0


def margin(
    scores: np.ndarray, true_class: int, target_class: int = None
) -> float:
    """The loss the random search descends; negative iff the attack won.

    Untargeted: ``f_cx - max_{c != cx} f_c`` (negative iff misclassified).
    Targeted: ``max_{c != t} f_c - f_t`` (negative iff classified as t).
    """
    if target_class is None:
        others = np.delete(scores, true_class)
        return float(scores[true_class] - others.max())
    others = np.delete(scores, target_class)
    return float(others.max() - scores[target_class])


class SparseRS(OnePixelAttack):
    """The one-pixel specialization of Sparse-RS."""

    def __init__(self, config: SparseRSConfig = None):
        self.config = config or SparseRSConfig()

    @property
    def name(self) -> str:
        return "Sparse-RS"

    def steps(
        self,
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        target_class: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> AttackSteps:
        """The random search as a scalar generator.

        Every candidate depends on whether the previous one was
        accepted, so queries are posed one at a time and ``batch_size``
        is accepted and ignored.
        """
        self._validate(image)
        config = self.config
        rng = np.random.default_rng(config.seed)
        counter = StepCounter(budget)
        d1, d2 = image.shape[:2]

        def query(location: Tuple[int, int], corner: int):
            perturbed = image.copy()
            perturbed[location[0], location[1]] = RGB_CORNERS[corner]
            scores = yield counter.submit(perturbed)
            loss = margin(scores, true_class, target_class)
            if loss < 0:
                return loss, AttackResult(
                    success=True,
                    queries=counter.count,
                    location=location,
                    perturbation=RGB_CORNERS[corner],
                    adversarial_class=int(np.argmax(scores)),
                )
            return loss, None

        try:
            location = (int(rng.integers(0, d1)), int(rng.integers(0, d2)))
            corner = int(rng.integers(0, NUM_CORNERS))
            best_loss, result = yield from query(location, corner)
            if result is not None:
                return result
            for step in range(config.max_steps):
                p_loc = max(
                    config.alpha_min,
                    config.alpha_init
                    * 0.5 ** (step / max(config.schedule_half_life, 1)),
                )
                if rng.uniform() < p_loc:
                    candidate_location = (
                        int(rng.integers(0, d1)),
                        int(rng.integers(0, d2)),
                    )
                    candidate_corner = corner
                else:
                    candidate_location = location
                    candidate_corner = int(rng.integers(0, NUM_CORNERS))
                    if candidate_corner == corner:
                        candidate_corner = (candidate_corner + 1) % NUM_CORNERS
                if candidate_location == location and candidate_corner == corner:
                    continue
                loss, result = yield from query(candidate_location, candidate_corner)
                if result is not None:
                    return result
                if loss <= best_loss:
                    best_loss = loss
                    location = candidate_location
                    corner = candidate_corner
        except QueryBudgetExceeded:
            pass
        return AttackResult(success=False, queries=counter.count)
