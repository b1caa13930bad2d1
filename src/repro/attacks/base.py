"""Common attack interface.

Every attack -- the paper's sketch programs and all baselines -- exposes
one search, as a generator, and one call that drives it::

    steps(image, true_class, budget=None) -> generator of queries
    attack(classifier, image, true_class, budget=None) -> AttackResult

where ``classifier`` maps an (H, W, 3) image to a score vector and
``budget`` caps the number of queries.  This uniformity is what lets the
evaluation harness sweep approaches for Figure 3 and Tables 1-2 with one
code path, and the serving layer run any of them as a session.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.stepping import drive_steps

Classifier = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AttackResult:
    """The outcome of attacking one image.

    ``queries`` is the number of classifier submissions actually posed
    (for failures under a budget, the number posed before giving up).
    ``location`` / ``perturbation`` describe the successful pixel write
    when ``success``; the perturbation is the full RGB value written.
    ``error`` tags degraded results the execution engine recorded on the
    attack's behalf (escaped budget exhaustion, worker timeout/crash);
    it is always ``None`` on well-behaved attack outcomes.
    """

    success: bool
    queries: int
    location: Optional[Tuple[int, int]] = None
    perturbation: Optional[np.ndarray] = None
    adversarial_class: Optional[int] = None
    error: Optional[str] = None

    def __post_init__(self):
        if self.queries < 0:
            raise ValueError("queries must be non-negative")
        if self.success and (self.location is None or self.perturbation is None):
            raise ValueError("successful results must carry location and perturbation")
        if self.success and self.error is not None:
            raise ValueError("successful results cannot carry an error tag")


class OnePixelAttack(abc.ABC):
    """Abstract base for all one-pixel attacks.

    Subclasses implement :meth:`steps`, the attack as a *generator* that
    yields :class:`~repro.core.stepping.Query` objects and receives score
    vectors, so an external executor (e.g. the serving layer's
    micro-batching broker) can own the forward passes.  :meth:`attack`
    is the classic synchronous call used throughout the evaluation
    harness; it drives :meth:`steps` against a plain classifier and is
    never overridden.
    """

    #: Default speculation window for batch-native stepping.  ``None``
    #: (the library default) keeps ``steps()`` on the scalar protocol;
    #: the serving layer and CLI opt into batching by passing
    #: ``batch_size=`` explicitly or setting this attribute.  Attacks
    #: whose generators never batch ignore it.
    batch_size: Optional[int] = None

    def attack(
        self,
        classifier: Classifier,
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        target_class: Optional[int] = None,
    ) -> AttackResult:
        """Attack one image under an optional query budget.

        ``target_class=None`` (the paper's setting) succeeds on any
        misclassification; a concrete target requires the classifier to
        output exactly that class.
        """
        return drive_steps(
            self.steps(image, true_class, budget=budget, target_class=target_class),
            classifier,
        )

    @abc.abstractmethod
    def steps(
        self,
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        target_class: Optional[int] = None,
        batch_size: Optional[int] = None,
    ):
        """The attack as a query-yielding generator.

        Yields :class:`~repro.core.stepping.Query`, expects the score
        vector via ``send``, and returns the :class:`AttackResult` as
        the generator's return value.

        ``batch_size`` opts into batch-native stepping: ``None`` defers
        to :attr:`batch_size` on the instance, ``0`` forces the scalar
        protocol, ``N > 0`` allows speculative
        :class:`~repro.core.stepping.QueryBatch` yields of up to ``N``
        queries.  Generators that only ever pose one query at a time
        accept and ignore it.
        """

    @property
    def name(self) -> str:
        return type(self).__name__

    @staticmethod
    def _validate(image: np.ndarray) -> None:
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError(f"image must be (H, W, 3), got {image.shape}")
