"""The paper's contribution: sketch, condition DSL, and synthesizer."""

from repro.core.geometry import (
    RGB_CORNERS,
    center_distance,
    corner_ranking,
    location_distance,
    pixel_distance,
)
from repro.core.pairs import Pair
from repro.core.pairqueue import PairQueue
from repro.core.sketch import OnePixelSketch, SketchResult
from repro.core.stepping import Query, StepCounter, drive_steps

__all__ = [
    "Query",
    "StepCounter",
    "drive_steps",
    "RGB_CORNERS",
    "pixel_distance",
    "location_distance",
    "corner_ranking",
    "center_distance",
    "Pair",
    "PairQueue",
    "OnePixelSketch",
    "SketchResult",
]
