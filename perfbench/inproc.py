"""The in-process workloads: ``attack-cifar32`` and ``synth-cifar32``.

Both serve an untrained, batch-norm-warmed network as a frozen float32
``NetworkClassifier`` on 32px CIFAR-like images.  The true class of an
image is the model's own prediction: with dataset labels an untrained
model misclassifies most clean images, and attacks on them would end at
their first query.  With its own prediction most attacks spend their
whole budget.  ``attack-cifar32`` records each candidate image's golden
(queries, success) from the scalar stepping path before it is timed and
attacks only the images whose golden spends the whole budget, so the
work per operation is fixed and comparable across commits and seeds.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import (
    Outcome, Tracer, median, peak_rss_mb, percentile, time_to_ready_line,
)
from repro.attacks.sketch_attack import SketchAttack
from repro.classifier.blackbox import NetworkClassifier
from repro.core import sketch as sketch_module
from repro.core.dsl.library import paper_example_program
from repro.core.stepping import QueryBatch
from repro.core.synthesis import oppsla as oppsla_module
from repro.core.synthesis.oppsla import Oppsla, OppslaConfig
from repro.data.cifar_like import make_cifar_like
from repro.eval import runner as runner_module
from repro.eval.runner import attack_dataset
from repro.models.registry import build_model
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.runtime.cache import CachedClassifier

SIZE = 32
CLASSES = 10


@dataclass(frozen=True)
class Sizes:
    images: int  # candidate images of an attack run
    budget: int  # attack: per-image query budget
    train_images: int  # synthesis: training set size
    per_image_budget: int  # synthesis: per-image budget while evaluating
    iterations: int  # synthesis: MH proposals per chain


FULL = Sizes(images=12, budget=256, train_images=4, per_image_budget=96, iterations=4)
TINY = Sizes(images=2, budget=24, train_images=2, per_image_budget=12, iterations=1)

ARCH = {"attack-cifar32": "googlenet", "synth-cifar32": "vgg16bn"}


def build_classifier(arch: str) -> NetworkClassifier:
    """The workload model: seed 0, batch norm warmed, frozen float32."""
    model = build_model(arch, num_classes=CLASSES, seed=0)
    model.train()
    warmup = np.random.default_rng(1)
    for _ in range(2):
        model(warmup.normal(0.45, 0.25, size=(16, 3, SIZE, SIZE)))
    model.eval()
    return NetworkClassifier(model, dtype=np.float32, freeze=True)


def make_pairs(classifier, count: int, seed: int) -> List[tuple]:
    """``count`` seeded images, each labelled with the model's prediction."""
    per_class = -(-count // CLASSES)
    images = make_cifar_like(per_class, size=SIZE, seed=seed).images
    order = np.random.default_rng(seed).permutation(len(images))[:count]
    return [
        (images[index], int(np.argmax(classifier(images[index]))))
        for index in order
    ]


def setup(workload: str, seed: int, sizes: Sizes):
    classifier = build_classifier(ARCH[workload])
    count = sizes.images if workload == "attack-cifar32" else sizes.train_images
    return classifier, make_pairs(classifier, count, seed)


#: Fresh processes timed per run; the median is reported as ``setup_s``.
SETUP_REPEATS = 3


def measure_setup(workload: str, seed: int, tiny: bool) -> float:
    """Median seconds from process creation until the workload could run."""
    argv = [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed)]
    if tiny:
        argv.append("--tiny")
    return median(time_to_ready_line(argv) for _ in range(SETUP_REPEATS))


# ---------------------------------------------------------------------------
# tracing: spans around the layers' public functions, plus counters
# ---------------------------------------------------------------------------


class LayerProbe:
    """Wraps the public entry points of each layer for one traced pass."""

    def __init__(self, tracer: Tracer, classifier: NetworkClassifier):
        self.images = 0
        self.calls = 0
        self.digests = set()
        self.requests = 0
        self.posed = 0
        self.charged = 0
        probe = self

        tracer.wrap(NetworkClassifier, "__call__", "classifier.blackbox")
        tracer.wrap(NetworkClassifier, "batch", "classifier.blackbox")
        score_one, score_many = NetworkClassifier.__call__, NetworkClassifier.batch

        def called(self, image):
            probe.note_images([image])
            return score_one(self, image)

        def batched(self, images):
            probe.note_images(images)
            return score_many(self, images)

        tracer.replace(NetworkClassifier, "__call__", called)
        tracer.replace(NetworkClassifier, "batch", batched)
        for name, block in block_names(classifier.model).items():
            tracer.wrap(block, "forward", f"nn.block.{name}")
        tracer.wrap(runner_module, "run_single_attack", "core.sketch")
        tracer.wrap(sketch_module.OnePixelSketch, "attack", "core.sketch")
        tracer.wrap(oppsla_module, "evaluate_program", "core.synthesis.evaluate")
        tracer.wrap(Oppsla, "synthesize", "core.synthesis")
        original_steps = sketch_module.OnePixelSketch.steps

        def steps(self, *args, **kwargs):
            return probe.count_steps(original_steps(self, *args, **kwargs))

        tracer.replace(sketch_module.OnePixelSketch, "steps", steps)

    def note_images(self, images) -> None:
        self.calls += 1
        for image in images:
            self.images += 1
            self.digests.add(hashlib.blake2b(
                np.ascontiguousarray(image).tobytes(), digest_size=16
            ).digest())

    def count_steps(self, steps):
        """Pass a step generator through, counting what it poses."""
        answer = None
        try:
            while True:
                request = steps.send(answer)
                self.requests += 1
                self.posed += len(request) if isinstance(request, QueryBatch) else 1
                answer = yield request
        except StopIteration as stop:
            self.charged += stop.value.queries
            return stop.value


def block_names(model) -> Dict[str, object]:
    """Each child of ``model.features`` by index, and the head."""
    blocks = {str(index): layer for index, layer in enumerate(model.features.layers)}
    blocks["head"] = model.head
    return blocks


def block_mmac(classifier: NetworkClassifier) -> Dict[str, float]:
    """Multiply-accumulates of one single-image pass, per block, in
    millions, computed from the shapes of each convolution and linear
    layer's output."""
    macs: Dict[str, float] = {}
    restore = []
    for name, block in block_names(classifier.model).items():
        macs[name] = 0.0
        for layer in block.modules():
            if not isinstance(layer, (Conv2d, Linear)):
                continue
            original = layer.forward

            def counted(x, _layer=layer, _original=original, _name=name):
                out = _original(x)
                if isinstance(_layer, Conv2d):
                    per_output = _layer.in_channels * _layer.kernel_size ** 2
                else:
                    per_output = _layer.in_features
                macs[_name] += out[0].size * per_output / 1e6
                return out

            layer.forward = counted
            restore.append(layer)
    try:
        classifier(np.full((SIZE, SIZE, 3), 0.5))
    finally:
        for layer in restore:
            del layer.forward
    return macs


def layer_metrics(outcome: Outcome, probe: LayerProbe, tracer: Tracer,
                  wall: float, classifier) -> None:
    table = tracer.layers()
    busy = table.get("classifier.blackbox", {}).get("total_s", 0.0)
    outcome.put("classifier.calls", probe.calls, "count")
    outcome.put("classifier.images", probe.images, "count")
    outcome.put("classifier.busy_s", busy, "s")
    outcome.put("classifier.self_s", table.get("classifier.blackbox", {}).get("self_s", 0.0), "s")
    outcome.put("classifier.share", busy / wall, "fraction")
    outcome.put("classifier.us_per_image", busy / max(probe.images, 1) * 1e6, "us")
    outcome.put("classifier.batch_mean", probe.images / max(probe.calls, 1), "images")
    mmac = block_mmac(classifier)
    for name in BLOCKS:
        row = table.get(f"nn.block.{name}", {})
        outcome.put(f"nn.block.{name}.busy_s", row.get("total_s", 0.0), "s")
        outcome.put(f"nn.block.{name}.mmac", mmac.get(name, 0.0), "MMAC")
    outcome.put("stepping.requests", probe.requests, "count")
    outcome.put("stepping.posed", probe.posed, "count")
    outcome.put("stepping.charged", probe.charged, "count")
    outcome.put("stepping.efficiency", probe.charged / max(probe.posed, 1), "fraction")
    think = table.get("core.sketch", {}).get("self_s", 0.0)
    outcome.put("sketch.think_s", think, "s")
    outcome.put("sketch.think_us_per_query", think / max(probe.charged, 1) * 1e6, "us")
    outcome.put("synthesis.distinct_frac", len(probe.digests) / max(probe.images, 1), "fraction")
    outcome.put("synthesis.mh_self_s", table.get("core.synthesis", {}).get("self_s", 0.0), "s")


#: Block names reported for every workload: the most children any
#: workload model's ``features`` has (vgg16bn: 10), and the head.
BLOCKS = [str(index) for index in range(10)] + ["head"]


# ---------------------------------------------------------------------------
# attack-cifar32
# ---------------------------------------------------------------------------


def attack_pass(classifier, pairs, positions: List[int], sizes: Sizes, seconds: float,
                outcome: Outcome) -> Dict:
    """Attack the images at ``positions``, one at a time and cycling, until
    ``seconds`` have passed."""
    attack = SketchAttack(paper_example_program())
    results: List[tuple] = []
    image_seconds: List[float] = []
    started = time.perf_counter()
    index = 0
    while not results or time.perf_counter() - started < seconds:
        position = positions[index % len(positions)]
        summary = attack_dataset(
            attack, classifier, [pairs[position]], budget=sizes.budget, step_batch=32,
        )
        result = summary.results[0]
        results.append((position, result.queries, result.success, result.error))
        image_seconds.extend(summary.image_seconds.values())
        index += 1
    wall = time.perf_counter() - started
    per_query = [
        seconds / queries * 1e6
        for seconds, (_, queries, _, _) in zip(image_seconds, results)
    ]
    outcome.put("us_per_query", median(per_query), "us")
    outcome.put("iters_per_s", 1 / median(image_seconds), "1/s")
    outcome.put("sessions_per_s", 1 / median(image_seconds), "1/s")
    outcome.put("latency_p50_s", median(image_seconds), "s")
    outcome.put("latency_p90_s", percentile(image_seconds, 90), "s")
    outcome.put("eval.image_s_p50", median(image_seconds), "s")
    return {"results": results, "wall": wall}


def attack_goldens(classifier, pairs, sizes: Sizes) -> Dict[int, tuple]:
    """(queries, success) per image from the scalar stepping path."""
    attack = SketchAttack(paper_example_program())
    goldens = {}
    for position in range(len(pairs)):
        summary = attack_dataset(
            attack, classifier, [pairs[position]], budget=sizes.budget, step_batch=0
        )
        goldens[position] = (summary.results[0].queries, summary.results[0].success)
    return goldens


def full_budget(goldens: Dict[int, tuple], budget: int) -> List[int]:
    """The images whose golden attack spends the whole budget and fails,
    so that every timed operation does the same work (all images when
    there are none)."""
    chosen = [
        position for position, (queries, success) in sorted(goldens.items())
        if queries == budget and not success
    ]
    return chosen or sorted(goldens)


def check_attack(outcome: Outcome, results, goldens, corrupt: bool) -> None:
    if corrupt:
        first = results[0][0]
        queries, success = goldens[first]
        goldens[first] = (queries + 1, success)
    outcome.attempted += len(results)
    for position, queries, success, error in results:
        outcome.check(
            error is None and goldens[position] == (queries, success),
            f"image {position}: (queries, success, error)=({queries}, {success}, "
            f"{error}), scalar golden {goldens[position]}",
        )


# ---------------------------------------------------------------------------
# synth-cifar32
# ---------------------------------------------------------------------------


def synth_fingerprint(result) -> Dict:
    trace = result.trace
    return {
        "best_program": result.best_program.to_dict(),
        "total_queries": result.total_queries,
        "accepted": [
            (entry.iteration, entry.cumulative_queries) for entry in trace.accepted
        ],
        "rejected": trace.proposals_rejected,
    }


def synth_pass(classifier, pairs, sizes: Sizes, seed: int, seconds: float,
               outcome: Outcome) -> Dict:
    """Run short synthesis chains, each with its own seed, until
    ``seconds`` have passed."""
    evaluate = oppsla_module.evaluate_program
    evaluations: List[float] = []
    per_query: List[float] = []

    def timed_evaluate(*args, **kwargs):
        started = time.perf_counter()
        evaluation = evaluate(*args, **kwargs)
        seconds = time.perf_counter() - started
        evaluations.append(seconds)
        per_query.append(seconds / max(evaluation.total_queries, 1) * 1e6)
        return evaluation

    oppsla_module.evaluate_program = timed_evaluate
    jobs = []
    started = time.perf_counter()
    try:
        while not jobs or time.perf_counter() - started < seconds:
            config = OppslaConfig(
                max_iterations=sizes.iterations,
                per_image_budget=sizes.per_image_budget,
                seed=seed * 1000 + len(jobs),
            )
            result = Oppsla(config).synthesize(classifier, pairs)
            jobs.append((config, synth_fingerprint(result), result.trace))
    finally:
        oppsla_module.evaluate_program = evaluate
    wall = time.perf_counter() - started
    queries = sum(fingerprint["total_queries"] for _, fingerprint, _ in jobs)
    iterations = sum(trace.iterations for _, _, trace in jobs)
    outcome.put("us_per_query", median(per_query), "us")
    outcome.put("iters_per_s", iterations / wall, "1/s")
    outcome.put("sessions_per_s", len(evaluations) * len(pairs) / wall, "1/s")
    outcome.put("latency_p50_s", median(evaluations), "s")
    outcome.put("latency_p90_s", percentile(evaluations, 90), "s")
    accepted = sum(trace.proposals_accepted for _, _, trace in jobs)
    rejected = sum(trace.proposals_rejected for _, _, trace in jobs)
    outcome.put("synthesis.acceptance_rate", accepted / max(accepted + rejected, 1), "fraction")
    outcome.put("synthesis.queries_per_iter", queries / max(len(evaluations), 1), "count")
    outcome.put("synthesis.evaluate_s_p50", median(evaluations), "s")
    return {"jobs": jobs, "wall": wall}


def synth_goldens(classifier, pairs, jobs) -> List[Dict]:
    """Each chain re-run behind an exact-key query cache: the cache returns
    the very scores the model gave, so every decision must repeat."""
    goldens = []
    for config, _, _ in jobs:
        cached = CachedClassifier(classifier, maxsize=1 << 16)
        goldens.append(synth_fingerprint(Oppsla(config).synthesize(cached, pairs)))
    return goldens


def check_synth(outcome: Outcome, jobs, goldens, corrupt: bool) -> None:
    if corrupt:
        goldens[0] = dict(goldens[0], total_queries=goldens[0]["total_queries"] + 1)
    outcome.attempted += len(jobs)
    for (config, fingerprint, _), golden in zip(jobs, goldens):
        outcome.check(
            fingerprint == golden,
            f"synthesis seed {config.seed}: {fingerprint} != golden {golden}",
        )


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
        corrupt: bool, outcome: Outcome, trace_stem: Path) -> None:
    classifier, pairs = setup(workload, seed, sizes)
    attack = workload == "attack-cifar32"
    if attack:
        goldens = attack_goldens(classifier, pairs, sizes)
        positions = full_budget(goldens, sizes.budget)

    def measure(target: Outcome) -> Dict:
        if attack:
            measured = attack_pass(classifier, pairs, positions, sizes, seconds, target)
        else:
            measured = synth_pass(classifier, pairs, sizes, seed, seconds, target)
        target.put("peak_rss_mb", peak_rss_mb(), "MiB")
        return measured

    passes = [measure(outcome)]
    if trace:
        traced_outcome = Outcome()
        tracer = Tracer()
        probe = LayerProbe(tracer, classifier)
        try:
            passes.append(measure(traced_outcome))
        finally:
            tracer.restore()
        layer_metrics(traced_outcome, probe, tracer, passes[-1]["wall"], classifier)
        tracer.write(Path(f"{trace_stem}.spans.jsonl"))
        outcome.merge_traced(traced_outcome, tracer.layers())

    if attack:
        results = [row for one in passes for row in one["results"]]
        check_attack(outcome, results, goldens, corrupt)
    else:
        jobs = [job for one in passes for job in one["jobs"]]
        check_synth(outcome, jobs, synth_goldens(classifier, pairs, jobs), corrupt)
