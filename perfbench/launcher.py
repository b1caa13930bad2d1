"""Traced launcher for the ``serve-toy`` workload.

Runs the real entry point, ``repro.serve.server.main``, after wrapping
the public classes of the serving layers with spans, and writes a
summary when it returns (after SIGTERM has drained the server)::

    python3 perfbench/launcher.py --summary OUT.json -- <repro.serve arguments>

The summary holds each span name's calls, total and self seconds, every
span's duration, the peak number of live sessions and of threads, and
the number of images the classifier scored.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import Tracer  # noqa: E402

#: Seconds between samples of live sessions and threads.
SAMPLE_INTERVAL = 0.005


def instrument(tracer: Tracer, summary: dict) -> None:
    from repro.serve.broker import MicroBatchBroker
    from repro.serve.server import AttackServer

    servers = []
    original_init = AttackServer.__init__

    def init(self, config):
        original_init(self, config)
        servers.append(self)
        kind = type(self.classifier)
        score_one = kind.__call__

        def called(classifier, image):
            summary["classifier_images"] += 1
            return score_one(classifier, image)

        tracer.replace(kind, "__call__", called)
        tracer.wrap(kind, "__call__", "classifier.blackbox")
        if "batch" in vars(kind):
            score_many = kind.batch

            def batched(classifier, images):
                summary["classifier_images"] += len(images)
                return score_many(classifier, images)

            tracer.replace(kind, "batch", batched)
            tracer.wrap(kind, "batch", "classifier.blackbox")

    tracer.replace(AttackServer, "__init__", init)
    tracer.wrap(AttackServer, "handle_submit", "serve.server.submit")
    tracer.wrap(AttackServer, "handle_get_session", "serve.server.poll")
    for method in ("submit", "submit_many", "evaluate"):
        tracer.wrap(MicroBatchBroker, method, "serve.broker")

    def sample() -> None:
        while True:
            if servers:
                sessions = servers[0].sessions.active_count()
                summary["active_peak"] = max(summary["active_peak"], sessions)
            summary["threads_peak"] = max(summary["threads_peak"], threading.active_count())
            time.sleep(SAMPLE_INTERVAL)

    threading.Thread(target=sample, name="perfbench-sampler", daemon=True).start()


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--summary" or argv[2] != "--":
        raise SystemExit(__doc__)
    summary_path = Path(argv[1])
    tracer = Tracer()
    summary = {"active_peak": 0, "threads_peak": 0, "classifier_images": 0}
    instrument(tracer, summary)
    from repro.serve.server import main as serve

    try:
        return serve(argv[3:])
    finally:
        summary["layers"] = tracer.layers()
        summary["samples_ms"] = {
            name: [seconds * 1000 for seconds in tracer.durations(name)]
            for name in summary["layers"]
        }
        tracer.write(summary_path.with_name(summary_path.stem + ".spans.jsonl"))
        with open(summary_path, "w") as handle:
            json.dump(summary, handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
