#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads, metrics and why each was chosen are listed in
``BENCHMARK.json``; which layer metric should move which end-to-end
metric on which workload is in ``perfbench/layers.json``.

``--trace 0`` measures with no instrumentation and prints every
end-to-end metric.  ``--trace 1`` first makes the same untraced pass,
then a traced one (spans recorded around calls into each layer's public
functions, kept in memory and written to ``.bench_out/`` at the end), and
prints every per-layer metric, including ``trace.overhead.<metric>``: the
traced minus the untraced value of each end-to-end metric.  Per-layer
metrics of a layer that is not on a workload's path read 0.

Every run checks the program's outputs against goldens computed from a
reference path (see each workload module).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
``--corrupt-golden`` alters one golden before the comparison: the run
must then fail, which shows the checks are live.  ``--tiny`` shrinks
every workload for the benchmark's own smoke tests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, ROOT, SRC, Outcome, environment, steal_ticks  # noqa: E402

#: Per-layer metric prefixes of layers each workload does not reach;
#: they read 0 there.
NOT_ON_PATH = {
    "attack-cifar32": ("server.", "admission.", "sessions.", "broker.", "cache.",
                       "loadgen.", "synthesis."),
    "synth-cifar32": ("server.", "admission.", "sessions.", "broker.", "cache.",
                      "loadgen.", "eval."),
    "serve-toy": ("nn.", "stepping.", "sketch.", "synthesis.", "eval."),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOT_ON_PATH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-golden", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_at_start = os.getloadavg()
    steal_at_start, started = steal_ticks(), time.time()
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}

    outcome = Outcome()
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_stem = OUT / run_name
    if args.workload in ("attack-cifar32", "synth-cifar32"):
        import inproc

        outcome.put("setup_s", inproc.measure_setup(args.workload, args.seed, args.tiny), "s")
        inproc.run(args.workload, args.seed, args.seconds, bool(args.trace),
                   inproc.TINY if args.tiny else inproc.FULL,
                   args.corrupt_golden, outcome, trace_stem)
    else:
        import serving

        serving.run(args.seed, args.seconds, bool(args.trace), args.tiny,
                    args.corrupt_golden, outcome, trace_stem)

    if args.trace:
        for name, unit in units.items():
            if name not in outcome.metrics and name.startswith(NOT_ON_PATH[args.workload]):
                outcome.put(name, 0.0, unit)
    for name, unit in units.items():
        if name in outcome.metrics and outcome.metrics[name][1] != unit:
            raise ValueError(f"{name}: unit {outcome.metrics[name][1]} != {unit}")

    env = environment(args.seed, load_at_start)
    # share of the machine's CPU time the host took away during the run
    env["steal_share"] = (steal_ticks() - steal_at_start) / (
        os.sysconf("SC_CLK_TCK") * env["nproc"] * (time.time() - started))
    print("# environment " + json.dumps(env, sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{run_name}.json", "w") as handle:
        json.dump({
            "environment": env,
            "metrics": outcome.metrics,
            "layers": outcome.layers,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "problems": outcome.problems,
        }, handle, indent=1, sort_keys=True)
    for problem in outcome.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(outcome.line(list(units)), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
