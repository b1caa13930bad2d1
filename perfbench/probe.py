"""Set up one in-process workload in a fresh interpreter, then say so.

``run.py`` times this script from process creation until it prints
``ready``; that interval is the workload's set-up time.  Usage::

    python3 perfbench/probe.py <workload> <seed> [--tiny]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inproc  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    sizes = inproc.TINY if "--tiny" in sys.argv[3:] else inproc.FULL
    inproc.setup(workload, seed, sizes)
    print("ready", flush=True)
