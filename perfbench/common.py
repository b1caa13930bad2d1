"""Plumbing shared by every workload: environment record, statistics,
in-memory tracing, peak memory and the result line.

Nothing here imports the program under test; ``run.py`` puts the
checkout's ``src`` on the path before any workload module is loaded.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where a run leaves its spans and environment record (gitignored).
OUT = ROOT / ".bench_out"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0 for no samples."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _blas() -> Dict:
    """BLAS vendor, version and thread count as numpy was built with them."""
    import numpy as np

    info: Dict = {"vendor": "unknown", "version": None, "threads": None}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["vendor"] = blas.get("name", "unknown")
        info["version"] = blas.get("version")
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    with open("/proc/self/maps") as maps:
        libraries = {
            line.split()[-1] for line in maps if "openblas" in line.lower()
        }
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                info["threads"] = int(function())
                return info
    return info


def _revision() -> str:
    """The git revision when the checkout is a repository, else a digest
    of every source file (the benchmark may run from an exported tree)."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if completed.returncode == 0:
            return completed.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(seed: int, load_at_start) -> Dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "revision": _revision(),
        "loadavg_at_start": list(load_at_start),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pid) -> float:
    """User plus system CPU seconds one process has used so far."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def steal_ticks() -> int:
    """Clock ticks the hypervisor has taken from the CPUs we run on."""
    with open("/proc/stat") as stat:
        return int(stat.readline().split()[8])


def steal_seconds() -> float:
    """CPU seconds the hypervisor has taken from the CPUs we run on, summed
    over them; it counts only while a CPU had work to run."""
    return steal_ticks() / os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is (id, parent id, request id, name, start, end).  The parent
    is the innermost open span on the same thread; a span with no parent
    starts a request and every span below it shares its identifier.
    Spans stay in memory until :meth:`write`; wrapping is undone by
    :meth:`restore`.
    """

    def __init__(self):
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (0, None)
        span_id = next(self._ids)
        request = parent[1] if stack else span_id
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent[0], request, name, start, end))

    def replace(self, owner, attribute: str, value) -> None:
        """Set ``owner.attribute`` to ``value`` until :meth:`restore`."""
        had_own = attribute in vars(owner)
        original = getattr(owner, attribute)
        setattr(owner, attribute, value)

        def undo():
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

        self._restore.append(undo)

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attribute``; ``owner`` may be a class (every instance is
        traced) or one object."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self.replace(owner, attribute, traced)

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    def layers(self) -> Dict[str, Dict]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover.
        """
        covered: Dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        table: Dict[str, Dict] = {}
        for span_id, _, _, name, start, end in self.spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered.get(span_id, 0.0)
        return table

    def durations(self, name: str) -> List[float]:
        return [end - start for _, _, _, span, start, end in self.spans if span == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start": start, "end": end,
                }) + "\n")


# ---------------------------------------------------------------------------
# the result line
# ---------------------------------------------------------------------------


#: End-to-end metrics a traced pass measures again, so that the tracing
#: overhead shows (``setup_s`` is measured once, untraced).
TRACED_END_TO_END = [
    "us_per_query", "iters_per_s", "sessions_per_s",
    "latency_p50_s", "latency_p90_s", "peak_rss_mb",
]


class Outcome:
    """Operations attempted and failed, and the metrics a run produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, tuple] = {}
        self.layers: Dict[str, Dict] = {}

    def check(self, ok: bool, problem: str) -> bool:
        """Record one correctness check on one operation."""
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def invariant(self, ok: bool, problem: str) -> None:
        """A whole-run check: failing it fails the run, not an operation."""
        if not ok:
            self.problems.append(problem)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def merge_traced(self, traced: "Outcome", layers: Dict[str, Dict]) -> None:
        """Adopt a traced pass's layer metrics, and record the tracing
        overhead: the traced minus the untraced value of each end-to-end
        metric both passes measured."""
        for name, (value, unit) in traced.metrics.items():
            if name in TRACED_END_TO_END:
                self.put(f"trace.overhead.{name}", value - self.metrics[name][0], unit)
            else:
                self.metrics[name] = (value, unit)
        self.layers = layers

    @property
    def correct(self) -> bool:
        return not self.problems

    def line(self, names: Iterable[str]) -> str:
        """The JSON result line, restricted to (and complete over) ``names``."""
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise KeyError(f"workload did not produce metrics {missing}")
        return json.dumps({
            "correct": self.correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in names
            },
        })


def spawn_ready(argv: List[str], ready: Callable[[], bool], env: Dict,
                timeout: float = 60.0):
    """Start ``argv`` and wait until ``ready()``; returns (process, seconds).

    The clock starts just before the process is created, so the seconds
    cover interpreter start, imports and the program's own set-up.  The
    child's standard error goes to a temporary file in the checkout (a
    pipe nobody reads could fill and stall it) that :func:`stop` closes.
    """
    OUT.mkdir(exist_ok=True)
    log = tempfile.TemporaryFile(mode="w+", dir=OUT)
    started = time.perf_counter()
    process = subprocess.Popen(
        argv, cwd=str(ROOT), env=env, stdout=subprocess.DEVNULL, stderr=log,
    )
    process.log = log
    deadline = started + timeout
    while not ready():
        if process.poll() is not None:
            log.seek(0)
            errors = log.read()[-2000:]
            stop(process)
            raise RuntimeError(
                f"{argv[:4]} exited with {process.returncode} during set-up: {errors}"
            )
        if time.perf_counter() > deadline:
            stop(process)
            raise RuntimeError(f"{argv[:4]} not ready after {timeout}s")
        time.sleep(0.01)
    return process, time.perf_counter() - started


def stop(process, timeout: float = 30.0) -> Optional[int]:
    """SIGTERM a child, escalate to SIGKILL, and wait until it has ended."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.log.close()
    return process.returncode


def child_env() -> Dict[str, str]:
    """The environment for program processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def time_to_ready_line(argv: List[str], timeout: float = 120.0) -> float:
    """Seconds from creating ``argv``'s process until it prints ``ready``."""
    started = time.perf_counter()
    process = subprocess.Popen(
        argv, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = process.stdout.readline()
        seconds = time.perf_counter() - started
        _, errors = process.communicate(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {errors[-2000:]}")
    return seconds
