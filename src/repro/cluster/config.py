"""Cluster tier configuration.

One :class:`ClusterConfig` describes the whole tier: how many worker
processes to run, the model every replica serves (all workers build the
*same* deterministic classifier -- same architecture, same seed -- so a
session produces identical scores no matter which replica answers it),
the router's listen address, and the supervision knobs (heartbeat
cadence, restart budget, backoff).

The worker-side fields deliberately mirror
:class:`~repro.serve.server.ServeConfig`: a cluster worker *is* a
``repro-serve`` process, spawned with :func:`worker_argv`, so every
serve-layer behaviour (micro-batching, admission, drain) is inherited
rather than re-implemented.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional


@dataclass
class ClusterConfig:
    """Everything needed to assemble a sharded serve tier."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 8870  # the router; workers take ephemeral loopback ports

    # -- model replica (identical on every worker) ---------------------
    model: str = "toy"
    height: int = 8
    width: int = 8
    num_classes: int = 4
    seed: int = 0
    freeze: bool = False
    dtype: Optional[str] = None
    latency: float = 0.0  # simulated per-image model cost (benchmarks)

    # -- per-worker serve knobs ----------------------------------------
    max_batch_size: int = 32
    max_wait: float = 0.002
    cache_size: int = 4096
    max_sessions: int = 64
    max_threads: int = 16  # session-driver threads per worker
    rate: float = 50.0
    burst: float = 20.0

    # -- session lifecycle ---------------------------------------------
    #: Deadline applied to submissions that omit ``deadline_seconds``.
    default_deadline: Optional[float] = None
    #: Hard cap on requested deadlines (worker rejects larger with 400).
    max_deadline: Optional[float] = None
    #: Worker TTL reaper: age out terminal-but-unpolled sessions (the
    #: router closes their ledger records when a poll comes back 410) /
    #: cancel live-but-abandoned ones.
    session_ttl: Optional[float] = None
    idle_ttl: Optional[float] = None
    reap_interval: float = 1.0
    #: Worker-level overload shedding watermarks (503 + Retry-After).
    shed_queue_depth: Optional[int] = None
    shed_sessions: Optional[int] = None
    shed_retry_after: float = 1.0
    #: Router-level shedding: refuse new submits while this many
    #: sessions are open tier-wide (``None`` disables).
    shed_open_sessions: Optional[int] = None

    # -- supervision ---------------------------------------------------
    heartbeat: float = 0.5  # seconds between worker health sweeps
    heartbeat_misses: int = 3  # consecutive failures before death
    max_restarts: int = 3  # per worker slot, over the tier's lifetime
    backoff: float = 0.5  # restart delay base; doubles per restart
    boot_timeout: float = 30.0  # seconds for a worker to become healthy

    # -- shared L2 cache tier ------------------------------------------
    #: Run a supervised shared-cache process (repro.cluster.cacheservice)
    #: and point every worker's TieredQueryCache at it.  Off by default:
    #: results are bit-identical either way, the shared tier only saves
    #: cross-replica forward passes.
    shared_cache: bool = False
    shared_cache_size: int = 65536  # entries in the L2 bounded LRU

    # -- durability and telemetry --------------------------------------
    checkpoint: Optional[str] = None  # router session ledger directory
    resume: bool = False
    log_path: Optional[str] = None  # cluster_event JSONL

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be at least 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")

    def manifest(self) -> dict:
        """The identity the router ledger pins; resuming sessions under a
        different model would silently change every restored score."""
        return {
            "kind": "cluster",
            "model": self.model,
            "height": self.height,
            "width": self.width,
            "num_classes": self.num_classes,
            "seed": self.seed,
        }


def worker_argv(
    config: ClusterConfig, port: int, shared_cache: Optional[str] = None
) -> List[str]:
    """The ``repro-serve`` command line for one worker replica.

    ``shared_cache`` is the ``HOST:PORT`` of the tier's L2 cache
    service; when given, the worker wraps its private cache in a
    :class:`~repro.runtime.cache.TieredQueryCache` pointed at it.
    """
    argv = [
        sys.executable,
        "-m",
        "repro.serve",
        "--host",
        "127.0.0.1",
        "--port",
        str(port),
        "--model",
        config.model,
        "--height",
        str(config.height),
        "--width",
        str(config.width),
        "--classes",
        str(config.num_classes),
        "--seed",
        str(config.seed),
        "--batch-size",
        str(config.max_batch_size),
        "--max-wait",
        str(config.max_wait),
        "--cache",
        str(config.cache_size),
        "--max-sessions",
        str(config.max_sessions),
        "--workers",
        str(config.max_threads),
        "--rate",
        str(config.rate),
        "--burst",
        str(config.burst),
    ]
    if config.freeze:
        argv.append("--freeze")
    if config.dtype:
        argv.extend(["--dtype", config.dtype])
    if config.latency > 0:
        argv.extend(["--latency", str(config.latency)])
    if shared_cache:
        argv.extend(["--shared-cache", shared_cache])
    if config.default_deadline is not None:
        argv.extend(["--default-deadline", str(config.default_deadline)])
    if config.max_deadline is not None:
        argv.extend(["--max-deadline", str(config.max_deadline)])
    if config.session_ttl is not None:
        argv.extend(["--session-ttl", str(config.session_ttl)])
    if config.idle_ttl is not None:
        argv.extend(["--idle-ttl", str(config.idle_ttl)])
    if config.reap_interval != 1.0:
        argv.extend(["--reap-interval", str(config.reap_interval)])
    if config.shed_queue_depth is not None:
        argv.extend(["--shed-queue-depth", str(config.shed_queue_depth)])
    if config.shed_sessions is not None:
        argv.extend(["--shed-sessions", str(config.shed_sessions)])
    if config.shed_retry_after != 1.0:
        argv.extend(["--shed-retry-after", str(config.shed_retry_after)])
    return argv
