"""The cluster front end: shard, supervise, rebalance, aggregate.

The router owns four responsibilities, deliberately layered so each is
small:

**Sharding.**  Sessions are assigned to workers by consistent hash of
the *router-generated* session id (:mod:`repro.cluster.hashing`).  The
assignment is sticky: every poll for a session is forwarded to the
replica that owns its :class:`~repro.serve.sessions.AttackSession`, so
per-session query accounting stays exactly as paper-faithful as the
single-process server -- one session, one counter, one replica.

**Supervision.**  A heartbeat thread sweeps the worker slots: a worker
whose process exited, or that misses consecutive ``/healthz`` probes, is
declared dead, removed from the ring, and respawned into the same slot
with exponential backoff -- up to ``max_restarts`` times, after which
the slot stays down and its capacity is gone but the tier keeps serving.

**Rebalancing.**  A dead worker's open sessions are re-submitted to
survivors under their original ids.  The attacks are deterministic and
every replica serves the same model, so a rebalanced session re-derives
the same query stream from the start and finishes with exactly the
final query count an uninterrupted run would have charged -- the same
invariant the PR 5 drain/resume path pinned, now applied across
replicas.  The durable record backing this is the router's *ledger*, a
:class:`~repro.runtime.checkpoint.CheckpointStore` of submitted specs
and completion markers: it survives worker crashes trivially (it never
lived in a worker) and lets a whole restarted tier resume its open
sessions with ``--resume``.

**Aggregation.**  ``/metrics`` scrapes every live worker and folds the
snapshots into a cluster plane (:mod:`repro.cluster.metrics`), and every
membership event -- spawn, death, restart, rebalance, drain -- lands in a
``cluster_event``-style JSONL log via :class:`~repro.runtime.events.RunLog`.
"""

from __future__ import annotations

import argparse
import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.cluster.cacheservice import cacheservice_argv
from repro.cluster.config import ClusterConfig, worker_argv
from repro.cluster.hashing import HashRing
from repro.cluster.metrics import aggregate_worker_metrics
from repro.cluster.workers import (
    BOOTING,
    DEAD,
    LIVE,
    WorkerProcess,
    free_port,
    http_json,
)
from repro.models.registry import ARCHITECTURES
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.events import RunLog

#: Request bodies above this size are rejected before buffering.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Terminal session states, as reported by workers.
_TERMINAL = ("done", "failed", "cancelled", "expired")


class SessionEntry:
    """The router's record of one session: enough to route and rebuild."""

    __slots__ = (
        "session_id",
        "spec",
        "client",
        "worker",
        "done",
        "final",
        "accepted_at",
        "deadline_seconds",
    )

    def __init__(
        self,
        session_id: str,
        spec: Dict,
        client: Optional[str],
        worker: Optional[str],
    ):
        self.session_id = session_id
        self.spec = spec
        self.client = client
        #: Owning worker slot name; ``None`` while awaiting (re)placement.
        self.worker = worker
        self.done = False
        #: Cached terminal payload, so a finished session stays pollable
        #: even after its worker dies.
        self.final: Optional[Dict] = None
        #: When the router accepted (or restored) this session; with
        #: :attr:`deadline_seconds` it lets a rebalance hand the new
        #: owner only the *remaining* wall-clock budget.
        self.accepted_at = time.monotonic()
        deadline = spec.get("deadline_seconds") if isinstance(spec, dict) else None
        self.deadline_seconds = (
            float(deadline)
            if isinstance(deadline, (int, float)) and not isinstance(deadline, bool)
            else None
        )


def open_sessions_from_records(records: List[Dict]) -> Dict[str, Dict]:
    """Ledger records -> still-open session records, by id.

    A session is open when its ``session`` record has no later
    ``session_done`` marker.  Later ``session`` records win on duplicate
    ids (a rebalance re-appends the spec it re-submitted).
    """
    sessions: Dict[str, Dict] = {}
    finished = set()
    for record in records:
        kind = record.get("kind")
        if kind == "session":
            sessions[record["id"]] = record
        elif kind == "session_done":
            finished.add(record["id"])
    return {
        session_id: record
        for session_id, record in sessions.items()
        if session_id not in finished
    }


class ClusterRouter:
    """Sharded serve tier: N worker replicas behind one address."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.run_log = RunLog(config.log_path)
        self.ledger = (
            CheckpointStore(config.checkpoint) if config.checkpoint else None
        )
        #: The shared L2 cache service, reusing the worker-slot plumbing
        #: (spawn/health/terminate + supervised restart) with its own
        #: argv.  Workers are pointed at its fixed loopback port, which
        #: survives restarts of the service, so a respawned cache is
        #: picked up by every worker's L2 cooldown probe automatically.
        self.cache_service: Optional[WorkerProcess] = None
        builder = None
        if config.shared_cache:
            self.cache_service = WorkerProcess(
                "l2cache",
                free_port(),
                config,
                argv_builder=lambda cfg, port: cacheservice_argv(
                    port, cfg.shared_cache_size
                ),
            )
            shared_address = f"127.0.0.1:{self.cache_service.port}"

            def builder(cfg, port, _address=shared_address):
                return worker_argv(cfg, port, shared_cache=_address)

        self.workers: List[WorkerProcess] = [
            WorkerProcess(f"w{index}", free_port(), config, argv_builder=builder)
            for index in range(config.workers)
        ]
        self.ring = HashRing()
        self.draining = False
        self._lock = threading.RLock()
        # Serializes rebalance ticks: tick_rebalance is reachable from
        # the supervisor sweep, _declare_dead, and resume_sessions, and
        # its forward-submit runs outside _lock -- unserialized, two
        # concurrent ticks could claim the same pending session.
        self._rebalance_lock = threading.Lock()
        self._sessions: Dict[str, SessionEntry] = {}
        self._order: List[str] = []  # submission order, for listing
        self._pending: List[str] = []  # session ids awaiting (re)placement
        self._next_id = 1
        self._boot_deadlines: Dict[str, float] = {}
        self._sweeps = 0  # supervise_once invocations (terminal-sweep cadence)
        # counters for the cluster metrics plane
        self.routed = 0
        self.rebalanced_sessions = 0
        self.deaths = 0
        # router-level lifecycle counters (worker-level ones are summed
        # from /metrics scrapes; these count router-settled outcomes)
        self.cancelled_sessions = 0
        self.expired_sessions = 0
        self.reaped_sessions = 0
        self.shed_submits = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ClusterRouter":
        """Spawn every worker, wait for health, arm the ring and ledger."""
        if self.ledger is not None:
            self.ledger.reconcile_manifest(self.config.manifest())
        if self.cache_service is not None:
            # The cache boots first so workers find a live L2 on their
            # very first miss (a late L2 would only cost misses, not
            # correctness, but there is no reason to waste them).
            self.cache_service.spawn()
            self.run_log.emit(
                "cache_service_spawn",
                port=self.cache_service.port,
                pid=self.cache_service.pid,
            )
            if not self.cache_service.wait_healthy(self.config.boot_timeout):
                self.shutdown_workers()
                raise RuntimeError(
                    "shared cache service failed to become healthy within "
                    f"{self.config.boot_timeout}s"
                )
        for worker in self.workers:
            worker.spawn()
            self.run_log.emit(
                "worker_spawn", worker=worker.name, port=worker.port, pid=worker.pid
            )
        failed = []
        for worker in self.workers:
            if worker.wait_healthy(self.config.boot_timeout):
                with self._lock:
                    self.ring.add(worker.name)
            else:
                failed.append(worker.name)
        if failed:
            self.shutdown_workers()
            raise RuntimeError(
                f"workers failed to become healthy within "
                f"{self.config.boot_timeout}s: {', '.join(failed)}"
            )
        if self.config.resume:
            self.resume_sessions()
        return self

    def shutdown_workers(self) -> Dict[str, Optional[int]]:
        """SIGTERM every worker; returns per-worker exit codes."""
        for worker in self.workers:
            if worker.process_alive():
                worker.proc.send_signal(signal.SIGTERM)
        codes = {worker.name: worker.terminate() for worker in self.workers}
        if self.cache_service is not None:
            # Stopped last: workers may flush final write-throughs while
            # draining, and a vanished L2 would burn their cooldown
            # windows for nothing.
            codes[self.cache_service.name] = self.cache_service.terminate()
        return codes

    def drain(self) -> Dict:
        """SIGTERM path for the whole tier.

        Flip the 503 gate, gracefully stop every worker (each finishes
        its in-flight broker batches before exiting), and leave open
        sessions durable in the ledger -- a tier restarted with
        ``--resume`` re-submits and finishes them with paper-faithful
        query counts.  Returns an operator summary.
        """
        self.draining = True
        # Before the workers go away, reap sessions that reached a
        # terminal state without a client ever polling them: unswept,
        # their ledger records stay open forever and --resume re-runs
        # the full attack (a budget-sized amount of wasted work).
        swept = self.sweep_terminal_sessions()
        exit_codes = self.shutdown_workers()
        with self._lock:
            open_ids = [
                entry.session_id
                for entry in self._sessions.values()
                if not entry.done
            ]
        summary = {
            "workers": len(self.workers),
            "open": len(open_ids),
            "durable": len(open_ids) if self.ledger is not None else 0,
            "swept": swept,
            "exit_codes": exit_codes,
        }
        self.run_log.emit("cluster_drain", **summary)
        if self.ledger is not None:
            self.ledger.close()
        self.run_log.close()
        return summary

    def live_workers(self) -> List[WorkerProcess]:
        with self._lock:
            return [w for w in self.workers if w.name in self.ring]

    def worker_named(self, name: str) -> Optional[WorkerProcess]:
        for worker in self.workers:
            if worker.name == name:
                return worker
        return None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _generate_id(self) -> str:
        with self._lock:
            session_id = f"c{self._next_id}"
            self._next_id += 1
            return session_id

    def _note_restored_id(self, session_id: str) -> None:
        if session_id.startswith("c") and session_id[1:].isdigit():
            with self._lock:
                self._next_id = max(self._next_id, int(session_id[1:]) + 1)

    def submit(self, body: bytes, client: str) -> Tuple[int, Dict]:
        """Route one ``POST /attacks`` to its replica by consistent hash."""
        if self.draining:
            return 503, {"error": "cluster is draining for shutdown"}
        try:
            spec = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        if not isinstance(spec, dict):
            return 400, {"error": "request body must be a JSON object"}
        if self.config.shed_open_sessions is not None:
            with self._lock:
                open_count = sum(
                    1 for entry in self._sessions.values() if not entry.done
                )
                overloaded = open_count >= self.config.shed_open_sessions
                if overloaded:
                    self.shed_submits += 1
            if overloaded:
                return 503, {
                    "error": (
                        f"overloaded: {open_count} open sessions >= "
                        f"{self.config.shed_open_sessions}"
                    ),
                    "retry_after": self.config.shed_retry_after,
                }
        session_id = self._generate_id()
        with self._lock:
            owner = self.ring.assign(session_id)
        if owner is None:
            return 503, {"error": "no live workers", "retry_after": 1}
        status, payload = self._forward_submit(owner, session_id, spec, client)
        if status != 202:
            return status, payload
        entry = SessionEntry(session_id, spec, client, owner)
        with self._lock:
            self._sessions[session_id] = entry
            self._order.append(session_id)
            self.routed += 1
            if owner not in self.ring:
                # the owner died between forward and commit; queue the
                # session for rebalance instead of stranding it
                entry.worker = None
                self._pending.append(session_id)
        if self.ledger is not None:
            self.ledger.append(
                {"kind": "session", "id": session_id, "client": client, "spec": spec}
            )
        payload = dict(payload)
        payload["worker"] = entry.worker
        return 202, payload

    def _forward_submit(
        self, owner: str, session_id: str, spec: Dict, client: Optional[str]
    ) -> Tuple[int, Dict]:
        worker = self.worker_named(owner)
        if worker is None:
            return 503, {"error": f"no such worker: {owner}", "retry_after": 1}
        headers = {"X-Session-Id": session_id}
        if client:
            headers["X-Client-Id"] = client
        try:
            return http_json(
                worker.address,
                "POST",
                "/attacks",
                body=json.dumps(spec).encode("utf-8"),
                headers=headers,
            )
        except OSError:
            return 503, {
                "error": f"worker {owner} unreachable",
                "retry_after": 1,
            }

    def get_session(self, session_id: str) -> Tuple[int, Dict]:
        with self._lock:
            entry = self._sessions.get(session_id)
            if entry is None:
                return 404, {"error": f"no such session: {session_id}"}
            if entry.final is not None:
                return 200, entry.final
            owner = entry.worker
        if owner is None:
            return 503, {
                "error": f"session {session_id} is being rebalanced",
                "retry_after": 1,
            }
        worker = self.worker_named(owner)
        try:
            status, payload = http_json(
                worker.address, "GET", f"/attacks/{session_id}"
            )
        except OSError:
            return 503, {
                "error": f"worker {owner} unreachable; session will rebalance",
                "retry_after": 1,
            }
        if status == 410:
            # The worker's TTL reaper swept the session before any client
            # collected its terminal state: settle it at the router so the
            # ledger closes and --resume does not re-run finished work.
            return 200, self._reaped_final(entry, owner)
        if status == 200:
            payload = dict(payload)
            payload["worker"] = owner
            if payload.get("state") in _TERMINAL:
                self._mark_done(entry, payload)
        return status, payload

    def cancel_session(self, session_id: str) -> Tuple[int, Dict]:
        """``DELETE /attacks/<id>``: forward to the sticky owner.

        Mirrors the worker's semantics (202 cancellation requested, 200
        already terminal) and covers the router-only cases: a session
        awaiting (re)placement has no live generator anywhere, so the
        router settles the cancellation locally and closes its ledger
        record; a session the worker already reaped becomes a synthetic
        ``reaped`` final.
        """
        with self._lock:
            entry = self._sessions.get(session_id)
            if entry is None:
                return 404, {"error": f"no such session: {session_id}"}
            if entry.final is not None:
                return 200, entry.final
            owner = entry.worker
            if owner is None and session_id in self._pending:
                self._pending.remove(session_id)
        if owner is None:
            final = {
                "id": session_id,
                "state": "cancelled",
                "queries": None,
                "worker": None,
            }
            self._mark_done(entry, final)
            self.run_log.emit(
                "session_cancelled", session=session_id, pending=True
            )
            return 200, final
        worker = self.worker_named(owner)
        try:
            status, payload = http_json(
                worker.address, "DELETE", f"/attacks/{session_id}"
            )
        except OSError:
            return 503, {
                "error": f"worker {owner} unreachable; retry cancellation",
                "retry_after": 1,
            }
        if status == 410:
            return 200, self._reaped_final(entry, owner)
        if status in (200, 202):
            payload = dict(payload)
            payload["worker"] = owner
            if payload.get("state") in _TERMINAL:
                self._mark_done(entry, payload)
        return status, payload

    def _reaped_final(self, entry: SessionEntry, owner: Optional[str]) -> Dict:
        final = {
            "id": entry.session_id,
            "state": "reaped",
            "queries": None,
            "worker": owner,
            "error": "session reaped by worker TTL before a terminal poll",
        }
        self._mark_done(entry, final)
        self.run_log.emit("session_reaped", session=entry.session_id, worker=owner)
        return final

    def _mark_done(self, entry: SessionEntry, payload: Dict) -> None:
        with self._lock:
            first = not entry.done
            entry.done = True
            entry.final = payload
            if first:
                state = payload.get("state")
                if state == "cancelled":
                    self.cancelled_sessions += 1
                elif state == "expired":
                    self.expired_sessions += 1
                elif state == "reaped":
                    self.reaped_sessions += 1
        if first and self.ledger is not None:
            self.ledger.append({"kind": "session_done", "id": entry.session_id})

    def sweep_terminal_sessions(self) -> int:
        """Reap terminal-but-never-polled sessions from live workers.

        Client polls are the normal path to :meth:`_mark_done`; a client
        that submits and walks away leaves its finished session's ledger
        record open, so a later ``--resume`` would re-run the whole
        attack.  This sweep asks each live worker about every not-done
        session it owns and marks the terminal ones done (caching the
        final payload, closing the ledger record).  Read-only on the
        workers; returns how many sessions were reaped.
        """
        with self._lock:
            candidates = [
                (entry.session_id, entry.worker)
                for entry in self._sessions.values()
                if not entry.done and entry.worker is not None
            ]
        swept = 0
        for session_id, owner in candidates:
            worker = self.worker_named(owner)
            if worker is None or worker.state != LIVE:
                continue
            try:
                status, payload = http_json(
                    worker.address, "GET", f"/attacks/{session_id}", timeout=5.0
                )
            except OSError:
                continue  # the supervisor sweep will handle this worker
            if status == 410:
                with self._lock:
                    entry = self._sessions.get(session_id)
                    if entry is None or entry.done:
                        continue
                self._reaped_final(entry, owner)
                swept += 1
                continue
            if status != 200 or payload.get("state") not in _TERMINAL:
                continue
            with self._lock:
                entry = self._sessions.get(session_id)
                if entry is None or entry.done:
                    continue
            payload = dict(payload)
            payload["worker"] = owner
            self._mark_done(entry, payload)
            swept += 1
        if swept:
            self.run_log.emit("terminal_sweep", sessions=swept)
        return swept

    def list_sessions(self, limit: int = 200) -> Tuple[int, Dict]:
        with self._lock:
            recent = self._order[-limit:][::-1]
            sessions = [
                {
                    "id": session_id,
                    "worker": self._sessions[session_id].worker,
                    "done": self._sessions[session_id].done,
                    "client": self._sessions[session_id].client,
                }
                for session_id in recent
            ]
        return 200, {"sessions": sessions}

    def healthz(self) -> Tuple[int, Dict]:
        if self.draining:
            return 503, {"status": "draining"}
        live = self.live_workers()
        return 200, {
            "status": "ok",
            "model": self.config.model,
            "workers": {"live": len(live), "total": len(self.workers)},
        }

    def metrics(self) -> Tuple[int, Dict]:
        per_worker: Dict[str, Optional[Dict]] = {}
        for worker in self.workers:
            if worker.state != LIVE:
                per_worker[worker.name] = None
                continue
            try:
                status, payload = http_json(
                    worker.address, "GET", "/metrics", timeout=5.0
                )
                per_worker[worker.name] = payload if status == 200 else None
            except OSError:
                per_worker[worker.name] = None
        rollup = aggregate_worker_metrics(per_worker)
        with self._lock:
            rollup["cluster"] = {
                "workers": [worker.describe() for worker in self.workers],
                "live": len(self.ring),
                "routed": self.routed,
                "rebalanced_sessions": self.rebalanced_sessions,
                "deaths": self.deaths,
                "restarts": sum(worker.restarts for worker in self.workers),
                "pending_rebalance": len(self._pending),
                "sessions_tracked": len(self._sessions),
                "cancelled_sessions": self.cancelled_sessions,
                "expired_sessions": self.expired_sessions,
                "reaped_sessions": self.reaped_sessions,
                "shed_submits": self.shed_submits,
            }
        if self.cache_service is not None:
            service_stats = None
            if self.cache_service.state == LIVE:
                try:
                    status, payload = http_json(
                        self.cache_service.address, "GET", "/metrics", timeout=5.0
                    )
                    if status == 200:
                        service_stats = payload.get("shared_cache")
                except OSError:
                    pass
            rollup["shared_cache"] = {
                "slot": self.cache_service.describe(),
                "service": service_stats,
            }
        return 200, rollup

    def route(
        self, method: str, path: str, body: bytes, client: str
    ) -> Tuple[int, Dict]:
        """The router's HTTP surface; mirrors the single-process server."""
        if path == "/healthz" and method == "GET":
            return self.healthz()
        if path == "/metrics" and method == "GET":
            return self.metrics()
        if path == "/attacks" and method == "POST":
            return self.submit(body, client)
        if path == "/attacks" and method == "GET":
            return self.list_sessions()
        if path.startswith("/attacks/") and method == "GET":
            return self.get_session(path[len("/attacks/"):])
        if path.startswith("/attacks/") and method == "DELETE":
            return self.cancel_session(path[len("/attacks/"):])
        if path in ("/healthz", "/metrics", "/attacks") or path.startswith(
            "/attacks/"
        ):
            return 405, {"error": f"method {method} not allowed on {path}"}
        return 404, {"error": f"no such endpoint: {path}"}

    # ------------------------------------------------------------------
    # supervision and rebalancing
    # ------------------------------------------------------------------

    def supervise_once(self, now: Optional[float] = None) -> None:
        """One heartbeat sweep: detect deaths, promote boots, restart."""
        now = time.monotonic() if now is None else now
        for worker in self.workers:
            if worker.state in (LIVE, BOOTING):
                if not worker.process_alive():
                    self._declare_dead(worker, reason="process exited")
                elif worker.healthy(timeout=min(2.0, self.config.heartbeat * 4)):
                    worker.missed_heartbeats = 0
                    if worker.state == BOOTING:
                        worker.state = LIVE
                        with self._lock:
                            self.ring.add(worker.name)
                        self.run_log.emit(
                            "worker_live", worker=worker.name, pid=worker.pid
                        )
                elif worker.state == LIVE:
                    worker.missed_heartbeats += 1
                    if worker.missed_heartbeats >= self.config.heartbeat_misses:
                        self._declare_dead(worker, reason="heartbeat misses")
                elif now > self._boot_deadlines.get(worker.name, now + 1):
                    self._declare_dead(worker, reason="boot timeout")
            elif worker.state == DEAD and worker.next_spawn_at is not None:
                if now >= worker.next_spawn_at:
                    self._restart(worker)
        self._supervise_cache_service(now)
        self._sweeps += 1
        if self._sweeps % 4 == 0:
            # Periodic terminal-session reaping (satellite of drain's
            # sweep): closes ledger records of abandoned sessions while
            # the tier is still running, not only at shutdown.
            self.sweep_terminal_sessions()
        self.tick_rebalance()

    def _supervise_cache_service(self, now: float) -> None:
        """Heartbeat the shared-cache slot, mirroring the worker sweep.

        A dead cache is never an emergency -- every worker silently
        degrades to private-L1 behaviour and re-probes after its
        cooldown -- so death here only costs shared hits, and a restart
        (same port) is picked up by the workers with no coordination.
        """
        slot = self.cache_service
        if slot is None:
            return
        if slot.state in (LIVE, BOOTING):
            if not slot.process_alive():
                self._cache_service_dead("process exited")
            elif slot.healthy(timeout=min(2.0, self.config.heartbeat * 4)):
                slot.missed_heartbeats = 0
                if slot.state == BOOTING:
                    slot.state = LIVE
                    self.run_log.emit("cache_service_live", pid=slot.pid)
            elif slot.state == LIVE:
                slot.missed_heartbeats += 1
                if slot.missed_heartbeats >= self.config.heartbeat_misses:
                    self._cache_service_dead("heartbeat misses")
        elif slot.state == DEAD and slot.next_spawn_at is not None:
            if now >= slot.next_spawn_at:
                slot.restarts += 1
                slot.spawn()
                self.run_log.emit(
                    "cache_service_restart", restarts=slot.restarts, pid=slot.pid
                )

    def _cache_service_dead(self, reason: str) -> None:
        slot = self.cache_service
        if slot.state == DEAD:
            return
        slot.state = DEAD
        if slot.proc is not None and slot.proc.poll() is None:
            slot.kill()
        self.run_log.emit("cache_service_death", reason=reason)
        if slot.restarts < self.config.max_restarts:
            slot.next_spawn_at = time.monotonic() + self.config.backoff * (
                2 ** slot.restarts
            )
        else:
            slot.next_spawn_at = None
            self.run_log.emit(
                "cache_service_restart_exhausted", restarts=slot.restarts
            )

    def _declare_dead(self, worker: WorkerProcess, reason: str) -> None:
        """Remove a dead replica from the ring and queue its sessions."""
        if worker.state == DEAD:
            return
        worker.state = DEAD
        if worker.proc is not None and worker.proc.poll() is None:
            worker.kill()  # unresponsive but alive: make death real
        orphaned: List[str] = []
        with self._lock:
            self.ring.remove(worker.name)
            self.deaths += 1
            for entry in self._sessions.values():
                if entry.worker == worker.name and not entry.done:
                    entry.worker = None
                    orphaned.append(entry.session_id)
            self._pending.extend(orphaned)
        self.run_log.emit(
            "worker_death",
            worker=worker.name,
            reason=reason,
            orphaned_sessions=len(orphaned),
        )
        if orphaned:
            self.run_log.emit(
                "cluster_rebalance", worker=worker.name, sessions=len(orphaned)
            )
        if worker.restarts < self.config.max_restarts:
            worker.next_spawn_at = time.monotonic() + self.config.backoff * (
                2 ** worker.restarts
            )
        else:
            worker.next_spawn_at = None
            self.run_log.emit(
                "worker_restart_exhausted",
                worker=worker.name,
                restarts=worker.restarts,
            )
        self.tick_rebalance()

    def _restart(self, worker: WorkerProcess) -> None:
        worker.restarts += 1
        worker.spawn()
        self._boot_deadlines[worker.name] = (
            time.monotonic() + self.config.boot_timeout
        )
        self.run_log.emit(
            "worker_restart",
            worker=worker.name,
            restarts=worker.restarts,
            pid=worker.pid,
        )

    def tick_rebalance(self) -> int:
        """Try to place every orphaned session on a survivor.

        Re-submits each pending session's original spec under its
        original id; the deterministic attack re-runs from the start on
        the new replica, so its final query count matches an
        uninterrupted run exactly.  Sessions that cannot be placed yet
        (no live workers, capacity 429s, transport errors) stay pending
        for the next sweep.  Returns how many sessions were placed.

        Ticks are serialized: this method is reachable concurrently
        from the supervisor sweep, :meth:`_declare_dead`, and
        :meth:`resume_sessions`, and the forward-submit deliberately
        runs outside ``_lock`` (it is a worker round trip).  A second
        tick arriving while one is running returns immediately -- its
        pending sessions are picked up by the running tick's snapshot
        or by the next sweep.  Within a tick, each session id is
        *claimed* (removed from the pending list) under ``_lock``
        before the unlocked forward, and requeued only if placement
        failed, so a session can never be double-submitted, its ledger
        ``session`` record never double-appended, and
        ``rebalanced_sessions`` never double-incremented.
        """
        if not self._rebalance_lock.acquire(blocking=False):
            return 0
        try:
            with self._lock:
                pending = list(self._pending)
            placed = 0
            for session_id in pending:
                expired = False
                with self._lock:
                    entry = self._sessions.get(session_id)
                    if entry is None or entry.done or entry.worker is not None:
                        if session_id in self._pending:
                            self._pending.remove(session_id)
                        continue
                    # Deadlines ride the spec: the new owner inherits only
                    # the *remaining* wall-clock budget, so a rebalanced
                    # session expires when the original would have.  A
                    # session whose budget ran out while it waited for
                    # placement is settled here (checked before the owner
                    # assignment, so it resolves even with no live workers).
                    spec = entry.spec
                    if entry.deadline_seconds is not None:
                        remaining = entry.deadline_seconds - (
                            time.monotonic() - entry.accepted_at
                        )
                        if remaining <= 0:
                            if session_id in self._pending:
                                self._pending.remove(session_id)
                            expired = True
                        else:
                            spec = dict(entry.spec)
                            spec["deadline_seconds"] = remaining
                    if not expired:
                        owner = self.ring.assign(session_id)
                        if owner is None:
                            continue
                        # claim before the unlocked forward-submit
                        self._pending.remove(session_id)
                if expired:
                    self._mark_done(
                        entry,
                        {
                            "id": session_id,
                            "state": "expired",
                            "queries": None,
                            "worker": None,
                            "error": "deadline elapsed while awaiting placement",
                        },
                    )
                    self.run_log.emit(
                        "session_expired", session=session_id, pending=True
                    )
                    continue
                status, _payload = self._forward_submit(
                    owner, session_id, spec, entry.client
                )
                if status in (202, 409):  # 409: the replica already has it
                    with self._lock:
                        entry.worker = owner
                        self.rebalanced_sessions += 1
                    placed += 1
                    if self.ledger is not None:
                        # the rewritten spec, so a tier restart also
                        # inherits only the remaining deadline budget
                        self.ledger.append(
                            {
                                "kind": "session",
                                "id": session_id,
                                "client": entry.client,
                                "spec": spec,
                            }
                        )
                    self.run_log.emit(
                        "session_rebalanced", session=session_id, worker=owner
                    )
                else:
                    with self._lock:
                        # release the claim for the next sweep (unless a
                        # concurrent path already re-placed or finished it)
                        if (
                            entry.worker is None
                            and not entry.done
                            and session_id not in self._pending
                        ):
                            self._pending.append(session_id)
            return placed
        finally:
            self._rebalance_lock.release()

    # ------------------------------------------------------------------
    # resume
    # ------------------------------------------------------------------

    def resume_sessions(self) -> int:
        """Re-submit the ledger's open sessions after a tier restart.

        The consumed records are re-appended as the sessions are placed,
        so the ledger always reflects the live tier.  Returns how many
        sessions were queued for placement.
        """
        if self.ledger is None:
            return 0
        records, _truncated = self.ledger.records()
        open_records = open_sessions_from_records(records)
        if not open_records:
            return 0
        self.ledger.clear_records()
        with self._lock:
            for session_id, record in open_records.items():
                self._note_restored_id(session_id)
                entry = SessionEntry(
                    session_id, record["spec"], record.get("client"), None
                )
                self._sessions[session_id] = entry
                self._order.append(session_id)
                self._pending.append(session_id)
        self.run_log.emit("cluster_resume", sessions=len(open_records))
        self.tick_rebalance()
        return len(open_records)


class ClusterSupervisor(threading.Thread):
    """The heartbeat loop, as a daemon thread."""

    def __init__(self, router: ClusterRouter):
        super().__init__(name="cluster-supervisor", daemon=True)
        self.router = router
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.router.config.heartbeat):
            try:
                self.router.supervise_once()
            except Exception:  # supervision must outlive any one sweep
                pass

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)


# ----------------------------------------------------------------------
# HTTP front end (threaded: handlers block on worker round trips)
# ----------------------------------------------------------------------


class _RouterHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    router: ClusterRouter


class _RouterRequestHandler(BaseHTTPRequestHandler):
    server: _RouterHTTPServer

    def log_message(self, *args) -> None:  # silence per-request stderr
        pass

    def _client(self) -> str:
        return self.headers.get("X-Client-Id") or self.client_address[0]

    def _respond(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status in (429, 503) and "retry_after" in payload:
            self.send_header("Retry-After", str(payload["retry_after"]))
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _handle(self, method: str) -> None:
        body = b""
        if method == "POST":
            length = int(self.headers.get("Content-Length", "0") or "0")
            if length > MAX_BODY_BYTES:
                self._respond(413, {"error": "request body too large"})
                return
            body = self.rfile.read(length) if length else b""
        path = self.path.split("?", 1)[0]
        try:
            status, payload = self.server.router.route(
                method, path, body, self._client()
            )
        except Exception as exc:  # route bugs must not kill the router
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._respond(status, payload)

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def do_DELETE(self) -> None:
        self._handle("DELETE")


class ClusterHandle:
    """A full tier (router + workers + supervisor) under one handle.

    The router listens in-process on a background thread while workers
    run as real subprocesses -- the same shape as production, minus the
    top-level signal handling, so tests and benchmarks can start a tier
    with ``with ClusterHandle(config) as handle:`` and read its resolved
    ``address``.
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.router = ClusterRouter(config)
        self.supervisor: Optional[ClusterSupervisor] = None
        self._http: Optional[_RouterHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self.address: Optional[Tuple[str, int]] = None
        self._stopped = False

    def start(self) -> "ClusterHandle":
        self.router.start()
        self._http = _RouterHTTPServer(
            (self.config.host, self.config.port), _RouterRequestHandler
        )
        self._http.router = self.router
        self.address = self._http.server_address[:2]
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name="cluster-http",
            daemon=True,
            kwargs={"poll_interval": 0.1},
        )
        self._thread.start()
        self.supervisor = ClusterSupervisor(self.router)
        self.supervisor.start()
        return self

    def drain(self) -> Dict:
        """Graceful tier shutdown; idempotent.  Returns the summary."""
        if self._stopped:
            return {}
        self._stopped = True
        self.router.draining = True
        if self.supervisor is not None:
            self.supervisor.stop()
        summary = self.router.drain()
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        return summary

    def stop(self) -> None:
        self.drain()

    def __enter__(self) -> "ClusterHandle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def run_cluster(config: ClusterConfig) -> int:
    """Run a tier until SIGTERM/SIGINT, then drain it; returns 0.

    Shared by ``repro cluster`` and ``repro-serve --cluster N``.
    """
    stop_requested = threading.Event()

    def _request_stop(signum, frame):
        stop_requested.set()

    installed = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            installed[signum] = signal.signal(signum, _request_stop)
        except (ValueError, OSError):  # non-main thread
            pass
    handle = ClusterHandle(config)
    try:
        handle.start()
        host, port = handle.address
        print(
            f"repro-cluster: {config.workers} x {config.model} replicas "
            f"behind http://{host}:{port} "
            f"(heartbeat {config.heartbeat:.1f}s, "
            f"restarts<={config.max_restarts})"
        )
        stop_requested.wait()
        summary = handle.drain()
        print(
            f"repro-cluster: drained; {summary['open']} open sessions, "
            f"{summary['durable']} durable in the ledger"
        )
    finally:
        handle.stop()
        for signum, previous in installed.items():
            signal.signal(signum, previous)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description="Sharded multi-worker attack serving: N repro-serve "
        "replicas behind a consistent-hash router with health "
        "supervision, crash rebalancing, and cluster metrics",
    )
    parser.add_argument("--workers", type=int, default=2,
                        help="worker replica processes")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8870,
                        help="router port (workers take ephemeral ports)")
    parser.add_argument(
        "--model", default="toy", choices=["toy"] + sorted(ARCHITECTURES)
    )
    parser.add_argument("--height", type=int, default=8)
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--classes", type=int, default=4, dest="num_classes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch-size", type=int, default=32,
                        dest="max_batch_size")
    parser.add_argument("--max-wait", type=float, default=0.002)
    parser.add_argument("--cache", type=int, default=4096, dest="cache_size")
    parser.add_argument("--freeze", action="store_true",
                        help="serve replicas on the inference fast path")
    parser.add_argument("--dtype", choices=["float32", "float64"], default=None)
    parser.add_argument(
        "--latency", type=float, default=0.0,
        help="simulated per-image model seconds (benchmark knob)",
    )
    parser.add_argument(
        "--shared-cache", action="store_true", dest="shared_cache",
        help="run a shared L2 query-cache process; workers consult it "
        "on L1 miss and write scored entries through (results are "
        "bit-identical either way; saves cross-replica forward passes)",
    )
    parser.add_argument(
        "--shared-cache-size", type=int, default=65536,
        dest="shared_cache_size",
        help="entries in the shared L2 bounded LRU",
    )
    parser.add_argument("--max-sessions", type=int, default=64)
    parser.add_argument("--rate", type=float, default=50.0)
    parser.add_argument("--burst", type=float, default=20.0)
    parser.add_argument("--heartbeat", type=float, default=0.5)
    parser.add_argument("--max-restarts", type=int, default=3)
    parser.add_argument("--backoff", type=float, default=0.5)
    parser.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="durable session ledger: open sessions survive worker "
        "crashes and whole-tier restarts",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="re-submit open sessions from --checkpoint on startup",
    )
    parser.add_argument("--log", default=None, dest="log_path",
                        help="cluster_event JSONL telemetry file")
    parser.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline applied by workers to submissions "
        "that omit deadline_seconds",
    )
    parser.add_argument(
        "--max-deadline", type=float, default=None, metavar="SECONDS",
        help="hard cap on requested deadline_seconds (workers 400 larger)",
    )
    parser.add_argument(
        "--session-ttl", type=float, default=None, dest="session_ttl",
        metavar="SECONDS",
        help="worker TTL: reap finished sessions unpolled this long "
        "(the router settles them and closes their ledger records)",
    )
    parser.add_argument(
        "--idle-ttl", type=float, default=None, dest="idle_ttl",
        metavar="SECONDS",
        help="worker TTL: cancel live sessions no client has polled "
        "for this long",
    )
    parser.add_argument(
        "--reap-interval", type=float, default=1.0, dest="reap_interval",
        metavar="SECONDS", help="worker TTL reaper cadence",
    )
    parser.add_argument(
        "--shed-queue-depth", type=int, default=None, dest="shed_queue_depth",
        metavar="N",
        help="per-worker overload shedding: 503 + Retry-After while the "
        "broker queue holds >= N pending queries",
    )
    parser.add_argument(
        "--shed-sessions", type=int, default=None, dest="shed_sessions",
        metavar="N",
        help="per-worker overload shedding: 503 while >= N sessions live",
    )
    parser.add_argument(
        "--shed-retry-after", type=float, default=1.0,
        dest="shed_retry_after", metavar="SECONDS",
        help="Retry-After value sent with shed (503) responses",
    )
    parser.add_argument(
        "--shed-open-sessions", type=int, default=None,
        dest="shed_open_sessions", metavar="N",
        help="router-level overload shedding: refuse new submits with "
        "503 while >= N sessions are open tier-wide",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = ClusterConfig(**vars(args))
    try:
        return run_cluster(config)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
