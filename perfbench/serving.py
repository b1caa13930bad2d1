"""The ``serve-toy`` workload.

Each run boots the real service, ``python -m repro.serve``, as a
subprocess on the toy model, which costs microseconds per query, so the
HTTP front end, admission, session threads, the ``threaded_steps``
adapter and the broker do the work.

The load generator is this process: one thread sends, one polls, so at
most two connections are open at a time.  Every session is an
independent user (its own ``X-Client-Id``) attacking its own image with
budget 256, in an equal, fixed rotation of the ``sketch`` (paper
program), ``fixed``, ``sparse-rs`` and ``su-opa`` attacks.  Three phases:

- ``steady``: an open loop over ``--seconds``.  Arrival times are a
  seeded Poisson process conditioned on its count and on arrivals at
  the phase's two ends (sorted uniform times in between), so every run
  offers exactly the same rate over a phase of the same length.  A
  session's latency runs from its scheduled send until the
  ``finished_at`` time the server records; both are read from the same
  wall clock, so the polling period does not blur latencies.  How late
  the sender ran is reported as ``loadgen.lateness_ms_*``.
- ``burst``: rounds of 16 sessions (a quarter of the admission capacity
  of 64) submitted back to back, each polled until all finish.
- ``isolated``: sessions of the paper's program run one at a time on
  the otherwise idle server, in equal chunks before the steady phase
  and after each later phase, so that a slow spell of the host reaches
  a few of their latencies rather than all of them.

On a 2-core virtual machine whose host now and then takes CPU time
away, a server whose twenty-odd threads contend for the interpreter lock
loses about half its wall-clock throughput while its CPU time per query
moves far less, so the end-to-end metrics are chosen to move little
when that happens:

- ``us_per_query``: the server's CPU time (user + system) per counted
  query in a burst round, median over the rounds;
- ``sessions_per_s``: burst sessions completed per second of server CPU
  time, median over the rounds (the wall-clock rate is reported per
  layer as ``loadgen.burst.sessions_per_s_wall``);
- ``iters_per_s``: steady-phase sessions completed per second, which
  stays at the offered rate while the server keeps up;
- ``latency_p50_s`` / ``latency_p90_s``: latencies of the isolated
  sessions, from submission until the ``finished_at`` time the server
  records (read from the same wall clock as the send times, so the
  polling period does not blur them), less the host's steal time over
  the same interval: the CPU time the hypervisor took from this machine
  while one of its CPUs had work to run, which during a lone session is
  the session's own work.  For spells lasting whole runs the host took
  a quarter of a lone session's wall time, and the wall-clock p50 and
  p90 of the same code moved by a fifth and by two fifths between runs;
  the wall-clock latencies and the steal per session are reported per
  layer (``loadgen.isolated.*``).

The latencies of the four attacks differ tenfold, so the median of a
mixed sample falls between two of them and jumps: it moved by half
between runs for some 40 loaded steady-phase sessions, and by a fifth
for 16 isolated ones.  The isolated sessions therefore all run the
paper's program, there are 60 of them spread over the run, and the
steady phase's latencies are reported per layer
(``loadgen.steady.latency_s_*``), not bounded.

Goldens: every session's (queries, success) from ``drive_steps`` on the
same toy classifier in this process.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import (
    Outcome, child_env, cpu_seconds, median, peak_rss_mb, percentile, spawn_ready,
    steal_seconds, stop,
)
from repro.core.dsl.library import paper_example_program
from repro.core.stepping import drive_steps
from repro.data.cifar_like import make_cifar_like
from repro.serve.protocol import build_attack, encode_image
from repro.serve.server import ServeConfig, build_classifier

HEIGHT = WIDTH = 32
CLASSES = 10
BUDGET = 256
MIX = ("sketch", "fixed", "sparse-rs", "su-opa")
TERMINAL = {"done", "failed", "cancelled", "expired", "suspended"}
#: Boots per run; the median boot time is reported as ``setup_s``.
BOOTS = 3
#: Seconds between the starts of two polling sweeps.  Latencies do not
#: depend on it: a session's end is the ``finished_at`` wall-clock time the
#: service records, on the clock the scheduled send times are taken from.
POLL_PERIOD = 0.1
#: A lone session of the paper's program finishes in 0.08-0.2 s.  Its
#: first poll waits ``ISOLATED_QUIET`` seconds after the send, because
#: polls that land while it runs take the server's interpreter lock from
#: it and widen its latency's spread; later polls come every
#: ``ISOLATED_POLL_PERIOD`` seconds.
ISOLATED_QUIET = 0.2
ISOLATED_POLL_PERIOD = 0.03
#: A phase that has not finished this long after its last send fails.
PHASE_TIMEOUT = 60.0


@dataclass(frozen=True)
class Load:
    steady_rate: float  # sessions per second offered over --seconds
    burst: int  # sessions per burst round, submitted back to back
    rounds: int  # burst rounds
    isolated: int  # sessions run one at a time on the otherwise idle server


#: ``steady_rate`` is about 40% of the rate at which bursts complete on
#: a 2-core machine (6-7 sessions/s): at three quarters of it, queueing
#: made the steady-phase latencies swing by half from run to run.
FULL = Load(steady_rate=2.5, burst=16, rounds=3, isolated=60)
TINY = Load(steady_rate=4.0, burst=4, rounds=2, isolated=4)


@dataclass(frozen=True)
class Spec:
    key: tuple  # (candidate number, attack, attack seed)
    body: bytes  # the POST /attacks request


def make_specs(seed: int, attacks: List[str], toy):
    """One session per entry of ``attacks``, each on its own image, and
    their goldens.

    Only (image, attack, seed) triples whose golden run spends the whole
    budget are used, so every session does the same work and the
    latency of a session depends on its attack and on queueing alone.
    """
    rng = np.random.default_rng(seed)
    fresh: List[Spec] = []
    goldens: Dict[tuple, tuple] = {}
    images: List[np.ndarray] = []
    candidate = 0
    while len(fresh) < len(attacks):
        if candidate > 50 * len(attacks):
            raise RuntimeError(f"seed {seed}: too few images make {attacks[len(fresh)]} "
                               "spend its whole budget")
        if candidate == len(images):
            batch = make_cifar_like(4, size=HEIGHT, seed=seed * 1000 + len(images)).images
            images.extend(batch[rng.permutation(len(batch))])
        image = images[candidate]
        attack = attacks[len(fresh)]
        params = {"seed": seed * 7919 + candidate}
        if attack == "sketch":
            params["program"] = paper_example_program().to_dict()
        true_class = int(np.argmax(toy(image)))
        steps = build_attack(attack, params).steps(image, true_class, budget=BUDGET)
        result = drive_steps(steps, toy)
        if result.queries == BUDGET and not result.success:
            key = (candidate, attack, params["seed"])
            body = json.dumps({
                "attack": attack, "image": encode_image(image),
                "true_class": true_class, "budget": BUDGET, "params": params,
            }).encode()
            fresh.append(Spec(key, body))
            goldens[key] = (result.queries, result.success)
        candidate += 1
    return fresh, goldens


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def request(port: int, method: str, path: str, body: Optional[bytes] = None,
            client: Optional[str] = None, timeout: float = 30.0):
    """One HTTP round trip: (status, JSON payload, seconds)."""
    headers = {"Content-Type": "application/json"}
    if client is not None:
        headers["X-Client-Id"] = client
    started = time.perf_counter()
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        payload = json.loads(response.read() or b"{}")
        return response.status, payload, time.perf_counter() - started
    finally:
        connection.close()


def get_json(port: int, path: str) -> Optional[Dict]:
    try:
        status, payload, _ = request(port, "GET", path, timeout=10.0)
    except (OSError, http.client.HTTPException, ValueError):
        return None
    return payload if status == 200 else None


# ---------------------------------------------------------------------------
# load generation
# ---------------------------------------------------------------------------


class Phase:
    """One phase's client-side record."""

    def __init__(self, name: str):
        self.name = name
        self.sent = 0
        self.ok = 0
        self.failed = 0
        self.http_errors = 0
        self.queries = 0
        self.latencies: List[float] = []
        self.stolen: List[float] = []  # host steal seconds around each latency
        self.lateness: List[float] = []
        self.submit_ms: List[float] = []
        self.poll_ms: List[float] = []
        self.cpu_s = 0.0  # server CPU seconds the phase cost
        self.started = 0.0
        self.last_done = 0.0

    @property
    def span(self) -> float:
        return max(self.last_done - self.started, 1e-9)


def terminal_count(port: int) -> Optional[int]:
    """Sessions the service reports in a terminal state, from /metrics."""
    metrics = get_json(port, "/metrics")
    if metrics is None:
        return None
    states = metrics.get("session_states") or metrics.get("sessions", {}).get("states", {})
    return sum(count for state, count in states.items() if state in TERMINAL)


def run_phase(port: int, phase: Phase, specs: List[Spec], offsets: List[float],
              goldens: Dict, outcome: Outcome, burst: bool = False,
              period: float = POLL_PERIOD, quiet: float = 0.0) -> None:
    """Send ``specs`` at ``offsets`` seconds after the phase starts, and
    poll until every session is terminal.

    An open-loop phase polls each pending session from ``quiet`` seconds
    after its send on, so each one's latency is seen.  A burst only needs
    the time the last session finished: it polls the service's count of
    terminal sessions, one request per sweep however many sessions are
    pending, and reads each session's result once all have finished.
    """
    pending: Dict[str, tuple] = {}
    lock = threading.Lock()
    sent_all = threading.Event()
    baseline = (terminal_count(port) or 0) if burst else 0

    def settle(session_id: str, spec: Spec, due: float, steal_at_send: float) -> None:
        try:
            status, payload, seconds = request(port, "GET", f"/attacks/{session_id}")
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, payload, seconds = 0, {"error": repr(exc)}, 0.0
        phase.poll_ms.append(seconds * 1000)
        if status == 200 and payload.get("state") not in TERMINAL:
            return
        with lock:
            del pending[session_id]
        if status != 200:
            phase.http_errors += 1
        result = payload.get("result") or {}
        ok = outcome.check(
            payload.get("state") == "done"
            and payload.get("queries") == result.get("queries")
            and goldens[spec.key] == (result.get("queries"), result.get("success")),
            f"{phase.name} session {session_id} {spec.key}: status {status}, state "
            f"{payload.get('state')}, queries {payload.get('queries')}, result "
            f"{(result.get('queries'), result.get('success'))}, golden {goldens[spec.key]}",
        )
        if not ok:
            phase.failed += 1
            return
        phase.ok += 1
        phase.queries += result["queries"]
        phase.latencies.append(payload["finished_at"] - due)
        phase.stolen.append(steal_seconds() - steal_at_send)
        phase.last_done = max(phase.last_done, payload["finished_at"])

    def poll() -> None:
        deadline = None
        while True:
            with lock:
                items = list(pending.items())
            if not items and sent_all.is_set():
                return
            if sent_all.is_set():
                deadline = deadline or time.perf_counter() + PHASE_TIMEOUT
                if time.perf_counter() > deadline:
                    for session_id, _ in items:
                        outcome.check(False, f"{phase.name} session {session_id} timed out")
                        phase.failed += 1
                    return
            sweep_started = time.perf_counter()
            if not burst:
                for session_id, (spec, due, steal) in items:
                    if time.time() >= due + quiet:
                        settle(session_id, spec, due, steal)
            elif sent_all.is_set():
                finished = terminal_count(port)
                if finished is not None and finished >= baseline + len(items):
                    for session_id, (spec, due, steal) in items:
                        settle(session_id, spec, due, steal)
            time.sleep(max(0.0, sweep_started + period - time.perf_counter()))

    poller = threading.Thread(target=poll, name=f"poll-{phase.name}")
    poller.start()
    phase.started = time.time()
    try:
        for number, (spec, offset) in enumerate(zip(specs, offsets)):
            due = phase.started + offset
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            phase.lateness.append(max(time.time() - due, 0.0))
            phase.sent += 1
            steal_at_send = steal_seconds()
            try:
                status, payload, seconds = request(
                    port, "POST", "/attacks", body=spec.body, client=f"user-{spec.key[0]}",
                )
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, payload, seconds = 0, {"error": repr(exc)}, 0.0
            phase.submit_ms.append(seconds * 1000)
            if status == 202:
                with lock:
                    pending[payload["id"]] = (spec, due, steal_at_send)
                continue
            phase.http_errors += 1
            phase.failed += 1
            outcome.check(False, f"{phase.name} submit {number}: {status} {payload}")
    finally:
        sent_all.set()
        poller.join()
    for session_id in pending:  # left behind if the poller died
        outcome.check(False, f"{phase.name} session {session_id} was never settled")
        phase.failed += 1


def drive(port: int, pid: int, load: Load, seconds: float, specs: List[Spec],
          goldens: Dict, seed: int, outcome: Outcome) -> Dict:
    count = steady_count(load, seconds)
    inner = np.random.default_rng(seed).uniform(0.0, seconds, max(count - 2, 0))
    offsets = ([0.0] + sorted(inner) + [seconds])[:count]
    start = count + load.rounds * load.burst
    alone = specs[start:start + load.isolated]
    chunks = [alone[number::load.rounds + 2] for number in range(load.rounds + 2)]
    isolated = Phase("isolated")

    def isolate(chunk: List[Spec]) -> None:
        for spec in chunk:
            run_phase(port, isolated, [spec], [0.0], goldens, outcome,
                      period=ISOLATED_POLL_PERIOD, quiet=ISOLATED_QUIET)

    isolate(chunks[0])
    steady = Phase("steady")
    run_phase(port, steady, specs[:count], offsets, goldens, outcome)
    isolate(chunks[1])
    rounds = []
    for number in range(load.rounds):
        start = count + number * load.burst
        rounds.append(Phase("burst"))
        before = cpu_seconds(pid)
        run_phase(port, rounds[-1], specs[start:start + load.burst],
                  [0.0] * load.burst, goldens, outcome, burst=True)
        rounds[-1].cpu_s = cpu_seconds(pid) - before
        isolate(chunks[2 + number])
    outcome.attempted += steady.sent + sum(burst.sent for burst in rounds) + isolated.sent
    return {"steady": steady, "rounds": rounds, "isolated": isolated}


def steady_count(load: Load, seconds: float) -> int:
    return max(1, round(load.steady_rate * seconds))


def session_attacks(load: Load, seconds: float) -> List[str]:
    """The attack of every session a run sends, in order: the equal
    rotation for the steady and burst phases, then the paper's program
    for the isolated sessions."""
    mixed = steady_count(load, seconds) + load.burst * load.rounds
    return [MIX[index % len(MIX)] for index in range(mixed)] + ["sketch"] * load.isolated


# ---------------------------------------------------------------------------
# the service under test
# ---------------------------------------------------------------------------


def boot(argv: List[str], port: int):
    """Start the server and wait for ``/healthz``: (process, seconds)."""
    def ready() -> bool:
        health = get_json(port, "/healthz")
        return health is not None and health.get("status") == "ok"

    return spawn_ready(argv, ready, env=child_env())


def settled_metrics(port: int) -> Dict:
    """The server's /metrics once no admission slot is held (or after 5s)."""
    deadline = time.perf_counter() + 5.0
    while True:
        metrics = get_json(port, "/metrics") or {}
        if metrics.get("admission", {}).get("active", 0) == 0 or time.perf_counter() > deadline:
            return metrics
        time.sleep(0.05)


def one_pass(seed: int, seconds: float, load: Load, specs, goldens, outcome: Outcome,
             summary: Optional[Path], boots: int) -> Dict:
    """Boot ``boots`` times (keeping the last server), drive the phases,
    and read the server's metrics.  ``summary`` selects the traced
    launcher and names the file it writes."""
    port = free_port()
    program = ["--model", "toy", "--height", str(HEIGHT), "--width", str(WIDTH),
               "--classes", str(CLASSES), "--port", str(port)]
    if summary is None:
        argv = [sys.executable, "-m", "repro.serve"] + program
    else:
        launcher = str(Path(__file__).with_name("launcher.py"))
        argv = [sys.executable, launcher, "--summary", str(summary), "--"] + program
    boot_seconds = []
    for _ in range(boots):
        if boot_seconds:
            stop(process)
        process, boot_time = boot(argv, port)
        boot_seconds.append(boot_time)
    try:
        phases = drive(port, process.pid, load, seconds, specs, goldens, seed, outcome)
        rss = peak_rss_mb(process.pid)
        metrics = settled_metrics(port)
    finally:
        stop(process)
    return {"phases": phases, "metrics": metrics, "rss": rss,
            "boot_seconds": boot_seconds}


def net_latencies(phase: Phase) -> List[float]:
    """Each latency less the CPU time the host took from this machine
    between the session's send and the poll that saw it finished."""
    return [latency - stolen for latency, stolen in zip(phase.latencies, phase.stolen)]


def end_to_end(outcome: Outcome, measured: Dict) -> None:
    phases = measured["phases"]
    steady, rounds, isolated = phases["steady"], phases["rounds"], phases["isolated"]
    outcome.put("us_per_query",
                median(burst.cpu_s / max(burst.queries, 1) * 1e6 for burst in rounds), "us")
    outcome.put("iters_per_s", steady.ok / steady.span, "1/s")
    outcome.put("sessions_per_s",
                median(burst.ok / max(burst.cpu_s, 1e-9) for burst in rounds), "1/s")
    net = net_latencies(isolated)
    outcome.put("latency_p50_s", median(net), "s")
    outcome.put("latency_p90_s", percentile(net, 90), "s")
    outcome.put("peak_rss_mb", measured["rss"], "MiB")


def check_invariants(outcome: Outcome, measured: Dict) -> None:
    active = measured["metrics"].get("admission", {}).get("active")
    outcome.invariant(active == 0, f"admission.active_end == {active} after the run")


def layer_metrics(outcome: Outcome, measured: Dict, summary: Dict) -> None:
    steady, rounds = measured["phases"]["steady"], measured["phases"]["rounds"]
    burst = Phase("burst")
    for one in rounds:
        for field in ("sent", "ok", "failed", "http_errors"):
            setattr(burst, field, getattr(burst, field) + getattr(one, field))
        burst.submit_ms += one.submit_ms
        burst.poll_ms += one.poll_ms
    wall = steady.span + sum(one.span for one in rounds)
    layers = summary.get("layers", {})
    classifier = layers.get("classifier.blackbox", {})

    calls = classifier.get("calls", 0)
    images = summary.get("classifier_images", 0)
    busy = classifier.get("total_s", 0.0)
    outcome.put("classifier.calls", calls, "count")
    outcome.put("classifier.images", images, "count")
    outcome.put("classifier.busy_s", busy, "s")
    outcome.put("classifier.self_s", classifier.get("self_s", 0.0), "s")
    outcome.put("classifier.share", busy / wall, "fraction")
    outcome.put("classifier.us_per_image", busy / max(images, 1) * 1e6, "us")
    outcome.put("classifier.batch_mean", images / max(calls, 1), "images")

    submit = steady.submit_ms + burst.submit_ms
    outcome.put("server.submit_ms_p50", median(submit), "ms")
    outcome.put("server.submit_ms_p90", percentile(submit, 90), "ms")
    outcome.put("server.poll_ms_p50", median(steady.poll_ms + burst.poll_ms), "ms")
    outcome.put("server.http_errors", steady.http_errors + burst.http_errors, "count")

    metrics = measured["metrics"]
    admission = metrics.get("admission", {})
    outcome.put("admission.refused", admission.get("refused", 0), "count")
    outcome.put("admission.active_end", admission.get("active", 0), "count")
    outcome.put("sessions.active_peak", summary.get("active_peak", 0), "count")
    outcome.put("sessions.threads_peak", summary.get("threads_peak", 0), "count")

    broker = metrics.get("broker", {})
    batches = broker.get("batch_sizes", {})
    flushes = batches.get("count", 0)
    outcome.put("broker.flushes", flushes, "count")
    outcome.put("broker.batch_mean", batches.get("mean", 0.0), "queries")
    outcome.put("broker.batch1_frac",
                batches.get("buckets", {}).get("1", 0) / max(flushes, 1), "fraction")
    outcome.put("broker.step_rtt_ms_p50",
                median(summary.get("samples_ms", {}).get("serve.broker", [])), "ms")
    outcome.put("broker.queue_high_water", broker.get("queue_high_water", 0), "count")
    outcome.put("broker.single_flight_waits", broker.get("single_flight_waits", 0), "count")
    cache = broker.get("cache") or {}
    outcome.put("cache.hit_rate", cache.get("hit_rate", 0.0), "fraction")
    outcome.put("cache.evictions", cache.get("evictions", 0), "count")

    outcome.put("loadgen.burst.sessions_per_s_wall",
                median(one.ok / one.span for one in rounds), "1/s")
    outcome.put("loadgen.steady.latency_s_p50", median(steady.latencies), "s")
    outcome.put("loadgen.steady.latency_s_p90", percentile(steady.latencies, 90), "s")
    outcome.put("loadgen.lateness_ms_p50", median(steady.lateness) * 1000, "ms")
    outcome.put("loadgen.lateness_ms_max", max(steady.lateness, default=0.0) * 1000, "ms")
    isolated = measured["phases"]["isolated"]
    outcome.put("loadgen.isolated.wall_latency_s_p50", median(isolated.latencies), "s")
    outcome.put("loadgen.isolated.wall_latency_s_p90", percentile(isolated.latencies, 90), "s")
    outcome.put("loadgen.isolated.stolen_ms_mean",
                sum(isolated.stolen) / max(len(isolated.stolen), 1) * 1000, "ms")
    for phase in (steady, burst, isolated):
        outcome.put(f"loadgen.{phase.name}.sent", phase.sent, "count")
        outcome.put(f"loadgen.{phase.name}.ok", phase.ok, "count")
        outcome.put(f"loadgen.{phase.name}.failed", phase.failed, "count")


def run(seed: int, seconds: float, trace: bool, tiny: bool, corrupt: bool,
        outcome: Outcome, trace_stem: Path) -> None:
    load = TINY if tiny else FULL
    toy = build_classifier(ServeConfig(model="toy", height=HEIGHT, width=WIDTH,
                                       num_classes=CLASSES))
    specs, goldens = make_specs(seed, session_attacks(load, seconds), toy)
    if corrupt:
        key = specs[0].key
        goldens[key] = (goldens[key][0] + 1, goldens[key][1])

    measured = one_pass(seed, seconds, load, specs, goldens, outcome, None, BOOTS)
    outcome.put("setup_s", median(measured["boot_seconds"]), "s")
    end_to_end(outcome, measured)
    check_invariants(outcome, measured)
    if not trace:
        return

    summary = Path(f"{trace_stem}.server.json")
    summary.unlink(missing_ok=True)
    traced = one_pass(seed, seconds, load, specs, goldens, outcome, summary, 1)
    check_invariants(outcome, traced)
    traced_outcome = Outcome()
    end_to_end(traced_outcome, traced)
    if not summary.exists():
        outcome.invariant(False, "the traced server wrote no summary")
        return
    with open(summary) as handle:
        document = json.load(handle)
    layer_metrics(traced_outcome, traced, document)
    outcome.merge_traced(traced_outcome, document.get("layers", {}))
