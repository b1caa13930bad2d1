"""repro.testkit: the verification harness for the execution stack.

Four pillars, built to make aggressive refactoring of the runtime and
serving layers cheap to validate (see DESIGN §9):

- :mod:`~repro.testkit.faults` -- deterministic fault-injection
  classifier wrappers (flaky, slow, score-corrupting) driven by seeded
  schedules;
- :mod:`~repro.testkit.trace` -- golden-trace record/replay: capture
  every query event of an attack run, replay it with zero model forward
  passes, localize the first diverging query;
- :mod:`~repro.testkit.differential` -- the equivalence oracle sweeping
  seeds x execution paths x cache modes and asserting bit-identical
  :class:`~repro.attacks.base.AttackResult` everywhere;
- :mod:`~repro.testkit.batching` -- the batch-equivalence oracle
  proving batch-native stepping (DESIGN §14) bit-identical to the
  scalar protocol across seeds x execution modes;
- :mod:`~repro.testkit.matrix` -- the fault matrix proving every fault
  kind degrades gracefully on every execution path;
- :mod:`~repro.testkit.kill` -- the kill-and-resume harness: SIGKILL a
  checkpointed campaign subprocess mid-run, resume it, and assert the
  summary is bit-identical to an uninterrupted run;
- :mod:`~repro.testkit.lifecycle` -- the lifecycle oracle proving a
  session cancelled or expired after ``k`` charged queries reports
  exactly ``k`` (bit-identical to a budget-``k`` scalar run), swept
  across stepping modes, drive paths, and park verdicts;
- :mod:`~repro.testkit.generators` -- hypothesis strategies for images,
  budgets, and DSL programs (present only when hypothesis is installed).
"""

from repro.testkit.batching import (
    DEFAULT_MODES,
    BatchCell,
    BatchDivergence,
    BatchEquivalenceReport,
    BatchEquivalenceRunner,
    ReorderingBroker,
    toy_batch_runner,
)
from repro.testkit.differential import (
    DEFAULT_PATHS,
    Cell,
    DifferentialReport,
    DifferentialRunner,
    Divergence,
    network_runner,
    result_fingerprint,
    results_equal,
    tiny_network_classifier,
    toy_baseline_runner,
    toy_runner,
)
from repro.testkit.faults import (
    CorruptScoresClassifier,
    FaultSchedule,
    FlakyClassifier,
    InjectedFault,
    InjectedTimeout,
    SlowClassifier,
)
from repro.testkit.kill import (
    kill_and_resume_campaign,
    kill_and_resume_matrix,
    matrix_fingerprint,
    summary_fingerprint,
    toy_campaign,
    toy_matrix_spec,
)
from repro.testkit.lifecycle import (
    DEFAULT_LIFECYCLE_KINDS,
    DEFAULT_LIFECYCLE_PATHS,
    FlightDroppingBroker,
    LifecycleCell,
    LifecycleDivergence,
    LifecycleEquivalenceRunner,
    LifecycleReport,
    cancel_during_flight,
    toy_lifecycle_runner,
)
from repro.testkit.sharedcache import (
    L2_MODES,
    InMemorySharedCache,
    live_shared_cache_smoke,
    shared_cache_sweep,
    tiered_broker_factory,
)
from repro.testkit.matrix import (
    DEFAULT_KINDS,
    DEFAULT_MATRIX_PATHS,
    FaultCell,
    run_fault_matrix,
)
from repro.testkit.trace import (
    ReplayClassifier,
    TraceEvent,
    TraceMismatch,
    TraceRecorder,
    TraceVerifier,
    diff_events,
    load_trace,
    pixel_diff,
    replay,
)

__all__ = [
    "DEFAULT_KINDS",
    "DEFAULT_LIFECYCLE_KINDS",
    "DEFAULT_LIFECYCLE_PATHS",
    "DEFAULT_MATRIX_PATHS",
    "DEFAULT_MODES",
    "DEFAULT_PATHS",
    "BatchCell",
    "BatchDivergence",
    "BatchEquivalenceReport",
    "BatchEquivalenceRunner",
    "Cell",
    "CorruptScoresClassifier",
    "DifferentialReport",
    "DifferentialRunner",
    "Divergence",
    "FaultCell",
    "FaultSchedule",
    "FlakyClassifier",
    "InMemorySharedCache",
    "InjectedFault",
    "FlightDroppingBroker",
    "InjectedTimeout",
    "L2_MODES",
    "LifecycleCell",
    "LifecycleDivergence",
    "LifecycleEquivalenceRunner",
    "LifecycleReport",
    "ReorderingBroker",
    "ReplayClassifier",
    "SlowClassifier",
    "TraceEvent",
    "TraceMismatch",
    "TraceRecorder",
    "TraceVerifier",
    "cancel_during_flight",
    "diff_events",
    "kill_and_resume_campaign",
    "kill_and_resume_matrix",
    "live_shared_cache_smoke",
    "matrix_fingerprint",
    "toy_matrix_spec",
    "load_trace",
    "network_runner",
    "pixel_diff",
    "replay",
    "result_fingerprint",
    "results_equal",
    "run_fault_matrix",
    "shared_cache_sweep",
    "summary_fingerprint",
    "tiered_broker_factory",
    "tiny_network_classifier",
    "toy_baseline_runner",
    "toy_batch_runner",
    "toy_campaign",
    "toy_lifecycle_runner",
    "toy_runner",
]
