"""Property-based serial == threaded equivalence.

The thread-pool executor must be a pure infrastructure swap for the
serial one on seeded clients, over random family subsets, wave sizes,
concurrency levels, and injected 429 retries.  Identity is checked at
full strength: frames (bit-level), accepted-feature *order*, and ledger
call counts.

Also here: the regression tests for the removed ``generator.timer``
thread-local fallback — timers are only ever passed explicitly, so
physically concurrent stages can never cross their accounting.
"""

import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SmartFeat
from repro.core.function_generator import FunctionGenerator
from repro.core.timing import StageTimer
from repro.core.types import FeatureCandidate, OperatorFamily
from repro.dataframe import DataFrame
from repro.eval.efficiency import _frames_identical
from repro.fm import (
    FMRateLimitError,
    FMRequest,
    RetryPolicy,
    ScriptedFM,
    SerialExecutor,
    SimulatedFM,
    ThreadPoolFMExecutor,
)

FAMILY_SUBSETS = [
    (
        OperatorFamily.UNARY,
        OperatorFamily.BINARY,
        OperatorFamily.HIGH_ORDER,
        OperatorFamily.EXTRACTOR,
    ),
    (OperatorFamily.UNARY, OperatorFamily.BINARY, OperatorFamily.HIGH_ORDER),
    (OperatorFamily.UNARY, OperatorFamily.HIGH_ORDER, OperatorFamily.EXTRACTOR),
    (OperatorFamily.BINARY, OperatorFamily.HIGH_ORDER, OperatorFamily.EXTRACTOR),
    (OperatorFamily.UNARY, OperatorFamily.EXTRACTOR),
    (OperatorFamily.BINARY, OperatorFamily.HIGH_ORDER),
]


def small_frame() -> DataFrame:
    return DataFrame(
        {
            "Age": [21, 35, 42, 22, 45, 56, 30, 28] * 6,
            "Income": [10.0, 25.0, 18.5, 40.0, 31.0, 22.0, 15.5, 60.0] * 6,
            "City": ["SF", "LA", "SEA", "SF", "SEA", "LA", "SF", "LA"] * 6,
            "Target": [0, 1, 1, 0, 1, 1, 0, 1] * 6,
        }
    )


DESCRIPTIONS = {
    "Age": "Age of the customer in years",
    "Income": "Annual income in thousands of dollars",
    "City": "City of residence",
}


class RateLimitedSimulatedFM(SimulatedFM):
    """SimulatedFM that 429s once per *fail_every*-th reserved call.

    Failures key on the reserved counter value, so every backend (which
    issues the same call sequence) hits identical failures at identical
    positions; the retry reserves fresh state exactly like a real
    re-issued call.
    """

    def __init__(self, fail_every: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.fail_every = fail_every
        self._failed: set[int] = set()
        self._failed_lock = threading.Lock()

    def _complete_with_state(self, prompt, temperature, state):
        if isinstance(state, int) and state % self.fail_every == 0:
            with self._failed_lock:
                fresh = state not in self._failed
                self._failed.add(state)
            if fresh:
                raise FMRateLimitError(f"simulated 429 at call {state}")
        return super()._complete_with_state(prompt, temperature, state)


def _fingerprint(result, clients):
    return (
        list(result.new_features),  # accepted-feature ORDER, not just set
        result.dropped,
        result.errors,
        sorted(result.rejections),
        [(c.ledger.n_calls, c.ledger.cache_hits) for c in clients],
    )


def _run_pipeline(executor, seed, wave_size, families, fail_every=None):
    if fail_every is not None:
        fm = RateLimitedSimulatedFM(fail_every, seed=seed, model="gpt-4")
        function_fm = RateLimitedSimulatedFM(
            fail_every, seed=seed + 1, model="gpt-3.5-turbo"
        )
    else:
        fm = SimulatedFM(seed=seed, model="gpt-4")
        function_fm = SimulatedFM(seed=seed + 1, model="gpt-3.5-turbo")
    tool = SmartFeat(
        fm=fm,
        function_fm=function_fm,
        downstream_model="decision_tree",
        executor=executor,
        wave_size=wave_size,
        operator_families=families,
    )
    result = tool.fit_transform(
        small_frame(), target="Target", descriptions=dict(DESCRIPTIONS)
    )
    return result, _fingerprint(result, (fm, function_fm))


# ----------------------------------------------------------------------
# Executor-level: random batches, both backends, one answer.
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=50),
    concurrency=st.integers(min_value=2, max_value=8),
    batch_sizes=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
    temperature_pattern=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_simulator_batches_identical_across_backends(
    seed, concurrency, batch_sizes, temperature_pattern
):
    def run(executor):
        fm = SimulatedFM(seed=seed)
        texts = []
        call = 0
        for size in batch_sizes:
            requests = [
                FMRequest(
                    f"prompt {call + i}",
                    0.0 if (call + i) % temperature_pattern else 0.7,
                )
                for i in range(size)
            ]
            call += size
            texts.extend(r.response.text for r in executor.run(fm, requests))
        return texts, fm.ledger.snapshot(), executor.stats.summed_latency_s

    serial = run(SerialExecutor())
    with ThreadPoolFMExecutor(concurrency) as pool:
        threaded = run(pool)
    assert serial == threaded


# ----------------------------------------------------------------------
# Pipeline-level: random family subsets, wave sizes, concurrencies.
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=5),
    wave_size=st.integers(min_value=1, max_value=6),
    concurrency=st.integers(min_value=2, max_value=8),
    families=st.sampled_from(FAMILY_SUBSETS),
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pipeline_identical_across_backends(seed, wave_size, concurrency, families):
    serial_result, serial_fp = _run_pipeline(
        SerialExecutor(), seed, wave_size, families
    )
    with ThreadPoolFMExecutor(concurrency) as pool:
        threaded_result, threaded_fp = _run_pipeline(pool, seed, wave_size, families)
    assert serial_fp == threaded_fp
    assert _frames_identical(serial_result.frame, threaded_result.frame)


# ----------------------------------------------------------------------
# Injected 429s: retries must not make the thread pool's answer depend
# on its fan-out.  (Serial is excluded *with retries on* by design: it
# reserves state lazily, so a retry consumes the next slot and later
# calls shift — the documented batch-reservation divergence.  The pool
# reserves a whole batch up front, at any fan-out, and must stay
# bit-identical between one worker and many.)
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=3),
    wave_size=st.integers(min_value=1, max_value=4),
    concurrency=st.integers(min_value=2, max_value=6),
    fail_every=st.integers(min_value=3, max_value=9),
)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_injected_429s_identical_across_thread_fanouts(
    seed, wave_size, concurrency, fail_every
):
    retry = RetryPolicy(max_attempts=3)
    families = (OperatorFamily.UNARY, OperatorFamily.BINARY, OperatorFamily.HIGH_ORDER)
    with ThreadPoolFMExecutor(1, retry=retry) as single:
        single_result, single_fp = _run_pipeline(
            single, seed, wave_size, families, fail_every=fail_every
        )
    with ThreadPoolFMExecutor(concurrency, retry=retry) as pool:
        threaded_result, threaded_fp = _run_pipeline(
            pool, seed, wave_size, families, fail_every=fail_every
        )
    assert single_fp == threaded_fp
    assert _frames_identical(single_result.frame, threaded_result.frame)


@given(
    seed=st.integers(min_value=0, max_value=3),
    wave_size=st.integers(min_value=1, max_value=4),
    concurrency=st.integers(min_value=2, max_value=6),
    fail_every=st.integers(min_value=3, max_value=9),
)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_injected_429s_without_retries_identical_across_backends(
    seed, wave_size, concurrency, fail_every
):
    """With retries off, a 429 is just a deterministic stage error — it
    consumes exactly its reserved slot on either backend, so both stay
    bit-identical including the error bookkeeping."""
    families = (OperatorFamily.UNARY, OperatorFamily.BINARY, OperatorFamily.HIGH_ORDER)
    serial_result, serial_fp = _run_pipeline(
        SerialExecutor(), seed, wave_size, families, fail_every=fail_every
    )
    with ThreadPoolFMExecutor(concurrency) as pool:
        threaded_result, threaded_fp = _run_pipeline(
            pool, seed, wave_size, families, fail_every=fail_every
        )
    assert serial_fp == threaded_fp
    assert _frames_identical(serial_result.frame, threaded_result.frame)


# ----------------------------------------------------------------------
# Regression: the generator.timer thread-local fallback is gone — timers
# are explicit, and concurrent stages can never share one.
# ----------------------------------------------------------------------
GOOD_CODE = "```python\ndef transform(df):\n    return df['Age'] - df['Income']\n```"


def _candidate(name: str) -> FeatureCandidate:
    return FeatureCandidate(
        name=name,
        columns=["Age", "Income"],
        description=f"binary[-]: {name}",
        family=OperatorFamily.BINARY,
    )


def test_generator_timer_fallback_removed():
    generator = FunctionGenerator(ScriptedFM(lambda prompt: GOOD_CODE))
    assert not hasattr(generator, "timer")
    assert not hasattr(generator, "_timer_slot")


def test_no_timer_means_no_accounting_anywhere():
    """With no explicit timer there is nothing to fall back to: the
    realization still works and no shared state accumulates a window."""
    generator = FunctionGenerator(ScriptedFM(lambda prompt: GOOD_CODE))
    from repro.core.agenda import DataAgenda

    frame = small_frame()
    agenda = DataAgenda.from_dataframe(frame, target="Target")
    realized = generator.realize(_candidate("gap"), agenda, frame)
    assert "gap" in realized.values


def test_concurrent_stages_never_share_a_timer():
    """Two threads realizing through ONE shared generator, each with its
    own explicit StageTimer: every sandboxed transform accounts against
    exactly the timer its stage passed — none leak across threads."""
    generator = FunctionGenerator(ScriptedFM(lambda prompt: GOOD_CODE))
    from repro.core.agenda import DataAgenda

    frame = small_frame()
    agenda = DataAgenda.from_dataframe(frame, target="Target")
    counts = {"a": 3, "b": 5}
    timers = {name: StageTimer() for name in counts}
    barrier = threading.Barrier(len(counts))
    failures: list[BaseException] = []

    def stage(name: str) -> None:
        try:
            barrier.wait(timeout=10)
            candidates = [_candidate(f"{name}_{i}") for i in range(counts[name])]
            outcomes = generator.realize_batch(
                candidates, agenda, frame, timer=timers[name]
            )
            assert all(not isinstance(o, Exception) for o in outcomes)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=stage, args=(name,), name=f"stage-{name}")
        for name in counts
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures
    for name, expected in counts.items():
        snapshot = timers[name].snapshot()
        assert snapshot["transform_exec"]["calls"] == expected, (
            f"stage {name} expected {expected} transform executions on its own "
            f"timer, saw {snapshot}"
        )
