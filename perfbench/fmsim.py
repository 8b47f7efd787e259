"""FM stand-ins for the fit workload, injected through the constructors.

:class:`SleepyFM` is the seeded simulator that also *waits*: each call
sleeps the cost model's modelled latency times ``scale``, so FM wait
dominates a fit the way it does against a real endpoint while the answers,
and the order in which calls reserve their sampling state, stay exactly
the simulator's.  :class:`TimedExecutor` is the thread-pool executor with
the wall time inside ``run`` recorded, for the traced run.
"""

from __future__ import annotations

import threading
import time

from repro.fm import SimulatedFM
from repro.fm.cost import estimate_tokens
from repro.fm.executor import ThreadPoolFMExecutor


class SleepyFM(SimulatedFM):
    """:class:`SimulatedFM` sleeping ``scale`` × the modelled call latency."""

    def __init__(self, *, scale: float, **kwargs) -> None:
        super().__init__(**kwargs)
        self.scale = scale
        self.busy_s = 0.0
        self._busy_lock = threading.Lock()

    def _complete_with_state(self, prompt, temperature, state):
        text = super()._complete_with_state(prompt, temperature, state)
        start = time.perf_counter()
        time.sleep(self.cost_model.latency(estimate_tokens(text)) * self.scale)
        slept = time.perf_counter() - start
        with self._busy_lock:
            self.busy_s += slept
        return text


class TimedExecutor(ThreadPoolFMExecutor):
    """Thread-pool executor recording each ``run`` as an ``fm.run`` span."""

    def __init__(self, concurrency: int, tracer) -> None:
        super().__init__(concurrency)
        self.tracer = tracer
        self.wait_s = 0.0
        self.batches = 0
        self.requests = 0
        self._timing_lock = threading.Lock()

    def run(self, client, requests):
        start = time.perf_counter()
        try:
            with self.tracer.span("fm.run"):
                return super().run(client, requests)
        finally:
            elapsed = time.perf_counter() - start
            with self._timing_lock:
                self.wait_s += elapsed
                self.batches += 1
                self.requests += len(requests)
