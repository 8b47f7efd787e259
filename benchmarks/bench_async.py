"""Real-latency FM fan-out benchmark: measured makespans, end to end.

The executors' modelled critical path is computed, not clocked; this
bench runs the transport stack with **real sleeps** and clocks the wall:

* **Batch makespan** — one batch of independent requests through a
  :class:`~repro.fm.transport.TransportFMClient` over a
  :class:`~repro.fm.transport.SimulatedHTTPTransport` (latency jitter,
  429s with ``Retry-After``, 5xx — the retry schedule runs for real),
  executed serially and on the thread pool at concurrency 1–16.
  Asserted: the thread pool at concurrency 8 cuts the measured makespan
  ≥2× vs serial.
* **Physical stage overlap** — the same SMARTFEAT search through
  stateless transport clients under ``stage_plan="serial"`` vs
  ``"overlap"``: the scheduler detects the stateless clients and fans
  the independent post-unary stages out through the shared thread pool.
  Asserted: the overlap run reports ``physical_overlap`` and its
  measured per-stage windows genuinely intersect.

``python benchmarks/bench_async.py`` runs standalone and writes
``BENCH_async.json`` at the repo root; ``--smoke`` runs a reduced
version of both assertions (the CI gate).
"""

import json
import sys
import time
from pathlib import Path

from repro.datasets import load_dataset
from repro.eval import physical_overlap_report, render_table
from repro.fm import (
    FMRequest,
    RetryPolicy,
    SerialExecutor,
    SimulatedHTTPTransport,
    ThreadPoolFMExecutor,
    TransportFMClient,
)

CONCURRENCIES = (1, 2, 4, 8, 16)
N_REQUESTS = 48
BASE_LATENCY_S = 0.03
JITTER_S = 0.01
RETRY = dict(max_attempts=4, backoff_s=0.01, backoff_multiplier=2.0, max_backoff_s=0.1)


def _make_client(seed: int = 7) -> TransportFMClient:
    return TransportFMClient(
        SimulatedHTTPTransport(
            base_latency_s=BASE_LATENCY_S,
            jitter_s=JITTER_S,
            rate_limit_rate=0.04,
            server_error_rate=0.02,
            retry_after_s=0.02,
            seed=seed,
        )
    )


def _measure(executor, n_requests: int) -> float:
    """Wall seconds for one batch; asserts every request succeeded."""
    client = _make_client()
    requests = [FMRequest(f"bench request {i}") for i in range(n_requests)]
    started = time.perf_counter()
    results = executor.run(client, requests)
    wall = time.perf_counter() - started
    failed = [r for r in results if not r.ok]
    assert not failed, f"{len(failed)} requests failed after retries: {failed[:3]}"
    assert client.ledger.n_calls == n_requests
    return wall


def run_batch_benchmark(
    concurrencies=CONCURRENCIES, n_requests: int = N_REQUESTS
) -> dict:
    """Serial vs thread-pool real-latency batch makespans."""
    retry = RetryPolicy(**RETRY)
    serial_wall = _measure(SerialExecutor(retry=retry), n_requests)
    points = []
    for concurrency in concurrencies:
        with ThreadPoolFMExecutor(concurrency, retry=retry) as pool:
            thread_wall = _measure(pool, n_requests)
        points.append(
            {
                "concurrency": concurrency,
                "thread_wall_s": round(thread_wall, 3),
                "thread_speedup": round(serial_wall / thread_wall, 2),
            }
        )
    by_concurrency = {p["concurrency"]: p for p in points}
    return {
        "n_requests": n_requests,
        "base_latency_s": BASE_LATENCY_S,
        "jitter_s": JITTER_S,
        "serial_wall_s": round(serial_wall, 3),
        "points": points,
        "thread_speedup_at_8": by_concurrency.get(8, points[-1])["thread_speedup"],
    }


def render_batch_table(payload: dict) -> str:
    rows = [
        [
            str(p["concurrency"]),
            f"{payload['serial_wall_s']:.2f}",
            f"{p['thread_wall_s']:.2f}",
            f"{p['thread_speedup']:.1f}x",
        ]
        for p in payload["points"]
    ]
    return render_table(["concurrency", "serial (s)", "thread (s)", "speedup"], rows)


def run_overlap_benchmark(dataset: str = "heart", n_rows: int = 250) -> dict:
    """Measured physical stage fan-out against stateless transport clients."""
    return physical_overlap_report(load_dataset(dataset, n_rows=n_rows))


def render_overlap_table(payload: dict) -> str:
    rows = [
        [
            payload["dataset"],
            f"{payload['wall_serial_s']:.2f}",
            f"{payload['wall_overlap_s']:.2f}",
            f"{payload['measured_speedup']:.2f}x",
            "yes" if payload["physical_overlap"] else "NO",
            "; ".join("+".join(pair) for pair in payload["stages_overlapped"]) or "-",
        ]
    ]
    return render_table(
        [
            "dataset",
            "serial plan (s)",
            "overlap plan (s)",
            "speedup",
            "physical",
            "measured overlaps",
        ],
        rows,
    )


def assert_batch(payload: dict, min_speedup: float = 2.0) -> None:
    speedup = payload["thread_speedup_at_8"]
    assert speedup >= min_speedup, (
        f"thread pool at concurrency 8 below {min_speedup}x vs serial: {speedup}x"
    )


def assert_overlap(payload: dict) -> None:
    assert payload["physical_overlap"], payload
    assert not payload["serial_plan_physical"], payload
    assert payload["stages_overlapped"], (
        "no post-unary stages physically overlapped: "
        f"{payload['schedule']['nodes']}"
    )


def run_smoke() -> int:
    """CI gate: reduced sizes, same assertions."""
    batch = run_batch_benchmark(concurrencies=(8,), n_requests=24)
    assert_batch(batch)
    overlap = run_overlap_benchmark(n_rows=150)
    assert_overlap(overlap)
    print(
        "fan-out smoke ok: "
        f"batch speedup {batch['thread_speedup_at_8']:.1f}x at concurrency 8, "
        f"physical stage overlap {overlap['stages_overlapped']} "
        f"({overlap['measured_speedup']:.2f}x measured)"
    )
    return 0


def test_thread_batch_speedup(results_dir):
    """Thread-pool executor: ≥2x lower measured batch makespan at concurrency 8."""
    from benchmarks.conftest import write_result

    payload = run_batch_benchmark()
    write_result(results_dir, "fanout_batch.txt", render_batch_table(payload))
    assert_batch(payload)


def test_physical_stage_overlap(results_dir):
    """Stateless clients: overlap plan physically fans stages out."""
    from benchmarks.conftest import write_result

    payload = run_overlap_benchmark()
    write_result(results_dir, "fanout_overlap.txt", render_overlap_table(payload))
    assert_overlap(payload)


def main() -> int:
    if "--smoke" in sys.argv:
        return run_smoke()
    batch = run_batch_benchmark()
    print(render_batch_table(batch))
    overlap = run_overlap_benchmark()
    print()
    print(render_overlap_table(overlap))
    out = Path(__file__).resolve().parent.parent / "BENCH_async.json"
    out.write_text(
        json.dumps({"batch": batch, "stage_overlap": overlap}, indent=2) + "\n"
    )
    print(f"wrote {out}")
    assert_batch(batch)
    assert_overlap(overlap)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
