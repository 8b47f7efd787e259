#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload serve_csv --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, untraced then traced
    python3 perfbench/run.py --quick         # tiny sizes; asserts every metric

One invocation with ``--workload`` measures that workload for ``--seconds``
and prints its metrics, one per line, then a last line with one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics (tracing off); ``--trace 1`` makes the
separate traced run and reports the per-layer metrics.  Every input is
generated from ``--seed``; the program only receives the generated CSV
files, frames and dataset bundles.  See ``perfbench/README.md`` for what
each workload and metric means.

Everything that imports the program runs in a fresh child process
(``child.py``, or ``python -m repro`` itself), so each child's peak RSS is
its own.  Operation times are adjusted for the host's current speed,
measured by a low-priority probe loop on the same vCPU while each
operation runs (``hostspeed.py``); raw medians are printed beside them.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import ELASTICITY, REFERENCE_S, Speedometer, adjusted

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORKLOADS = ("serve_csv", "serve_csv_chunked", "serve_batch", "fit")

#: Input sizes.  ``full`` is what the benchmark measures; ``quick`` only
#: checks that every workload runs and reports every metric.
SIZES = {
    "full": {
        "csv_rows": 24_000,  # serve CSV rows: codec work dominates the command
        "chunk_rows": 3_000,  # serve_csv_chunked: 8 shards
        "plan_rows": 2_000,  # demo fit frame the plan is compiled from
        "groups": 120,  # Segment cardinality shared by fit and serve frames
        "batch_rows": 256,  # rows per serve_batch request
        "frames": 32,  # distinct pre-generated serve_batch requests
        "fit_rows": 300,  # rows per eval dataset
        "fm_scale": 0.01,  # share of the modelled FM latency actually slept
        "setup_repeats": 5,  # fresh processes timed for setup_s
    },
    "quick": {
        "csv_rows": 300,
        "chunk_rows": 100,
        "plan_rows": 200,
        "groups": 8,
        "batch_rows": 32,
        "frames": 4,
        "fit_rows": 120,
        "fm_scale": 0.0005,
        "setup_repeats": 1,
    },
}

#: (name, unit, better): what ``--trace 0`` reports on every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("rows_per_s", "rows/s", "higher"),
    ("batch_p50_ms", "ms", "lower"),
    ("batch_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: What ``--trace 1`` reports.  Times are per workload operation (one CLI
#: command, one served batch, one fit pass over the nine datasets); a
#: layer the workload bypasses reads 0.
PER_LAYER = (
    ("proc.import_s", "s", "lower"),
    ("io.decode_s", "s", "lower"),
    ("io.encode_s", "s", "lower"),
    ("io.bytes_out", "bytes", "lower"),
    ("io.scan_s", "s", "lower"),
    ("io.shards", "count", "lower"),
    ("serve.load_s", "s", "lower"),
    ("serve.transform_s", "s", "lower"),
    ("plan.apply_s", "s", "lower"),
    ("serve.rows_quarantined", "count", "lower"),
    ("serve.compile_s", "s", "lower"),
    ("fm.wait_s", "s", "lower"),
    ("fm.busy_s", "s", "lower"),
    ("fm.batches", "count", "lower"),
    ("fm.batch_width_mean", "count", "higher"),
    ("fm.retries", "count", "lower"),
    ("fm.cache_hits", "count", "higher"),
    ("fm.calls.selector", "count", "lower"),
    ("fm.calls.generator", "count", "lower"),
    ("core.stage_s.unary", "s", "lower"),
    ("core.stage_s.binary", "s", "lower"),
    ("core.stage_s.high_order", "s", "lower"),
    ("core.stage_s.extractor", "s", "lower"),
    ("core.search_cpu_s", "s", "lower"),
    ("core.accept_ratio", "ratio", "higher"),
    ("fit_s", "s", "lower"),
    ("fm_calls", "count", "lower"),
    ("fm_cost_usd", "USD", "lower"),
    ("fm_calls_per_feature", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("host.probe_ms", "ms", "lower"),
)

CHILD_TIMEOUT_S = 150


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; with few samples it tends to the max."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def timing_metrics(run, ops: list[tuple[float, float]], rows_per_op: float,
                   op_walls: list[float]) -> dict:
    """Throughput and latency from ``(adjusted, raw)`` operation walls.

    Times are host-speed adjusted (``hostspeed.py``); the raw median is
    printed next to them.  *op_walls* are the adjusted walls of the unit
    that processes ``rows_per_op`` rows.  The gated tail is p90: a CLI run
    has under ten commands, and on a shared host single stalls of several
    times the median make p99 differ between runs far beyond any bound.
    p99 is printed.
    """
    adjusted_walls = [a for a, _ in ops]
    run.extra["raw_batch_p50_ms"] = (median([r for _, r in ops]) * 1e3, "ms")
    run.extra["batch_samples"] = (len(ops), "count")
    run.extra["batch_p99_ms"] = (percentile(adjusted_walls, 0.99) * 1e3, "ms")
    return {
        "rows_per_s": rows_per_op / median(op_walls),
        "batch_p50_ms": median(adjusted_walls) * 1e3,
        "batch_p90_ms": percentile(adjusted_walls, 0.9) * 1e3,
    }


class Proc:
    """One finished child: its interval, wall and CPU seconds, exit code,
    peak RSS and stdout."""

    def __init__(self, start, end, cpu, code, rss_mb, stdout):
        self.start, self.end, self.wall = start, end, end - start
        self.cpu, self.code = cpu, code
        self.rss_mb, self.stdout = rss_mb, stdout

    def op(self) -> dict:
        return {"start": self.start, "end": self.end, "wall": self.wall, "cpu": self.cpu}

    def json(self) -> dict:
        if self.code != 0:
            raise RuntimeError(f"child exited {self.code}:\n{self.stdout[-2000:]}")
        return json.loads(self.stdout.strip().splitlines()[-1])


def spawn(argv: list[str], workdir: Path) -> Proc:
    """Run *argv* to completion with ``src`` importable; kill it on timeout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log = workdir / "child.log"
    with open(log, "w+") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=workdir, env=env, stdout=out, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    cpu = usage.ru_utime + usage.ru_stime
    return Proc(start, end, cpu, proc.returncode, usage.ru_maxrss / 1024, text)


def child(command: str, cfg: dict, workdir: Path) -> Proc:
    return spawn(
        [sys.executable, str(BENCH / "child.py"), command, json.dumps(cfg)], workdir
    )


class Run:
    """Shared state of one workload run: sizes, counters and checks."""

    def __init__(self, args, sizes: dict, workdir: Path, speed: Speedometer):
        self.seed, self.seconds, self.trace = args.seed, args.seconds, args.trace
        self.sizes, self.workdir, self.speed = sizes, workdir, speed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.extra: dict[str, tuple[float, str]] = {}
        self.probes: list[float] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def adjust(self, op: dict) -> float:
        """Host-speed adjusted wall of one ``{start, end, wall, cpu}`` op."""
        probe_s = self.speed.probe_s(op["start"], op["end"])
        self.probes.append(probe_s)
        return adjusted(op["wall"], op["cpu"], probe_s)

    def setup_s(self, command: str, cfg: dict) -> float:
        adjusted_walls, raw = [], []
        for _ in range(self.sizes["setup_repeats"]):
            proc = child(command, cfg, self.workdir)
            self.op(proc.code == 0, f"{command} exited {proc.code}: {proc.stdout[-300:]}")
            if proc.code == 0:
                out = proc.json()
                adjusted_walls.append(self.adjust(out))
                raw.append(out["wall"])
        return self.setup_median(adjusted_walls, raw)

    def setup_median(self, adjusted_walls: list[float], raw: list[float]) -> float:
        self.extra["raw_setup_s"] = (median(raw), "s")
        return median(adjusted_walls)

    def plan_inputs(self, csv_rows: int) -> dict:
        sizes = self.sizes
        info = child(
            "serve-inputs",
            {
                "dir": str(self.workdir),
                "seed": self.seed,
                "plan_rows": sizes["plan_rows"],
                "groups": sizes["groups"],
                "csv_rows": csv_rows,
            },
            self.workdir,
        ).json()
        compiled = info["compiled"] == info["features"]
        self.op(compiled, "demo plan not fully compiled")
        self.check("demo plan compiles 100%", compiled, json.dumps(info))
        return info


# ----------------------------------------------------------------------
# serve_csv / serve_csv_chunked: `python -m repro plan apply` over a CSV
# ----------------------------------------------------------------------
def run_cli(run: Run, chunked: bool) -> dict:
    sizes, wd = run.sizes, run.workdir
    info = run.plan_inputs(sizes["csv_rows"])
    repro_args = ["plan", "apply", "--plan", "plan.json"]
    flags = ["--chunk-rows", str(sizes["chunk_rows"])] if chunked else []

    def command(csv: str) -> list[str]:
        return repro_args + ["--csv", csv, "--out", "out.csv"] + flags

    mismatched = 0

    def timed(argv: list[str], check: bool) -> Proc:
        """Run *argv*; with *check*, compare its out.csv to the reference."""
        nonlocal mismatched
        proc = spawn(argv, wd)
        out = wd / "out.csv"
        if check:
            same = proc.code == 0 and out.exists() and sha256_file(out) == info["ref_sha256"]
            mismatched += not same
        else:
            same = proc.code == 0
        run.op(same, f"{' '.join(argv[-6:])} exited {proc.code}: {proc.stdout[-300:]}")
        out.unlink(missing_ok=True)
        return proc

    plain = [sys.executable, "-m", "repro"]
    if not run.trace:
        setup = [timed(plain + command("one.csv"), False)
                 for _ in range(sizes["setup_repeats"])]
        procs = []
        deadline = time.perf_counter() + run.seconds
        while not procs or time.perf_counter() < deadline:
            procs.append(timed(plain + command("in.csv"), True))
        run.check("every out.csv byte-identical to the in-process reference", not mismatched)
        ops = [(run.adjust(proc.op()), proc.wall) for proc in procs]
        return {
            "setup_s": run.setup_median([run.adjust(p.op()) for p in setup],
                                        [p.wall for p in setup]),
            **timing_metrics(run, ops, sizes["csv_rows"], [a for a, _ in ops]),
            "peak_rss_mb": max(proc.rss_mb for proc in procs),
        }

    # Traced run: alternate untraced commands with in-process traced ones.
    untraced, traced = [], []
    deadline = time.perf_counter() + run.seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(timed(plain + command("in.csv"), True))
        spans_path = str(wd / f"spans{len(traced)}.json")
        proc = timed(
            [sys.executable, str(BENCH / "child.py"), "cli", json.dumps({"spans": spans_path})]
            + command("in.csv"),
            True,
        )
        with open(spans_path) as handle:
            traced.append((proc.wall, json.load(handle)))
    run.check("every out.csv byte-identical to the in-process reference", not mismatched)
    shutil.copy(spans_path + ".trace.json", run.trace_path)
    for proc in untraced:
        run.adjust(proc.op())  # records the probe for host.probe_ms

    def per_command(fn):
        return median([fn(wall, spans) for wall, spans in traced])

    def total(name):
        return per_command(lambda _w, s: s["total"].get(name, 0.0))

    run.extra["commands"] = (len(untraced) + len(traced), "count")
    return {
        "proc.import_s": total("proc.import"),
        "io.decode_s": total("io.decode"),
        "io.encode_s": total("io.encode"),
        "io.bytes_out": per_command(lambda _w, s: s["counts"].get("io.bytes_out", 0)),
        "io.scan_s": total("io.scan"),
        "io.shards": per_command(lambda _w, s: s["counts"].get("io.shards", 0)),
        "serve.load_s": total("serve.load"),
        "serve.transform_s": total("serve.transform"),
        "plan.apply_s": total("plan.apply"),
        "serve.rows_quarantined": per_command(lambda _w, s: s["rows_quarantined"]),
        "trace.overhead_s": median([w for w, _ in traced]) - median([p.wall for p in untraced]),
        "trace.coverage": per_command(lambda w, s: sum(s["self"].values()) / w),
    }


# ----------------------------------------------------------------------
# serve_batch: FeatureServer.transform on small frames, one caller
# ----------------------------------------------------------------------
def run_batch(run: Run) -> dict:
    sizes, wd = run.sizes, run.workdir
    run.plan_inputs(0)
    plan = str(wd / "plan.json")
    setup = run.setup_s("setup-batch", {"plan": plan}) if not run.trace else 0.0
    proc = child(
        "batch",
        {
            "plan": plan,
            "seed": run.seed,
            "groups": sizes["groups"],
            "batch_rows": sizes["batch_rows"],
            "frames": sizes["frames"],
            "seconds": run.seconds,
            "trace": run.trace,
            "spans": str(run.trace_path),
        },
        wd,
    )
    out = proc.json()
    run.attempted += out["batches"]
    run.failed += out["failed"] + out["mismatched"]
    run.check("no batch raised", out["failed"] == 0)
    run.check("every batch frames_identical to plan.apply", out["mismatched"] == 0)
    ops = [
        (run.adjust({"start": start, "end": start + wall, "wall": wall, "cpu": cpu}), wall)
        for start, wall, cpu in zip(out["starts"], out["walls"], out["cpus"])
    ]
    if not run.trace:
        return {
            "setup_s": setup,
            **timing_metrics(run, ops, sizes["batch_rows"], [a for a, _ in ops]),
            "peak_rss_mb": proc.rss_mb,
        }
    return {
        "proc.import_s": out["import_s"],
        "serve.load_s": out["load_s"],
        "serve.transform_s": out["transform_s"],
        "plan.apply_s": out["apply_s"],
        "serve.rows_quarantined": out["rows_quarantined"],
        "trace.overhead_s": out["overhead_s"],
        "trace.coverage": out["coverage"],
    }


# ----------------------------------------------------------------------
# fit: SmartFeat.fit_transform(compile_plan=True) over the nine datasets
# ----------------------------------------------------------------------
def run_fit(run: Run) -> dict:
    sizes = run.sizes
    cfg = {"seed": run.seed, "fm_scale": sizes["fm_scale"]}
    setup = run.setup_s("setup-fit", cfg) if not run.trace else 0.0
    proc = child(
        "fit",
        {
            **cfg,
            "rows": sizes["fit_rows"],
            "seconds": run.seconds,
            "trace": run.trace,
            "spans": str(run.trace_path),
        },
        run.workdir,
    )
    out = proc.json()
    every = out["passes"] + out["traced"]
    for tally in every:
        run.attempted += tally["fits"] + tally["calls_selector"] + tally["calls_generator"]
        run.failed += tally["failed_fits"] + tally["fm_errors"]
    problems = [p for tally in every for p in tally["problems"]]
    run.check(
        "every fit compiles 100%, replays bit-identically and matches the "
        "serial reference's accepted features",
        not problems,
        "; ".join(problems[:5]),
    )
    run.check("no FM call errored", not any(t["fm_errors"] for t in every))
    for tally in every:
        tally["adjusted"] = [run.adjust(op) for op in tally["ops"]]

    def calls(t):
        return t["calls_selector"] + t["calls_generator"]

    def pass_metrics(t):
        return {
            "fit_s": sum(t["walls"]),
            "fm_calls": calls(t),
            "fm_cost_usd": t["cost_usd"],
            "fm_calls_per_feature": calls(t) / max(t["accepted"], 1),
        }

    def over(passes, key):
        return median([pass_metrics(t)[key] for t in passes])

    run.extra["passes"] = (len(every), "count")
    if not run.trace:
        for key, unit in (("fit_s", "s"), ("fm_calls", "count"), ("fm_cost_usd", "USD"),
                          ("fm_calls_per_feature", "count")):
            run.extra[key] = (over(out["passes"], key), unit)
        ops = [op for t in out["passes"] for op in zip(t["adjusted"], t["walls"])]
        rows = median([t["rows"] for t in out["passes"]])
        pass_walls = [sum(t["adjusted"]) for t in out["passes"]]
        return {
            "setup_s": setup,
            **timing_metrics(run, ops, rows, pass_walls),
            "peak_rss_mb": proc.rss_mb,
        }
    traced = out["traced"]

    def med(fn):
        return median([fn(t) for t in traced])

    metrics = {
        "proc.import_s": out["import_s"],
        "serve.compile_s": med(lambda t: t["compile_s"]),
        "fm.wait_s": med(lambda t: t["wait_s"]),
        "fm.busy_s": med(lambda t: t["busy_s"]),
        "fm.batches": med(lambda t: t["batches"]),
        "fm.batch_width_mean": med(lambda t: t["batch_width_mean"]),
        "fm.retries": med(lambda t: t["retries"]),
        "fm.cache_hits": med(lambda t: t["cache_hits"]),
        "fm.calls.selector": med(lambda t: t["calls_selector"]),
        "fm.calls.generator": med(lambda t: t["calls_generator"]),
        "core.search_cpu_s": med(lambda t: t["fit_only_s"] - t["wait_s"]),
        "core.accept_ratio": med(lambda t: t["accepted"] / max(t["calls_generator"], 1)),
        "trace.overhead_s": over(traced, "fit_s") - over(out["passes"], "fit_s"),
        "trace.coverage": med(lambda t: t["self_s"] / sum(t["walls"])),
    }
    for stage in ("unary", "binary", "high_order", "extractor"):
        metrics[f"core.stage_s.{stage}"] = med(lambda t: t["stage_s"][stage])
    for key in ("fit_s", "fm_calls", "fm_cost_usd", "fm_calls_per_feature"):
        metrics[key] = over(traced, key)
    return metrics


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's source files (a checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, mode: str) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "cores": os.cpu_count(),
        "ram_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "mode": mode,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host_probe_reference_s": REFERENCE_S,
        "host_probe_elasticity": ELASTICITY,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_workload(args) -> int:
    mode = "quick" if args.quick else "full"
    records = BENCH / "records" / mode
    records.mkdir(parents=True, exist_ok=True)
    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Keep the workload, its children and the speedometer on one vCPU, whose
    # speed the speedometer then measures.  Serving runs one thread, and the
    # fit's CPU work is serialised by the GIL; its FM threads mostly sleep.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = Speedometer(workdir / "speed.log")
    run = Run(args, SIZES[mode], workdir, speed)
    run.trace_path = records / f"{args.workload}.spans.json"
    try:
        if args.workload == "serve_csv":
            metrics = run_cli(run, chunked=False)
        elif args.workload == "serve_csv_chunked":
            metrics = run_cli(run, chunked=True)
        elif args.workload == "serve_batch":
            metrics = run_batch(run)
        else:
            metrics = run_fit(run)
    finally:
        speed.close()
        shutil.rmtree(workdir, ignore_errors=True)

    host_probe_ms = median(run.probes) * 1e3
    metrics["host.probe_ms"] = host_probe_ms
    if not args.trace:
        run.extra["host_probe_ms"] = (host_probe_ms, "ms")
    table = PER_LAYER if args.trace else END_TO_END
    reported = {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit, _better in table
    }
    correct = run.failed == 0 and all(ok for _, ok, _ in run.checks)
    print(f"{args.workload} seed={args.seed} trace={args.trace} mode={mode}")
    for name, entry in reported.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in run.extra.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed}/{run.attempted})")
    for what in run.failures[:5]:
        print(f"  failed: {what}")
    for name, ok, detail in run.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f" — {detail}" if not ok and detail else ""))
    record = {
        "provenance": provenance(args, mode),
        "sizes": run.sizes,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / max(run.attempted, 1),
        "failures": run.failures,
        "metrics": reported,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in run.extra.items()},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
    }
    (records / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": reported,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--quick"] if args.quick else [])
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=3 * CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: outputs not correct")
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != units[trace]:
                problems.append(
                    f"{workload} trace={trace}: metrics/units differ from "
                    f"BENCHMARK.json: {sorted(set(got.items()) ^ set(units[trace].items()))}"
                )
    for problem in problems:
        print(f"FAIL {problem}")
    print("all workloads ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and 1 s runs: a smoke test of the benchmark")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.quick:
        args.seconds = min(args.seconds, 1)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
