"""The benchmark's child processes: everything that imports the program.

Run as ``python perfbench/child.py <command> '<json config>' [args...]``
with the program's ``src`` on ``PYTHONPATH``.  ``run.py`` starts one fresh
process per command and reads the JSON object printed as the last line of
standard output (``cli`` writes its spans to the file named in the config
instead, because the CLI itself prints).

Commands:
  serve-inputs  the demo plan; with ``csv_rows`` also the CSV inputs and
                the in-process ``to_csv(plan.apply(read_csv(in)))`` output
  cli           ``repro.cli.main`` with spans around the public functions
  setup-batch   imports + plan load + server build, timed
  setup-fit     imports + tool construction, timed
  batch         the serve_batch closed loop
  fit           the fit loop over the nine eval datasets
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path
from statistics import median

from spans import Tracer, write_chrome_trace


def emit(obj: dict) -> None:
    print(json.dumps(obj))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Serve inputs
# ----------------------------------------------------------------------
def serve_inputs(cfg: dict) -> None:
    from repro.dataframe.io import read_csv, to_csv
    from repro.eval.serving import build_demo_result, make_serving_frame
    from repro.serve import FeaturePlan, compile_plan

    out = Path(cfg["dir"])
    seed, groups = cfg["seed"], cfg["groups"]
    result, frame = build_demo_result(cfg["plan_rows"], seed=seed, n_groups=groups)
    plan = compile_plan(result, frame, "Target")
    plan.save(str(out / "plan.json"))
    counts = plan.counts()
    info = {"features": len(plan.features), **counts}
    if cfg["csv_rows"]:
        to_csv(
            make_serving_frame(cfg["csv_rows"], seed=seed + 1, n_groups=groups),
            out / "in.csv",
        )
        plan = FeaturePlan.load(str(out / "plan.json"))
        # The set-up command's one-row CSV must satisfy the plan's schema:
        # a row with a missing cell would read back as an empty column.
        for extra in range(100):
            to_csv(
                make_serving_frame(1, seed=seed + 2 + extra, n_groups=groups),
                out / "one.csv",
            )
            if not plan.schema_problems(read_csv(out / "one.csv")):
                break
        reference = plan.apply(read_csv(out / "in.csv"))
        to_csv(reference, out / "ref.csv")
        info["ref_sha256"] = sha256_file(out / "ref.csv")
        info["columns_in"] = len(frame.columns)
        info["columns_out"] = len(reference.columns)
    emit(info)


# ----------------------------------------------------------------------
# Traced CLI run
# ----------------------------------------------------------------------
def traced_cli(cfg: dict, argv: list[str]) -> int:
    tracer = Tracer()
    with tracer.span("proc.import"):
        import repro.cli
        import repro.dataframe
        from repro.dataframe import io
        from repro.serve import FeaturePlan, FeatureServer

    servers = []
    build_server = FeatureServer.__init__

    def capture(self, *args, **kwargs):
        build_server(self, *args, **kwargs)
        servers.append(self)

    encode = io.to_csv

    def traced_encode(frame, path, *args, **kwargs):
        append = kwargs.get("append", False) and os.path.exists(path)
        before = os.path.getsize(path) if append else 0
        with tracer.span("io.encode"):
            encode(frame, path, *args, **kwargs)
        tracer.count("io.bytes_out", os.path.getsize(path) - before)

    decode = tracer.wrap("io.decode", io.read_csv)
    tracer.patch(FeatureServer, "__init__", capture)
    tracer.patch(repro.dataframe, "read_csv", decode)
    tracer.patch(io, "read_csv", decode)
    tracer.patch(
        io, "read_csv_shards", tracer.wrap_iter("io.decode", io.read_csv_shards, "io.shards")
    )
    tracer.patch(io, "scan_csv_kinds", tracer.wrap("io.scan", io.scan_csv_kinds))
    tracer.patch(io, "to_csv", traced_encode)
    tracer.patch(FeaturePlan, "load", staticmethod(tracer.wrap("serve.load", FeaturePlan.load)))
    tracer.patch(
        FeatureServer,
        "transform_with_report",
        tracer.wrap("serve.transform", FeatureServer.transform_with_report),
    )
    tracer.patch(FeaturePlan, "apply", tracer.wrap("plan.apply", FeaturePlan.apply))
    try:
        with tracer.span("cli.main"):
            code = repro.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.unpatch()
    spans = tracer.by_op().get(0, {"total": {}, "self": {}})
    with open(cfg["spans"], "w") as handle:
        json.dump(
            {
                **spans,
                "counts": tracer.counts,
                "rows_quarantined": sum(s.stats()["rows_quarantined"] for s in servers),
            },
            handle,
        )
    write_chrome_trace(cfg["spans"] + ".trace.json", tracer.chrome_events())
    return code


# ----------------------------------------------------------------------
# Set-up timing (each runs in a fresh process)
# ----------------------------------------------------------------------
def emit_setup(start: float, cpu_start: float) -> None:
    end = time.perf_counter()
    emit({"start": start, "end": end, "wall": end - start,
          "cpu": time.process_time() - cpu_start})


def setup_batch(cfg: dict) -> None:
    start, cpu_start = time.perf_counter(), time.process_time()
    from repro.serve import FeaturePlan, FeatureServer

    FeatureServer(plan=FeaturePlan.load(cfg["plan"]))
    emit_setup(start, cpu_start)


def setup_fit(cfg: dict) -> None:
    start, cpu_start = time.perf_counter(), time.process_time()
    from repro.core import SmartFeat

    from fmsim import SleepyFM
    from repro.fm.executor import ThreadPoolFMExecutor

    with ThreadPoolFMExecutor(2) as executor:
        SmartFeat(
            SleepyFM(seed=cfg["seed"], model="gpt-4", scale=cfg["fm_scale"]),
            function_fm=SleepyFM(
                seed=cfg["seed"] + 1, model="gpt-3.5-turbo", scale=cfg["fm_scale"]
            ),
            executor=executor,
            wave_size=2,
            compile_plan=True,
        )
        emit_setup(start, cpu_start)


# ----------------------------------------------------------------------
# serve_batch: one in-process caller, closed loop
# ----------------------------------------------------------------------
def batch(cfg: dict) -> None:
    start = time.perf_counter()
    from repro.eval.serving import make_serving_frame
    from repro.serve import FeaturePlan, FeatureServer, frames_identical

    import_s = time.perf_counter() - start
    frames = [
        make_serving_frame(
            cfg["batch_rows"], seed=cfg["seed"] * 1000 + 3 + i, n_groups=cfg["groups"]
        )
        for i in range(cfg["frames"])
    ]
    start = time.perf_counter()
    plan = FeaturePlan.load(cfg["plan"])
    load_s = time.perf_counter() - start
    server = FeatureServer(plan=plan)
    expected = [plan.apply(frame) for frame in frames]
    for frame in frames:  # let lazy set-up finish before timing
        server.transform(frame)

    def fresh() -> dict:
        return {"starts": [], "walls": [], "cpus": [], "failed": 0, "mismatched": 0}

    tally = {False: fresh(), True: fresh()}
    tracer = Tracer()

    def loop(seconds: float, traced: bool) -> None:
        """Serve batches for *seconds*, recording each one's start, wall
        and CPU time for the host-speed adjustment."""
        into = tally[traced]
        deadline = time.perf_counter() + seconds
        first = len(into["walls"])
        while len(into["walls"]) == first or time.perf_counter() < deadline:
            i = len(into["walls"])
            frame, want = frames[i % len(frames)], expected[i % len(frames)]
            tracer.op = i
            begin, cpu_begin = time.perf_counter(), time.process_time()
            try:
                out = server.transform(frame)
            except Exception:  # a raised batch is a counted failure
                out = None
            wall = time.perf_counter() - begin
            cpu = time.process_time() - cpu_begin
            into["starts"].append(begin)
            into["cpus"].append(cpu)
            if out is None:
                into["failed"] += 1
                into["walls"].append(float("inf"))
                continue
            into["walls"].append(wall)
            # Outside the timed call: every result against plan.apply.
            if not frames_identical(out, want)[0]:
                into["mismatched"] += 1

    if not cfg["trace"]:
        loop(cfg["seconds"], False)
    else:
        # Alternate untraced and traced blocks so drift in machine speed
        # falls on both sides of the overhead estimate alike.
        deadline = time.perf_counter() + cfg["seconds"]
        while not tally[True]["walls"] or time.perf_counter() < deadline:
            loop(1.0, False)
            tracer.patch(
                FeatureServer,
                "transform_with_report",
                tracer.wrap("serve.transform", FeatureServer.transform_with_report),
            )
            tracer.patch(FeaturePlan, "apply", tracer.wrap("plan.apply", FeaturePlan.apply))
            try:
                loop(1.0, True)
            finally:
                tracer.unpatch()
    plain, traced = tally[False], tally[True]
    result = {
        "import_s": import_s,
        "load_s": load_s,
        "batches": len(plain["walls"]) + len(traced["walls"]),
        "starts": plain["starts"],
        "walls": plain["walls"],
        "cpus": plain["cpus"],
        "failed": plain["failed"] + traced["failed"],
        "mismatched": plain["mismatched"] + traced["mismatched"],
    }
    if cfg["trace"]:
        ops = tracer.by_op()
        per_op = [(ops[i], wall) for i, wall in enumerate(traced["walls"]) if i in ops]
        result.update(
            transform_s=median([op["total"].get("serve.transform", 0.0) for op, _ in per_op]),
            apply_s=median([op["total"].get("plan.apply", 0.0) for op, _ in per_op]),
            coverage=median([sum(op["self"].values()) / wall for op, wall in per_op]),
            overhead_s=median(traced["walls"]) - median(plain["walls"]),
            rows_quarantined=server.stats()["rows_quarantined"],
        )
        write_chrome_trace(cfg["spans"], tracer.chrome_events())
    emit(result)


# ----------------------------------------------------------------------
# fit: SmartFeat.fit_transform over the nine eval datasets
# ----------------------------------------------------------------------
_STAGES = ("unary", "binary", "high_order", "extractor")


def _bundle(name: str, rows: int, seed: int) -> dict:
    from repro.datasets import load_dataset
    from repro.datasets.synth import make_synthetic_bundle

    if name == "synthetic":
        raw = make_synthetic_bundle(rows, seed=seed)
        return {
            "frame": raw["frame"],
            "target": raw["target"],
            "descriptions": raw["descriptions"],
            "title": raw["title"],
            "target_description": raw.get("target_description", ""),
        }
    loaded = load_dataset(name, seed=seed, n_rows=rows)
    return {
        "frame": loaded.frame,
        "target": loaded.target,
        "descriptions": loaded.descriptions,
        "title": loaded.title,
        "target_description": loaded.target_description,
    }


def _digest(result) -> str:
    accepted = [
        [name, feature.output_columns, feature.source_code]
        for name, feature in result.new_features.items()
    ]
    return hashlib.sha256(
        json.dumps([accepted, result.dropped]).encode()
    ).hexdigest()


def fit(cfg: dict) -> None:
    start = time.perf_counter()
    from repro.core import SmartFeat
    from repro.eval.serving import ALL_DATASETS
    from repro.fm import SimulatedFM
    from repro.fm.executor import SerialExecutor, ThreadPoolFMExecutor
    from repro.serve import frames_identical

    from fmsim import SleepyFM, TimedExecutor

    import_s = time.perf_counter() - start
    seed, scale = cfg["seed"], cfg["fm_scale"]
    bundles = [(name, _bundle(name, cfg["rows"], seed)) for name in ALL_DATASETS]
    # The reference digests come from the serial executor with no latency:
    # swapping backends must never change which features are accepted.
    reference = {}
    for name, bundle in bundles:
        tool = SmartFeat(
            SimulatedFM(seed=seed, model="gpt-4"),
            function_fm=SimulatedFM(seed=seed + 1, model="gpt-3.5-turbo"),
            executor=SerialExecutor(),
            wave_size=2,
        )
        reference[name] = _digest(tool.fit_transform(**bundle))

    def one_pass(tracer: Tracer | None) -> dict:
        executor = ThreadPoolFMExecutor(2) if tracer is None else TimedExecutor(2, tracer)
        tally = {
            "ops": [], "walls": [],
            "failed_fits": 0, "fits": 0, "rows": 0, "accepted": 0,
            "calls_selector": 0, "calls_generator": 0, "cost_usd": 0.0,
            "busy_s": 0.0, "compile_s": 0.0, "fit_only_s": 0.0,
            "stage_s": {stage: 0.0 for stage in _STAGES}, "problems": [],
        }
        try:
            for name, bundle in bundles:
                selector = SleepyFM(seed=seed, model="gpt-4", scale=scale)
                generator = SleepyFM(seed=seed + 1, model="gpt-3.5-turbo", scale=scale)
                tool = SmartFeat(
                    selector,
                    function_fm=generator,
                    executor=executor,
                    wave_size=2,
                    compile_plan=tracer is None,
                )
                tally["fits"] += 1
                begin, cpu_begin = time.perf_counter(), time.process_time()
                try:
                    if tracer is None:
                        result = tool.fit_transform(**bundle)
                    else:
                        with tracer.span("core.fit"):
                            result = tool.fit_transform(**bundle)
                        fit_end = time.perf_counter()
                        with tracer.span("serve.compile"):
                            result.plan = tool.export_plan(
                                result, bundle["frame"], bundle["target"]
                            )
                        tally["compile_s"] += time.perf_counter() - fit_end
                        tally["fit_only_s"] += fit_end - begin
                except Exception as exc:  # a raised fit is a counted failure
                    tally["failed_fits"] += 1
                    tally["problems"].append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                end = time.perf_counter()
                cpu = time.process_time() - cpu_begin
                tally["walls"].append(end - begin)
                tally["ops"].append({"start": begin, "end": end, "wall": end - begin, "cpu": cpu})
                tally["rows"] += len(bundle["frame"])
                tally["accepted"] += len(result.new_features)
                tally["calls_selector"] += selector.ledger.n_calls
                tally["calls_generator"] += generator.ledger.n_calls
                tally["cost_usd"] += selector.ledger.cost_usd + generator.ledger.cost_usd
                tally["busy_s"] += selector.busy_s + generator.busy_s
                dataplane = result.fm_usage["execution"]["dataplane"]
                for stage in _STAGES:
                    tally["stage_s"][stage] += dataplane.get(f"{stage}_stage", {}).get(
                        "seconds", 0.0
                    )
                # Outside the timed call: full compile, bit-identical
                # replay, and the same accepted features as the reference.
                counts = result.plan.counts()
                problem = ""
                if counts["compiled"] != len(result.plan.features):
                    problem = f"plan not fully compiled {counts}"
                elif not frames_identical(result.plan.apply(bundle["frame"]), result.frame)[0]:
                    problem = "plan replay differs from the fit frame"
                elif _digest(result) != reference[name]:
                    problem = "accepted features differ from the serial reference"
                if problem:
                    tally["failed_fits"] += 1
                    tally["problems"].append(f"{name}: {problem}")
            stats = executor.stats
            tally.update(
                fm_errors=stats.n_errors,
                retries=stats.n_retries,
                cache_hits=stats.cache_hits,
            )
            if tracer is not None:
                tally.update(
                    wait_s=executor.wait_s,
                    batches=executor.batches,
                    batch_width_mean=executor.requests / max(executor.batches, 1),
                )
        finally:
            executor.close()
        return tally

    trace = cfg["trace"]
    passes, traced = [], []
    tracer = Tracer()
    deadline = time.perf_counter() + cfg["seconds"]
    # A traced run alternates untraced and traced passes, so drift in
    # machine speed falls on both sides of the overhead estimate alike.
    while not passes or time.perf_counter() < deadline:
        passes.append(one_pass(None))
        if trace:
            tracer.op = len(traced)
            traced.append(one_pass(tracer))
    if trace:
        ops = tracer.by_op()
        for op, tally in enumerate(traced):
            tally["self_s"] = sum(ops.get(op, {"self": {}})["self"].values())
        write_chrome_trace(cfg["spans"], tracer.chrome_events())
    emit({"import_s": import_s, "passes": passes, "traced": traced})


def main(argv: list[str]) -> int:
    command, cfg = argv[0], json.loads(argv[1])
    if command == "cli":
        return traced_cli(cfg, argv[2:])
    handlers = {
        "serve-inputs": serve_inputs,
        "setup-batch": setup_batch,
        "setup-fit": setup_fit,
        "batch": batch,
        "fit": fit,
    }
    handlers[command](cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
