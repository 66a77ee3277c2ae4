"""The PPD benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload record --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is imported from
``src/`` there and driven only through its public entry points, with
every default as shipped.  The workloads (``record``, ``debug``,
``replay``, ``serve``) are described in their ``wl_*.py`` modules and in
``perfbench/README.md``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced for half the time and traced for the other half, and
prints the per-layer metrics, a per-layer self-time table and
``trace.overhead_ratio``; it also writes Chrome trace-event JSON under
``.perfbench/``.  Human-readable lines go first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("record", "debug", "replay", "serve")

#: End-to-end metrics, reported by every workload with --trace 0.
E2E = ("setup_s", "peak_rss_mb", "throughput_per_s", "latency_ms")

PROGRAMS = ("compute_heavy", "bank_safe", "producer_consumer", "bank_race", "ring8", "ring48")
RECORD_PROGRAMS = ("compute_heavy", "bank_safe", "producer_consumer", "ring8", "ring48")
DEBUG_PROGRAMS = ("compute_heavy", "bank_race", "ring48")

#: Layers whose self time per unit of work the traced run reports.
SELF_LAYERS = (
    "lang", "compiler", "runtime.machine", "runtime.persist", "core.controller",
    "core.parallel_graph", "core.emulation", "core.dynamic_graph", "core.flowback",
    "core.races", "analysis.racecands", "analysis.localize", "perf.cache", "perf.pool",
    "core.cli", "server", "bench",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = []
    for prog in PROGRAMS:
        names.append((f"lang.parse_ms.{prog}", "ms"))
        names.append((f"compiler.compile_ms.{prog}", "ms"))
    for prog in RECORD_PROGRAMS:
        names += [
            (f"runtime.run_logged_ms.{prog}", "ms"),
            (f"runtime.run_plain_ms.{prog}", "ms"),
            (f"runtime.us_per_step.{prog}", "us"),
            (f"runtime.logging_ms.{prog}", "ms"),
            (f"runtime.steps.{prog}", "count"),
            (f"runtime.log_bytes.{prog}", "B"),
            (f"runtime.sync_events.{prog}", "count"),
            (f"runtime.context_switches.{prog}", "count"),
        ]
    names.append(("runtime.step_cost_growth", "ratio"))
    names += [(f"runtime.persist.load_ms.{prog}", "ms") for prog in DEBUG_PROGRAMS]
    names.append(("runtime.persist.save_ms", "ms"))
    names += [(f"runtime.persist.record_bytes.{prog}", "B") for prog in PROGRAMS]
    names += [
        ("core.session_open_ms", "ms"), ("core.start_ms", "ms"),
        ("core.emulation.replay_ms", "ms"), ("core.events_regenerated", "count"),
        ("core.dynamic_graph.add_events_ms", "ms"),
        ("core.dynamic_graph.add_sync_edges_ms", "ms"),
        ("core.sync_edge_useful_ratio", "ratio"),
        ("core.graph_nodes", "count"), ("core.graph_edges", "count"),
        ("core.flowback_ms", "ms"), ("core.races_ms", "ms"),
        ("analysis.race_candidates_ms", "ms"), ("analysis.localize_ms", "ms"),
        ("core.races_found", "count"),
        ("perf.cache.hits", "count"), ("perf.cache.misses", "count"),
        ("perf.cache.hit_ratio", "ratio"),
        ("perf.pool.start_ms", "ms"), ("perf.pool.batch_ms", "ms"), ("perf.pool.worker_s", "s"),
        ("perf.pool.parallel_efficiency", "ratio"), ("perf.pool.chunks", "count"),
        ("perf.pool.bytes_shipped", "B"), ("perf.pool.fallbacks", "count"),
    ]
    names += [(f"server.{verb}_ms_p50", "ms")
              for verb in ("open", "where", "why", "expand", "races", "localize", "close")]
    names += [("server.requests", "count"), ("server.request_errors", "count")]
    names += [(f"self_ms.{layer}", "ms") for layer in SELF_LAYERS]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``
    from there; raise SystemExit(2) when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src) + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def make_workload(name: str, ctx):
    if name == "record":
        from wl_record import RecordWorkload
        return RecordWorkload(ctx)
    if name == "debug":
        from wl_debug import DebugWorkload
        return DebugWorkload(ctx)
    if name == "replay":
        from wl_replay import ReplayWorkload
        return ReplayWorkload(ctx)
    from wl_serve import ServeWorkload
    return ServeWorkload(ctx)


def stop_helpers() -> None:
    """Wait for every child process: pool workers, then the resource
    tracker that ``multiprocessing`` starts for shared memory."""
    from multiprocessing import resource_tracker

    from wl_replay import reap_children

    reap_children()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------


def run_untraced(workload, ctx, seconds: float):
    from harness import MAX_SETUPS, SETUP_SECONDS, SETUPS, median, peak_rss_mb

    setup_times: list[float] = []
    while len(setup_times) < SETUPS or (
            sum(setup_times) < SETUP_SECONDS and len(setup_times) < MAX_SETUPS):
        if setup_times:
            workload.teardown()
        ctx.clock.reset()
        started = time.perf_counter()
        workload.setup()
        setup_times.append((time.perf_counter() - started) * ctx.clock.factor())
    workload.warmup()
    m = workload.measure(seconds)
    workload.teardown()
    stop_helpers()
    metrics = {"setup_s": (median(setup_times), "s"), "peak_rss_mb": (peak_rss_mb(), "MB")}
    metrics.update(m.e2e)
    notes = {"setup_s": f"median of {len(setup_times)} set-ups",
             "peak_rss_mb": "this process + largest child"}
    return m, metrics, notes


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------


def _median_ms(spans, name, tag=None, self_time=False):
    from harness import median
    from spans import self_times_ns

    chosen = [s for s in spans if s.name == name and (tag is None or s.tag == tag)]
    if not chosen:
        return None
    if self_time:
        selfs = self_times_ns(spans)
        return median(selfs[s.sid] / 1e6 for s in chosen)
    return median(s.ms for s in chosen)


def span_metrics(setup_spans, phase_spans, m) -> dict[str, float]:
    """Per-layer metrics read off the spans."""
    every = setup_spans + phase_spans
    out: dict[str, float] = {}

    def put(metric, value):
        if value is not None:
            out[metric] = value

    for prog in PROGRAMS:
        put(f"lang.parse_ms.{prog}", _median_ms(every, "lang.parse", prog))
        # compile_program's own time and the analyses it runs, not parsing
        put(f"compiler.compile_ms.{prog}",
            _median_ms(every, "compiler.compile_program", prog, self_time=True))
    for prog in DEBUG_PROGRAMS:
        put(f"runtime.persist.load_ms.{prog}",
            _median_ms(phase_spans, "runtime.persist.load_record", prog))
    put("runtime.persist.save_ms", _median_ms(every, "runtime.persist.save_record"))
    put("core.emulation.replay_ms", _median_ms(phase_spans, "core.emulation.replay"))
    put("core.dynamic_graph.add_events_ms",
        _median_ms(phase_spans, "core.dynamic_graph.add_events"))
    put("core.dynamic_graph.add_sync_edges_ms",
        _median_ms(phase_spans, "core.dynamic_graph.add_sync_edges"))
    put("core.flowback_ms", _median_ms(phase_spans, "core.flowback.why_value"))
    put("core.races_ms", _median_ms(phase_spans, "core.races.find_races_indexed"))
    put("analysis.race_candidates_ms",
        _median_ms(phase_spans, "analysis.racecands.candidates_from_compiled"))
    put("analysis.localize_ms", _median_ms(phase_spans, "analysis.localize.localize_graph"))
    put("perf.pool.start_ms", _median_ms(phase_spans, "perf.pool.start"))
    attempts = sum(s.value or 0 for s in phase_spans
                   if s.name == "core.dynamic_graph.add_sync_edges")
    if attempts:
        out["core.sync_edge_useful_ratio"] = m.totals.get("distinct_sync_edges", 0) / attempts
    return out


def run_traced(workload, ctx, seconds: float):
    from spans import Instrumentation, SpanRecorder, self_time_table

    recorder = SpanRecorder()
    skipped: set[str] = set()

    def traced(fn, *args):
        instrumentation = Instrumentation(recorder)
        ctx.recorder = recorder
        instrumentation.install()
        try:
            return fn(*args)
        finally:
            instrumentation.remove()
            ctx.recorder = None
            skipped.update(instrumentation.skipped)

    traced(workload.setup)
    setup_spans = list(recorder.spans)
    workload.warmup()
    reference = workload.measure(seconds / 2)
    started = time.perf_counter_ns()
    m = traced(workload.measure, seconds / 2)
    wall_ns = time.perf_counter_ns() - started
    phase_spans = recorder.spans[len(setup_spans):]
    workload.teardown()
    stop_helpers()

    values: dict[str, float] = {name: value for name, (value, _) in m.layer.items()}
    values.update(span_metrics(setup_spans, phase_spans, m))
    rows = self_time_table(phase_spans, wall_ns)
    by_layer = {row.layer: row for row in rows}
    for layer in SELF_LAYERS:
        row = by_layer.get(layer)
        values[f"self_ms.{layer}"] = row.self_ms / m.units if row is not None and m.units else 0.0
    # Throughput untraced / traced: how much the spans slow the workload.
    untraced, traced_ = (x.e2e.get("throughput_per_s", (0.0,))[0] for x in (reference, m))
    values["trace.overhead_ratio"] = untraced / traced_ if traced_ else 0.0
    return m, values, rows, recorder, len(setup_spans), sorted(skipped), wall_ns


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    from harness import Checks, Context, Inputs

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir)
    # Temporary files of this process and its children (the server's
    # session spool) stay inside the checkout and go with the workdir.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = None
    ctx = Context(Inputs.from_seed(args.seed), Checks(), workdir, str(ROOT))
    workload = make_workload(args.workload, ctx)
    title = (f"# perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.trace:
            m, values, rows, recorder, phase_start, skipped, wall_ns = run_traced(
                workload, ctx, args.seconds)
        else:
            m, metrics, notes = run_untraced(workload, ctx, args.seconds)
    finally:
        workload.teardown()
        stop_helpers()
        shutil.rmtree(workdir, ignore_errors=True)

    checks = ctx.checks
    print(title)
    for name, (value, unit, note) in m.report.items():
        print(f"{name:<28} {value:>14.6g} {unit:<9} {note}")
    print(f"{'error_rate':<28} {checks.error_rate:>14.6g} {'ratio':<9} "
          f"{checks.failed} failed / {checks.attempted} attempted")
    factors = ctx.clock.factors
    print(f"{'machine_speed':<28} {statistics.median(factors):>14.6g} {'ratio':<9} "
          f"reference speed = 1; min {min(factors):.3g} max {max(factors):.3g}, "
          f"n={len(factors)} samples; the timings above are at the reference speed")
    print("counts: " + json.dumps(m.counts, sort_keys=True))
    for message in checks.messages:
        print(f"FAILED: {message}")

    if checks.attempted == 0:
        print("error: no operation was attempted", file=sys.stderr)
        return 1
    if args.trace:
        from spans import render_table, tag_tables, write_chrome_trace

        tables = [render_table(rows, f"self time over the traced phase "
                                     f"({wall_ns / 1e9:.2f} s, {m.units} units of work)")]
        phase_spans = recorder.spans[phase_start:]
        for tag, tag_rows in tag_tables(phase_spans).items():
            tables.append(render_table(tag_rows, f"self time of the {tag} work"))
        table = "\n\n".join(tables)
        print(table)
        if skipped:
            print("not traced (missing in this tree): " + ", ".join(skipped))
        stem = out_dir / f"{args.workload}-seed{args.seed}"
        write_chrome_trace(recorder.spans, recorder.origin_ns, f"{stem}.trace.json")
        Path(f"{stem}.layers.txt").write_text(table + "\n")
        print(f"chrome trace: {stem}.trace.json")
        result_metrics = {}
        for name, unit in per_layer_names():
            value = float(values.get(name, 0.0))
            result_metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<44} {value:>14.6g} {unit}")
    else:
        missing = [name for name in E2E if name not in metrics]
        if missing:
            print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
            return 1
        result_metrics = {}
        for name in E2E:
            value, unit = metrics[name]
            result_metrics[name] = {"value": float(value), "unit": unit}
            print(f"{name:<28} {value:>14.6g} {unit:<9} {notes.get(name, '')}")

    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
