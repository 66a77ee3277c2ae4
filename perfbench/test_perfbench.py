"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They check that BENCHMARK.json names exactly the metrics the script
prints, that deterministic counts repeat exactly for one seed and that a
different seed changes the schedule-dependent ones, that the span
analysis is right, and that the script refuses to run without a program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from harness import (  # noqa: E402
    BATCH_SECONDS,
    REF_SECONDS,
    Checks,
    Context,
    Inputs,
    ReferenceClock,
    reference_chain,
)
from spans import Span, SpanRecorder, self_time_table, self_times_ns  # noqa: E402


def test_benchmark_json_names_every_printed_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert "setup_s" in run.E2E


def counts_of(workload: str, seed: int) -> dict:
    """Deterministic counts of one minimal run: set-up plus one cycle."""
    with tempfile.TemporaryDirectory() as workdir:
        ctx = Context(Inputs.from_seed(seed), Checks(), workdir, str(ROOT))
        bench = run.make_workload(workload, ctx)
        try:
            bench.setup()
            bench.warmup()
            measured = bench.measure(0.0)
        finally:
            bench.teardown()
            run.stop_helpers()
        assert ctx.checks.failed == 0, ctx.checks.messages
        return measured.counts


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_for_one_seed(workload):
    first = counts_of(workload, 7)
    assert first
    assert counts_of(workload, 7) == first


def test_seed_changes_schedule_dependent_counts():
    one, other = counts_of("record", 7), counts_of("record", 8)
    # compute_heavy is one process: its schedule cannot change.
    for key in ("steps", "log_bytes", "context_switches"):
        assert one["compute_heavy"][key] == other["compute_heavy"][key]
    changed = [
        (name, key)
        for name in ("bank_safe", "producer_consumer", "ring8", "ring48")
        for key in ("context_switches", "log_bytes", "record_bytes")
        if one[name][key] != other[name][key]
    ]
    assert changed


def test_inputs_follow_the_seed():
    assert Inputs.from_seed(3) == Inputs.from_seed(3)
    assert Inputs.from_seed(3) != Inputs.from_seed(4)


def _span(sid, start, end, parent=0, name="core.emulation.replay"):
    return Span(sid, name, "", start, end, parent, 1)


def fake_samples(monkeypatch, *seconds):
    """Make the clock's samples take these times, the same for both
    halves, so that a factor is REF over the mean of two of them."""
    samples = iter([(t * REF_SECONDS[0], t * REF_SECONDS[1]) for t in seconds])
    monkeypatch.setattr(ReferenceClock, "_sample", lambda self: next(samples))


def test_reference_clock_scales_by_the_samples_around_the_work(monkeypatch):
    fake_samples(monkeypatch, 2.0, 2.4, 0.8)
    clock = ReferenceClock()
    # The loop took 2x its reference time before the work and 2.4x after
    # it: the machine ran at 1 / 2.2 of the reference speed.
    assert clock.factor() == pytest.approx(1 / 2.2)
    # The 'after' sample is the next interval's 'before'.
    assert clock.factor() == pytest.approx(1 / 1.6)
    assert len(clock.factors) == 2


def test_reference_clock_takes_the_geometric_mean_of_the_halves(monkeypatch):
    samples = iter([(REF_SECONDS[0], 4 * REF_SECONDS[1])] * 2)
    monkeypatch.setattr(ReferenceClock, "_sample", lambda self: next(samples))
    assert ReferenceClock().factor() == pytest.approx(0.5)


def test_reference_clock_scales_short_calls_in_batches(monkeypatch):
    fake_samples(monkeypatch, 2.0, 2.4, 1.2)
    clock = ReferenceClock()
    times: list[float] = []
    clock.add(BATCH_SECONDS / 4, times)
    clock.add(BATCH_SECONDS / 4, times)
    assert times == [BATCH_SECONDS / 4] * 2 and not clock.factors
    clock.add(BATCH_SECONDS / 2, times)  # the batch is full: one sample
    factor = 1 / 2.2
    assert times == pytest.approx([BATCH_SECONDS / 4 * factor] * 2 + [BATCH_SECONDS / 2 * factor])
    every: list[float] = []
    clock.add(0.001, times, every)
    clock.flush()
    assert times[-1] == every[-1] == pytest.approx(0.001 / 1.8)
    clock.flush()  # nothing pending: no sample taken
    assert len(clock.factors) == 2


def test_reference_chain_is_one_cycle_through_every_index():
    chain = reference_chain(1000)
    seen, at = set(), 0
    for _ in range(1000):
        seen.add(at)
        at = chain[at]
    assert at == 0 and len(seen) == 1000


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(1, 0, 100, name="core.controller.expand_interval"),
        _span(2, 10, 40, parent=1),
        _span(3, 30, 60, parent=1),  # overlaps span 2: covered once
        _span(4, 70, 80, parent=1, name="core.dynamic_graph.add_events"),
    ]
    selfs = self_times_ns(spans)
    assert selfs[1] == 100 - 50 - 10
    assert selfs[2] == 30
    rows = {row.layer: row for row in self_time_table(spans, wall_ns=120)}
    assert rows["core.controller"].self_ms == pytest.approx(40 / 1e6)
    assert rows["core.emulation"].self_ms == pytest.approx(60 / 1e6)
    assert rows["(outside spans)"].self_ms == pytest.approx(20 / 1e6)


def test_recorder_nests_spans_and_exports_chrome_trace(tmp_path):
    from spans import write_chrome_trace

    recorder = SpanRecorder()
    with recorder.span("bench.outer"):
        recorder.call("core.flowback.why_value", lambda: None, (), {})
    inner, outer = recorder.spans
    assert inner.parent == outer.sid and outer.parent == 0
    path = tmp_path / "trace.json"
    write_chrome_trace(recorder.spans, recorder.origin_ns, str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["name"] for e in events} == {"bench.outer", "core.flowback.why_value"}
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "record", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
