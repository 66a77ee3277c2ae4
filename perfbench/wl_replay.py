"""``replay``: bulk ``ppd replay FILE`` over the debug workload's three
saved records, with the command's default pool.

Each call is timed as a user sees it: loading the record, starting the
worker pool, re-executing every interval and letting the workers exit.
Without this workload ``perf.pool``, ``perf.shm`` and ``perf.wire`` would
go unmeasured; it also drives the emulation layer as batch throughput
instead of one expansion at a time.
"""

from __future__ import annotations

import contextlib
import io
import multiprocessing
import re
import time

from harness import Context, Measurement, Program, attempt, geomean, median
from wl_debug import all_intervals, make_records

ROUND = re.compile(
    r"round 1: replayed (\d+) interval\(s\) with --jobs (\d+): (\d+) events in ([\d.]+)s")
POOL = re.compile(
    r"pool: executed=(\d+) chunks=(\d+) transport=(\S+) bytes_shipped=(\d+) "
    r"fallbacks=(\d+) worker_seconds=([\d.]+);.* cache: hits=(\d+) misses=(\d+)")


def reap_children(timeout: float = 60.0) -> None:
    """Wait until every worker process this process started has exited."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.002)


def serial_expansion(path: str) -> tuple[int, int]:
    """(intervals, events) of a serial session that expands every interval:
    what the debug workload's sessions regenerate."""
    from repro import PPDSession
    from repro.runtime import load_record

    session = PPDSession(load_record(path))
    intervals = all_intervals(session)
    for pid, interval_id in intervals:
        session.expand_interval(pid, interval_id)
    return len(intervals), session.events_generated


class ReplayWorkload:
    name = "replay"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.records: list[tuple[Program, str]] = []
        #: program -> (intervals, events) of the serial expansion
        self.expected: dict[str, tuple[int, int]] = {}

    def setup(self) -> None:
        self.records = make_records(self.ctx)

    def teardown(self) -> None:
        pass

    def warmup(self) -> None:
        """Compute the oracle event counts (untimed) and make one call on the
        smallest record, so the pool's first-use costs stay out of the
        window."""
        import repro.perf

        for program, path in self.records:
            if program.name not in self.expected:
                repro.perf.reset()
                ok, value, _ = attempt(self.ctx.checks, f"{program.name}: serial expansion",
                                       lambda: serial_expansion(path))
                if ok:
                    self.expected[program.name] = value
        repro.perf.reset()
        program, path = self.records[0]
        self.call(program, path)

    def call(self, program: Program, path: str):
        """One ``ppd replay`` call; returns (seconds, parsed figures) or
        (seconds, None) when it failed."""
        from repro.core.cli import main as ppd_main

        ctx = self.ctx
        buffer = io.StringIO()

        def run():
            with contextlib.redirect_stdout(buffer):
                code = ppd_main(["replay", path])
            reap_children()
            if code != 0:
                raise RuntimeError(f"ppd replay exited {code}: {buffer.getvalue()!r}")
            return buffer.getvalue()

        ctx.tag(program.name)
        with ctx.span("core.cli.replay"):
            ok, text, seconds = attempt(ctx.checks, f"ppd replay {program.name}", run)
        ctx.tag("")
        if not ok:
            return seconds, None
        round_match, pool_match = ROUND.search(text), POOL.search(text)
        if not ctx.checks.expect(round_match is not None and pool_match is not None,
                                 f"ppd replay {program.name}: unreadable output {text!r}"):
            return seconds, None
        figures = {
            "intervals": int(round_match.group(1)),
            "jobs": int(round_match.group(2)),
            "events": int(round_match.group(3)),
            "batch_s": float(round_match.group(4)),
            "executed": int(pool_match.group(1)),
            "chunks": int(pool_match.group(2)),
            "transport": pool_match.group(3),
            "bytes_shipped": int(pool_match.group(4)),
            "fallbacks": int(pool_match.group(5)),
            "worker_s": float(pool_match.group(6)),
            "cache_hits": int(pool_match.group(7)),
            "cache_misses": int(pool_match.group(8)),
        }
        expected = self.expected.get(program.name)
        ctx.checks.expect(
            expected == (figures["intervals"], figures["events"]),
            f"ppd replay {program.name}: {figures['intervals']} intervals / "
            f"{figures['events']} events, serial expansion gave {expected}")
        return seconds, figures

    def measure(self, seconds: float) -> Measurement:
        ctx = self.ctx
        times: dict[str, list[float]] = {p.name: [] for p, _ in self.records}
        figures: dict[str, list[dict]] = {p.name: [] for p, _ in self.records}
        deadline = time.perf_counter() + seconds
        calls = 0
        ctx.clock.reset()
        # At least one whole cycle; the rates use per-record medians, so a
        # cycle cut short by the deadline does not tilt them.
        while calls < len(self.records) or time.perf_counter() < deadline:
            program, path = self.records[calls % len(self.records)]
            call_s, result = self.call(program, path)
            factor = ctx.clock.factor()
            if result is not None:
                times[program.name].append(call_s * factor)
                result["batch_s"] *= factor
                result["worker_s"] *= factor
                figures[program.name].append(result)
            calls += 1
        counts = {
            name: {key: runs[0][key] for key in (
                "intervals", "events", "executed", "chunks", "cache_hits", "cache_misses")}
            for name, runs in figures.items() if runs
        }
        m = Measurement(units=calls, counts=counts)
        names = list(times)
        if len(names) != 3 or not all(times.values()):
            return m
        call_med = {name: median(times[name]) for name in names}
        events = {name: figures[name][0]["events"] for name in names}
        events_per_s = sum(events.values()) / sum(call_med.values())
        m.e2e["throughput_per_s"] = (events_per_s, "1/s")
        m.e2e["latency_ms"] = (geomean(v * 1e3 for v in call_med.values()), "ms")
        m.report["replay_events_per_s"] = (
            events_per_s, "events/s",
            f"events / sum of per-record median call, n={calls} calls")
        for name in names:
            m.report[f"replay_call_ms.{name}"] = (call_med[name] * 1e3, "ms",
                                                 f"n={len(times[name])} calls")
        every = [f for runs in figures.values() for f in runs]
        batch_s = median(f["batch_s"] for f in every)
        m.layer["perf.pool.batch_ms"] = (batch_s * 1e3, "ms")
        m.layer["perf.pool.worker_s"] = (median(f["worker_s"] for f in every), "s")
        m.layer["perf.pool.parallel_efficiency"] = (
            median(f["worker_s"] / (f["jobs"] * f["batch_s"]) for f in every), "ratio")
        m.layer["perf.pool.chunks"] = (sum(figures[n][0]["chunks"] for n in names), "count")
        m.layer["perf.pool.bytes_shipped"] = (
            sum(figures[n][0]["bytes_shipped"] for n in names), "B")
        m.layer["perf.pool.fallbacks"] = (sum(f["fallbacks"] for f in every), "count")
        m.layer["core.events_regenerated"] = (sum(events.values()), "count")
        hits = sum(figures[n][0]["cache_hits"] for n in names)
        misses = sum(figures[n][0]["cache_misses"] for n in names)
        m.layer["perf.cache.hits"] = (hits, "count")
        m.layer["perf.cache.misses"] = (misses, "count")
        m.layer["perf.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                           "ratio")
        return m
