"""``debug``: one user debugging freshly halted runs, in process.

Set-up saves the records of three programs: ``compute_heavy(60,40)``
(61 nested intervals), ``bank_race(8,300)`` (the designed lost-update
race) and ``ring_allreduce(48)`` with a seed-chosen deviant rank.  Each
session loads a record with the shared replay cache reset, answers a
first ``why``, expands every remaining interval one at a time, and ends
with ``why``, ``races`` and ``localize``.  The work falls on emulation
replay, dynamic-graph splicing, flowback, the race scan and localization;
execution and the replay pool do none.
"""

from __future__ import annotations

import os
import time

from harness import (
    Context,
    Measurement,
    Program,
    attempt,
    debug_programs,
    geomean,
    median,
    output_ok,
    percentile,
)


def make_records(ctx: Context) -> list[tuple[Program, str]]:
    """Run the three debug programs logged and save their records; the
    set-up shared by ``debug`` and ``replay``."""
    from repro import Machine, compile_program
    from repro.runtime import save_record

    saved = []
    for program in debug_programs(ctx.inputs):
        ctx.tag(program.name)
        compiled = compile_program(program.source)
        ok, record, _ = attempt(
            ctx.checks, f"logged run of {program.name}",
            lambda: Machine(compiled, seed=ctx.inputs.sched[program.name]).run())
        if ok:
            ctx.checks.expect(
                output_ok(program, record.output_text),
                f"{program.name}: printed {record.output_text!r}, expected {program.expected!r}")
            path = os.path.join(ctx.workdir, f"{program.name}.json")
            save_record(record, path)
            saved.append((program, path))
        ctx.tag("")
    return saved


def all_intervals(session) -> list[tuple[int, int]]:
    return sorted(
        (pid, interval_id)
        for pid, index in session.emulation.indexes.items()
        for interval_id in index
    )


def _names_var(result, var: str) -> bool:
    return result is not None and result.root.node.label.split()[0] == var


class DebugWorkload:
    name = "debug"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.records: list[tuple[Program, str]] = []
        #: program -> events one full session regenerates (first session)
        self.expected_events: dict[str, int] = {}

    def setup(self) -> None:
        self.records = make_records(self.ctx)

    def teardown(self) -> None:
        pass

    def warmup(self) -> None:
        """One session on each small record, so lazy imports and first-call
        costs stay out of the window; ring48 needs no separate warm-up."""
        for program, path in self.records:
            if program.name != "ring48":
                self.session(program, path, {})

    def session(self, program: Program, path: str, out: dict):
        """One debugging session; appends timings to *out* and returns the
        session's deterministic counts (None when an operation failed).

        A session's times are the sums of its operations' times, each
        scaled by the reference clock in batches of short operations."""
        import repro.perf
        from repro import PPDSession
        from repro.runtime import load_record

        ctx = self.ctx
        checks = ctx.checks
        queries = out.setdefault("query", [])
        ops: list[float] = []

        def op(what, fn, query=False):
            ok, value, seconds = attempt(checks, f"{program.name}: {what}", fn)
            ctx.clock.add(seconds, ops, queries if query else None)
            return ok, value

        ctx.tag(program.name)
        repro.perf.reset()
        ok, record = op("load_record", lambda: load_record(path))
        if not ok:
            return None
        ok, session = op("open session", lambda: PPDSession(record))
        if not ok:
            return None
        ok, first = op("start", session.start)
        if not ok:
            return None
        ok, answer = op("first why", lambda: session.why_value(program.var))
        if not ok:
            return None
        # bank_race halts in main, which never assigns the balance itself:
        # the first answer there is "not in the graph yet".
        if program.name != "bank_race":
            checks.expect(_names_var(answer, program.var),
                          f"{program.name}: first why does not explain {program.var}")

        failed = False
        for pid, interval_id in all_intervals(session):
            if (pid, interval_id) == (first.pid, first.interval_id):
                continue
            ok, _ = op(f"expand {pid}/{interval_id}",
                       lambda: session.expand_interval(pid, interval_id), True)
            failed |= not ok
        ok, answer = op("why", lambda: session.why_value(program.var), True)
        if ok:
            checks.expect(_names_var(answer, program.var),
                          f"{program.name}: why does not explain {program.var}")
        ok, races = op("races", session.races, True)
        if ok:
            found = {race.variable for race in races.races}
            if program.name == "bank_race":
                checks.expect("balance" in found, "bank_race: no race on balance found")
            else:
                checks.expect(not found, f"{program.name}: unexpected races on {sorted(found)}")
        ok, suspects = op("localize", session.localize, True)
        if ok and program.name == "ring48":
            top = suspects.suspects[0].name if suspects.suspects else ""
            checks.expect(top == f"rank{ctx.inputs.deviant48}",
                          f"ring48: localize ranks {top} first, deviant is "
                          f"rank{ctx.inputs.deviant48}")
        ctx.clock.flush()
        ctx.tag("")

        expected = self.expected_events.setdefault(program.name, session.events_generated)
        checks.expect(session.events_generated == expected,
                      f"{program.name}: {session.events_generated} events regenerated, "
                      f"{expected} in the first session")
        # ops: load_record, open session, start, first why, the queries
        out.setdefault("first", {}).setdefault(program.name, []).append(sum(ops[:4]))
        out.setdefault("session", {}).setdefault(program.name, []).append(sum(ops))
        out.setdefault("open", []).append(ops[1])
        out.setdefault("start", []).append(ops[2])
        if failed:
            return None
        graph = session.graph
        sync_edges = {(e.src, e.dst, e.label) for e in graph.edges if e.kind == "sync"}
        out["distinct_sync_edges"] = out.get("distinct_sync_edges", 0) + len(sync_edges)
        shared = session.cache_stats().get("shared") or {}
        return {
            "intervals": len(all_intervals(session)),
            "events": session.events_generated,
            "graph_nodes": len(graph.nodes),
            "graph_edges": len(graph.edges),
            "distinct_sync_edges": len(sync_edges),
            "races": len(races.races) if races is not None else -1,
            "cache_hits": shared.get("hits", 0),
            "cache_misses": shared.get("misses", 0),
        }

    def measure(self, seconds: float) -> Measurement:
        ctx = self.ctx
        out: dict = {}
        counts: dict[str, dict] = {}
        deadline = time.perf_counter() + seconds
        sessions = 0
        ctx.clock.reset()
        # At least one whole cycle; the rates use per-program medians, so a
        # cycle cut short by the deadline does not tilt them.
        while sessions < len(self.records) or time.perf_counter() < deadline:
            program, path = self.records[sessions % len(self.records)]
            ctx.tag(program.name)
            with ctx.span("bench.debug.session"):
                result = self.session(program, path, out)
            ctx.clock.flush()
            if result is not None and program.name not in counts:
                counts[program.name] = result
            sessions += 1
        m = Measurement(units=sessions, counts=counts)
        m.totals["distinct_sync_edges"] = out.get("distinct_sync_edges", 0)
        names = [p.name for p, _ in self.records]
        if set(out.get("session", {})) != set(names) or len(names) != 3:
            return m
        queries = out["query"]
        sessions_per_s = len(names) / sum(median(out["session"][n]) for n in names)
        m.e2e["throughput_per_s"] = (sessions_per_s, "1/s")
        m.e2e["latency_ms"] = (median(queries) * 1e3, "ms")
        n_sessions = sum(len(v) for v in out["session"].values())
        m.report["first_answer_ms"] = (
            geomean(median(out["first"][n]) * 1e3 for n in names), "ms",
            f"geomean of per-program medians, n={n_sessions} sessions")
        m.report["query_ms_p50"] = (median(queries) * 1e3, "ms", f"n={len(queries)} queries")
        m.report["query_ms_p90"] = (percentile(queries, 90) * 1e3, "ms",
                                    f"n={len(queries)} queries")
        m.report["sessions_per_s"] = (sessions_per_s, "1/s",
                                      f"programs / sum of per-program median session, "
                                      f"n={n_sessions} sessions")
        m.layer["core.session_open_ms"] = (median(out["open"]) * 1e3, "ms")
        m.layer["core.start_ms"] = (median(out["start"]) * 1e3, "ms")
        if len(counts) == len(names):
            total = {key: sum(c[key] for c in counts.values()) for key in counts[names[0]]}
            m.layer["core.events_regenerated"] = (total["events"], "count")
            m.layer["core.graph_nodes"] = (total["graph_nodes"], "count")
            m.layer["core.graph_edges"] = (total["graph_edges"], "count")
            m.layer["core.races_found"] = (total["races"], "count")
            m.layer["perf.cache.hits"] = (total["cache_hits"], "count")
            m.layer["perf.cache.misses"] = (total["cache_misses"], "count")
            lookups = total["cache_hits"] + total["cache_misses"]
            m.layer["perf.cache.hit_ratio"] = (
                total["cache_hits"] / lookups if lookups else 0.0, "ratio")
        return m
