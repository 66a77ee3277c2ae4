"""``record``: the execution phase.

Interleaved plain/logged ``Machine(...).run()`` pairs over five programs,
swapping which of the pair runs first each round.  The load falls on the
scheduler, the executor, execution-phase logging and the sync/vector-clock
bookkeeping; no replay, graph or server work happens.  ``ring8`` and
``ring48`` are the same program at 8 and 48 ranks, so their per-step costs
show whether a step gets dearer as processes are added.
"""

from __future__ import annotations

import os
import time

from harness import (
    Context,
    Measurement,
    Program,
    attempt,
    geomean,
    median,
    output_ok,
    record_programs,
)

#: Runs per timed call, so each call takes at least ~30 ms; ring8 alone
#: finishes in ~10 ms.
REPS = {"ring8": 4}

MODES = ("plain", "logged")


class RecordWorkload:
    name = "record"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.programs: list[Program] = []
        self.compiled: dict = {}

    def setup(self) -> None:
        from repro import compile_program

        self.programs = record_programs(self.ctx.inputs)
        self.compiled = {}
        for program in self.programs:
            self.ctx.tag(program.name)
            self.compiled[program.name] = compile_program(program.source)
        self.ctx.tag("")

    def teardown(self) -> None:
        pass

    def warmup(self) -> None:
        for program in self.programs:
            for mode in MODES:
                self._call(program, mode)

    def _call(self, program: Program, mode: str):
        """One timed call: REPS runs of one program in one mode.  Returns
        (seconds, last record) or (seconds, None) on failure."""
        from repro import Machine

        compiled = self.compiled[program.name]
        seed = self.ctx.inputs.sched[program.name]
        reps = REPS.get(program.name, 1)

        def run():
            record = None
            for _ in range(reps):
                record = Machine(compiled, seed=seed, mode=mode).run()
            return record

        self.ctx.tag(program.name)
        ok, record, seconds = attempt(self.ctx.checks, f"{mode} run of {program.name}", run)
        self.ctx.tag("")
        if ok and not output_ok(program, record.output_text):
            self.ctx.checks.expect(
                False, f"{mode} {program.name}: printed {record.output_text!r}, "
                       f"expected {program.expected!r}")
        return seconds, record if ok else None

    def measure(self, seconds: float) -> Measurement:
        ctx = self.ctx
        times = {p.name: {mode: [] for mode in MODES} for p in self.programs}
        ratios = {p.name: [] for p in self.programs}
        last: dict[str, object] = {}
        counts: dict[str, dict] = {}
        deadline = time.perf_counter() + seconds
        rounds = 0
        ctx.clock.reset()
        while rounds == 0 or time.perf_counter() < deadline:
            with ctx.span("bench.record.round"):
                for index, program in enumerate(self.programs):
                    order = MODES if (rounds + index) % 2 == 0 else MODES[::-1]
                    pair = {}
                    for mode in order:
                        pair[mode] = self._call(program, mode)
                    # One factor for the pair, so it cancels in their ratio.
                    factor = ctx.clock.factor()
                    (plain_s, plain), (logged_s, logged) = pair["plain"], pair["logged"]
                    if plain is None or logged is None:
                        continue
                    plain_s, logged_s = plain_s * factor, logged_s * factor
                    ctx.checks.expect(
                        plain.output_text == logged.output_text,
                        f"{program.name}: plain and logged outputs differ")
                    times[program.name]["plain"].append(plain_s)
                    times[program.name]["logged"].append(logged_s)
                    ratios[program.name].append(logged_s / plain_s)
                    last[program.name] = logged
                    if program.name not in counts:
                        counts[program.name] = {
                            "steps": logged.total_steps,
                            "log_bytes": logged.log_bytes(),
                            "sync_events": len(logged.history.nodes),
                            "context_switches": logged.context_switches,
                        }
            rounds += 1

        m = Measurement(units=rounds, counts=counts)
        names = [p.name for p in self.programs if times[p.name]["logged"]]
        if len(names) != len(self.programs):
            return m
        reps = {name: REPS.get(name, 1) for name in names}
        logged_med = {name: median(times[name]["logged"]) for name in names}
        steps = {name: counts[name]["steps"] for name in names}
        steps_per_s = sum(steps[n] * reps[n] for n in names) / sum(logged_med.values())
        m.e2e["throughput_per_s"] = (steps_per_s, "1/s")
        m.e2e["latency_ms"] = (geomean(v * 1e3 for v in logged_med.values()), "ms")

        # The persisted size of each program's record: saved once, untimed.
        from repro.runtime import save_record

        record_bytes = {}
        for name in names:
            path = os.path.join(ctx.workdir, f"record-{name}.json")
            ctx.tag(name)
            save_record(last[name], path)
            ctx.tag("")
            record_bytes[name] = os.path.getsize(path)
            counts[name]["record_bytes"] = record_bytes[name]

        samples = sum(len(times[n]["logged"]) for n in names)
        m.report["record_steps_per_s"] = (steps_per_s, "steps/s", f"n={samples} logged calls")
        m.report["logging_overhead"] = (
            geomean(median(ratios[n]) for n in names), "ratio",
            f"geomean of per-program medians, n={samples} pairs")
        m.report["log_bytes_per_step"] = (
            sum(record_bytes.values()) / sum(steps.values()), "B", "deterministic")
        for name in names:
            per_run = {mode: median(times[name][mode]) / reps[name] for mode in MODES}
            m.layer[f"runtime.run_logged_ms.{name}"] = (per_run["logged"] * 1e3, "ms")
            m.layer[f"runtime.run_plain_ms.{name}"] = (per_run["plain"] * 1e3, "ms")
            m.layer[f"runtime.us_per_step.{name}"] = (per_run["logged"] * 1e6 / steps[name], "us")
            m.layer[f"runtime.logging_ms.{name}"] = (
                median(a - b for a, b in zip(times[name]["logged"], times[name]["plain"]))
                * 1e3 / reps[name], "ms")
            m.layer[f"runtime.steps.{name}"] = (steps[name], "count")
            m.layer[f"runtime.log_bytes.{name}"] = (counts[name]["log_bytes"], "B")
            m.layer[f"runtime.sync_events.{name}"] = (counts[name]["sync_events"], "count")
            m.layer[f"runtime.context_switches.{name}"] = (
                counts[name]["context_switches"], "count")
            m.layer[f"runtime.persist.record_bytes.{name}"] = (record_bytes[name], "B")
        m.layer["runtime.step_cost_growth"] = (
            m.layer["runtime.us_per_step.ring48"][0] / m.layer["runtime.us_per_step.ring8"][0],
            "ratio")
        return m
