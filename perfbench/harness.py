"""Shared pieces of the PPD benchmark: programs, oracles, statistics,
checks and the result record every workload fills in.

The oracles here are written in plain Python from the program texts in
``repro.workloads``; none of them calls the code under test, so a wrong
answer from the machine, the replay engine or the server shows up as a
failed operation rather than as a new expected value.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: Set-ups made per run: at least SETUPS, and more, up to MAX_SETUPS,
#: until they add up to SETUP_SECONDS.  ``setup_s`` is their median.
SETUPS = 3
SETUP_SECONDS = 2.0
MAX_SETUPS = 9

#: Failure messages kept for the report (all failures are counted).
MAX_MESSAGES = 20

#: Iterations of each half of the reference loop in one speed sample:
#: integer arithmetic, then steps through a shuffled chain of REF_CHAIN
#: list entries (~5 MB of objects, built once).  A sample takes ~5-10 ms.
REF_ITERATIONS = (40_000, 30_000)
REF_CHAIN = 1 << 17
#: Each half's typical time on the machine the baselines come from (2 vCPUs
#: of a shared Intel Xeon host, Python 3.11).  Timings are reported in
#: seconds at that speed.
REF_SECONDS = (0.0041, 0.0056)
#: Calls shorter than this share one speed sample (``ReferenceClock.add``).
BATCH_SECONDS = 0.05


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(pos))
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (pos - low))


def geomean(values) -> float:
    values = list(values)
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def reference_chain(size: int = REF_CHAIN) -> list[int]:
    """``chain[i]`` is the next index of one cycle through every index, in
    a fixed random order, so walking it misses the caches the way the
    program's object graphs do."""
    order = list(range(size))
    random.Random(0).shuffle(order)
    chain = [0] * size
    for here, there in zip(order, order[1:] + order[:1]):
        chain[here] = there
    return chain


def reference_loop(chain: list[int]) -> tuple[float, float]:
    """Times the two halves of the reference work, which depends on
    nothing in the program: (arithmetic seconds, pointer-chasing seconds).
    Neither half creates an object the garbage collector tracks."""
    started = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS[0]):
        acc += i * i % 7
    middle = time.perf_counter()
    at = 0
    for _ in range(REF_ITERATIONS[1]):
        at = chain[at]
    return middle - started, time.perf_counter() - middle


class ReferenceClock:
    """Converts wall time to time at a fixed machine speed.

    The shared host this benchmark runs on changes speed by up to 1.7x
    over tens of seconds, for every kind of work at once: wall and CPU
    time move together, so neither is steady on its own.  The workloads
    therefore time the reference loop between their timed calls and scale
    each call by the geometric mean, over the loop's two halves, of
    ``REF_SECONDS`` over the half's mean time just before and just after
    the call.  Arithmetic alone slows less than the program when the host
    is busy, and pointer chasing alone slows more; their geometric mean
    followed the program within ~5% through a 1.6x slowdown.  The loop is
    benchmark code, the same on every commit, so a change to the program
    moves the scaled times by the same share as the wall times.
    """

    def __init__(self) -> None:
        #: every factor handed out, for the report
        self.factors: list[float] = []
        #: the lists and indexes of the timings ``add`` put off scaling,
        #: kept apart so that ``add`` creates no objects the garbage
        #: collector tracks: it runs between the program's calls, and
        #: shifting the program's collections moved ``peak_rss_mb``
        self._pending_lists: list[list] = []
        self._pending_indexes: list[int] = []
        self._pending_s = 0.0
        self._chain = reference_chain()
        self._last = self._sample()

    def _sample(self) -> tuple[float, float]:
        return reference_loop(self._chain)

    def reset(self) -> None:
        """Take a fresh 'before' sample; call it right before timed work
        that does not directly follow another timed call."""
        self._last = self._sample()

    def factor(self) -> float:
        """Reference seconds per wall second for the work done since the
        previous sample; call it right after the timed work."""
        now = self._sample()
        factor = math.sqrt(math.prod(
            ref / ((before + after) / 2)
            for ref, before, after in zip(REF_SECONDS, self._last, now)))
        self._last = now
        self.factors.append(factor)
        return factor

    def add(self, seconds: float, values: list, also: Optional[list] = None) -> None:
        """Append *seconds* to *values* (and to *also*), scaled in place at
        the next ``flush``; it comes once BATCH_SECONDS of calls are
        pending, so a run of short calls shares one speed sample."""
        self._put(seconds, values)
        if also is not None:
            self._put(seconds, also)
        self._pending_s += seconds
        if self._pending_s >= BATCH_SECONDS:
            self.flush()

    def _put(self, seconds: float, values: list) -> None:
        self._pending_lists.append(values)
        self._pending_indexes.append(len(values))
        values.append(seconds)

    def flush(self) -> None:
        """Scale every pending timing by the speed over its batch."""
        if not self._pending_lists:
            return
        factor = self.factor()
        for values, index in zip(self._pending_lists, self._pending_indexes):
            values[index] *= factor
        self._pending_lists.clear()
        self._pending_indexes.clear()
        self._pending_s = 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (pool
    worker or server), in MB.  ``ru_maxrss`` is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# Checks: every operation is attempted once and either passes or fails
# ----------------------------------------------------------------------


class Checks:
    """Counts attempted and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.expect(False, what)
        return ok

    def expect(self, condition: bool, what: str) -> bool:
        """A check that is not itself an operation: a failure is counted
        against the operation already attempted."""
        if not condition:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(what)
        return condition

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def attempt(checks: Checks, what: str, fn: Callable[[], Any]) -> tuple[bool, Any, float]:
    """Run one timed operation; an exception counts as a failed operation.
    Returns (ok, value, seconds)."""
    started = time.perf_counter()
    try:
        value = fn()
    except Exception as error:  # a benchmark boundary: count and go on
        elapsed = time.perf_counter() - started
        checks.record(False, f"{what}: {type(error).__name__}: {error}")
        return False, None, elapsed
    elapsed = time.perf_counter() - started
    checks.record(True, what)
    return True, value, elapsed


# ----------------------------------------------------------------------
# Inputs derived from --seed
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything the seed decides: scheduler seeds, the deviant ranks and
    the program inputs.  The programs see only these values."""

    seed: int
    sched: dict[str, int]
    deviant48: int
    deviant8: int
    #: serve: the small seed set the clients draw from, per program
    serve_seeds: dict[str, list[int]]
    #: serve: buggy_average readings, per scheduler seed
    readings: dict[int, list[int]]

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = random.Random(seed)
        sched = {
            name: rng.randrange(1, 2**31)
            for name in (
                "compute_heavy", "bank_safe", "producer_consumer", "ring8",
                "ring48", "bank_race",
            )
        }
        deviant48 = rng.randrange(48)
        deviant8 = rng.randrange(8)
        serve_seeds = {
            name: [rng.randrange(1, 2**31) for _ in range(2)]
            for name in ("bank_race", "buggy_average", "ring8")
        }
        readings = {
            s: [rng.randrange(10, 60) for _ in range(4)]
            for s in serve_seeds["buggy_average"]
        }
        return cls(seed, sched, deviant48, deviant8, serve_seeds, readings)


# ----------------------------------------------------------------------
# Oracles, computed from the program texts without running them
# ----------------------------------------------------------------------


def compute_heavy_result(outer: int, inner: int) -> int:
    acc = 0
    for i in range(inner):
        t = i * i + 3
        acc = acc + t if t % 2 == 0 else acc - i
    return outer * acc


def _popcount(value: int) -> int:
    return bin(abs(value)).count("1")


def ring_output(ranks: int, deviant: Optional[int] = None) -> str:
    """``ring_allreduce``: every rank's sum is Σ(r+2); the ``wrong_op``
    deviant subtracts its peers' contributions instead."""
    total_each = sum(r + 2 for r in range(ranks))
    accs = [
        2 * (r + 2) - total_each if r == deviant else total_each for r in range(ranks)
    ]
    return f"total = {sum(accs)} checks = {sum(_popcount(a) for a in accs)}"


def buggy_average_output(readings: list[int], values: int = 5) -> str:
    """``buggy_average`` reads only ``values - 1`` readings (the bug) and
    divides by ``values``."""
    return f"average = {sum(readings[: values - 1]) // values}"


@dataclass(frozen=True)
class Program:
    """One benchmark program: its source and the output it must print."""

    name: str
    source: str
    expected: str
    #: the variable a user asks "why" about
    var: str


def record_programs(inputs: Inputs) -> list[Program]:
    from repro.workloads import bank_safe, compute_heavy, producer_consumer, ring_allreduce

    return [
        Program("compute_heavy", compute_heavy(60, 40),
                f"result = {compute_heavy_result(60, 40)}", "result"),
        Program("bank_safe", bank_safe(4, 100), f"balance = {4 * 100}", "balance"),
        Program("producer_consumer", producer_consumer(300, 4),
                f"consumed = {sum(i * i for i in range(1, 301))}", "consumed"),
        Program("ring8", ring_allreduce(8), ring_output(8), "total"),
        Program("ring48", ring_allreduce(48), ring_output(48), "total"),
    ]


def debug_programs(inputs: Inputs) -> list[Program]:
    """The three halted runs the debug and replay workloads load.  The
    bank_race output depends on how many updates the schedule lost, so only
    its prefix is fixed."""
    from repro.workloads import bank_race, compute_heavy, ring_allreduce

    return [
        Program("compute_heavy", compute_heavy(60, 40),
                f"result = {compute_heavy_result(60, 40)}", "result"),
        Program("bank_race", bank_race(8, 300), "balance = ", "balance"),
        Program("ring48", ring_allreduce(48, deviant=inputs.deviant48),
                ring_output(48, inputs.deviant48), "total"),
    ]


def output_ok(program: Program, output_text: str) -> bool:
    first = output_text.splitlines()[0] if output_text else ""
    if program.name == "bank_race":
        return first.startswith(program.expected)
    return first == program.expected


# ----------------------------------------------------------------------
# What one measurement returns
# ----------------------------------------------------------------------


@dataclass
class Measurement:
    """The outcome of one timed loop of a workload."""

    #: completed units of work (rounds, sessions, calls or requests)
    units: int = 0
    #: generic end-to-end metrics: name -> (value, unit)
    e2e: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: the workload's own figures, printed above the JSON line:
    #: name -> (value, unit, note)
    report: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    #: deterministic counts from the first complete cycle
    counts: dict[str, Any] = field(default_factory=dict)
    #: per-layer metrics the workload measures itself: name -> (value, unit)
    layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: raw totals over the whole loop, combined with the spans by run.py
    totals: dict[str, float] = field(default_factory=dict)


@dataclass
class Context:
    """What a workload needs from run.py."""

    inputs: Inputs
    checks: Checks
    #: scratch directory inside the checkout for records and traces
    workdir: str
    #: the checkout root (holds ``src/``)
    root: str
    #: set while the traced phase runs
    recorder: Any = None
    #: scales the workloads' timings to the reference speed
    clock: ReferenceClock = field(default_factory=ReferenceClock)

    def tag(self, name: str) -> None:
        """Name the program the next layer calls work on (traced phase)."""
        if self.recorder is not None:
            self.recorder.tag = name

    def span(self, name: str):
        return self.recorder.span(name) if self.recorder is not None else nullcontext()
