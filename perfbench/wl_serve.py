"""``serve``: a ``ppd serve`` daemon with its defaults, driven by two
closed-loop ``DebugClient`` connections that one thread uses in turn, a
session at a time (each request waits for its reply).

The sessions run on small programs -- ``bank_race(4,40)``,
``buggy_average(5)`` and ``ring_allreduce(8)`` with a seed-chosen deviant
-- drawn from a set of two scheduler seeds each, so records recur and
replays hit the server's warm shared cache: the opposite use of
``perf.cache`` from the cold ``debug`` sessions.  Every ``open`` also
compiles, runs the program logged and spills the record, so the protocol,
session manager and client carry most of the work.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from harness import (
    Context,
    Measurement,
    attempt,
    buggy_average_output,
    median,
    percentile,
    ring_output,
)

#: Closed-loop connections, driven in turn by one thread.  With one
#: thread per connection, requests queue behind each other on the
#: server's interpreter lock: latency doubled and the run-to-run spread
#: of the end-to-end metrics rose to 29-31%.
CONNECTIONS = 2
LISTENING = re.compile(r"listening on (\S+)")


@dataclass(frozen=True)
class Item:
    """One recurring session target: a program at one scheduler seed."""

    name: str
    source: str
    seed: int
    inputs: Optional[list[int]]
    var: str
    #: text the ``why`` reply must end its first line with ("" = any)
    why_value: str


def session_items(ctx: Context) -> list[Item]:
    from repro.workloads import bank_race, buggy_average, ring_allreduce

    inputs = ctx.inputs
    items = []
    for seed in inputs.serve_seeds["bank_race"]:
        items.append(Item("bank_race", bank_race(4, 40), seed, None, "balance", ""))
    for seed in inputs.serve_seeds["buggy_average"]:
        readings = inputs.readings[seed]
        average = buggy_average_output(readings).split(" = ")[1]
        items.append(Item("buggy_average", buggy_average(5), seed, readings, "average",
                          f"= {average}"))
    ring_total = ring_output(8, inputs.deviant8).split()[2]
    for seed in inputs.serve_seeds["ring8"]:
        items.append(Item("ring8", ring_allreduce(8, deviant=inputs.deviant8), seed, None,
                          "total", f"= {ring_total}"))
    # Interleave the programs so consecutive sessions differ.
    return [items[i] for i in (0, 2, 4, 1, 3, 5)]


def start_server(root: str, timeout: float = 60.0) -> tuple[subprocess.Popen, str]:
    """Start ``python -m repro serve`` on a free port; returns (process, addr)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not selector.select(timeout):
            raise RuntimeError("ppd serve did not report its address")
        line = proc.stdout.readline()
    except BaseException:
        stop_server(proc, None)
        raise
    finally:
        selector.close()
    match = LISTENING.search(line)
    if match is None:
        stop_server(proc, None)
        raise RuntimeError(f"ppd serve printed {line!r}")
    return proc, match.group(1)


def stop_server(proc: subprocess.Popen, addr: Optional[str]) -> None:
    """Ask the daemon to drain and wait for it to exit; kill it if it will
    not."""
    from repro.server import DebugClient

    if addr is not None and proc.poll() is None:
        try:
            with DebugClient.connect(addr, timeout=30) as client:
                client.shutdown_server()
        except (OSError, ConnectionError, RuntimeError):
            pass
    try:
        proc.wait(30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(30)
    if proc.stdout is not None:
        proc.stdout.close()


class ServeWorkload:
    name = "serve"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.proc: Optional[subprocess.Popen] = None
        self.addr: Optional[str] = None
        self.items: list[Item] = []
        self.probe = None
        self.probe_client = None

    def setup(self) -> None:
        self.items = session_items(self.ctx)
        self.proc, self.addr = start_server(self.ctx.root)

    def teardown(self) -> None:
        if self.probe_client is not None:
            self.probe_client.close()
            self.probe_client = self.probe = None
        if self.proc is not None:
            stop_server(self.proc, self.addr)
            self.proc = self.addr = None

    def warmup(self) -> None:
        """Open every recurring record once, so the window sees a warm
        cache, and keep a probe session for ``stats json``."""
        from repro.server import DebugClient

        with DebugClient.connect(self.addr) as client:
            for item in self.items:
                self.session(client, item, {}, {})
        self.probe_client = DebugClient.connect(self.addr)
        self.probe = self.probe_client.open_program(self.items[0].source,
                                                    seed=self.items[0].seed)

    def server_counters(self) -> dict:
        ok, text, _ = attempt(self.ctx.checks, "stats json",
                              lambda: self.probe.execute("stats json"))
        return json.loads(text).get("counters", {}) if ok else {}

    def session(self, client, item: Item, samples: dict, counts: dict) -> int:
        """One closed-loop session; returns the number of requests sent."""
        checks = self.ctx.checks
        sent = 0
        what = f"serve {item.name}@{item.seed}"

        def request(verb, fn):
            nonlocal sent
            sent += 1
            with self.ctx.span(f"server.{verb}"):
                ok, reply, seconds = attempt(checks, f"{what}: {verb}", fn)
            if ok:
                samples.setdefault(verb, []).append(seconds)
            return ok, reply

        ok, session = request("open", lambda: client.open_program(
            item.source, seed=item.seed, inputs=item.inputs))
        if not ok:
            return sent
        try:
            ok, reply = request("where", lambda: session.execute("where"))
            if ok:
                checks.expect("stopped" in reply or "completed" in reply,
                              f"{what}: where replied {reply!r}")
            ok, reply = request("why", lambda: session.execute(f"why {item.var}"))
            if ok:
                first = reply.splitlines()[0] if reply else ""
                checks.expect(item.var in first and first.endswith(item.why_value),
                              f"{what}: why {item.var} replied {first!r}")
            ok, reply = request("expandable", lambda: session.execute("expandable"))
            uid = re.search(r"#(\d+)", reply) if ok else None
            if uid is not None:
                ok, reply = request("expand", lambda: session.execute(f"expand {uid.group(1)}"))
                found = re.search(r"(\d+) events regenerated", reply) if ok else None
                if checks.expect(found is not None, f"{what}: expand replied {reply!r}"):
                    counts.setdefault(f"{item.name}@{item.seed}.expand_events",
                                      int(found.group(1)))
            ok, reply = request("races", lambda: session.execute("races"))
            if ok:
                if item.name == "bank_race":
                    found = re.search(r"(\d+) race\(s\) detected", reply)
                    checks.expect(found is not None and "on 'balance'" in reply,
                                  f"{what}: races replied {reply[:200]!r}")
                    if found is not None:
                        counts.setdefault(f"{item.name}@{item.seed}.races", int(found.group(1)))
                else:
                    checks.expect("race-free" in reply, f"{what}: races replied {reply!r}")
            if item.name == "ring8":
                deviant = self.ctx.inputs.deviant8
                ok, reply = request("localize", lambda: session.execute("localize"))
                if ok:
                    checks.expect(f"1. P{deviant + 1} (rank{deviant})" in reply,
                                  f"{what}: localize does not rank rank{deviant} first: "
                                  f"{reply!r}")
        finally:
            request("close", session.close)
        return sent

    def measure(self, seconds: float) -> Measurement:
        from repro.server import DebugClient

        ctx = self.ctx
        before = self.server_counters()
        by_verb: dict[str, list[float]] = {}
        counts: dict = {}
        sent = sessions = 0
        wall = 0.0
        deadline = time.perf_counter() + seconds
        clients = [DebugClient.connect(self.addr) for _ in range(CONNECTIONS)]
        ctx.clock.reset()
        try:
            while sessions < len(self.items) or time.perf_counter() < deadline:
                item = self.items[sessions % len(self.items)]
                ctx.tag(item.name)
                one: dict[str, list[float]] = {}
                started = time.perf_counter()
                with ctx.span("bench.serve.session"):
                    sent += self.session(clients[sessions % CONNECTIONS], item, one, counts)
                session_s = time.perf_counter() - started
                ctx.tag("")
                factor = ctx.clock.factor()
                wall += session_s * factor
                for verb, values in one.items():
                    by_verb.setdefault(verb, []).extend(s * factor for s in values)
                sessions += 1
        finally:
            for client in clients:
                client.close()
        after = self.server_counters()

        every = [s for values in by_verb.values() for s in values]
        m = Measurement(units=len(every), counts=counts)
        if not every:
            return m

        def delta(key: str) -> int:
            return int(after.get(key, 0)) - int(before.get(key, 0))

        # The server counts every request the clients sent, plus the
        # first stats request (answered after its own snapshot).
        ctx.checks.expect(delta("server.requests") == sent + 1,
                          f"server counted {delta('server.requests')} requests, "
                          f"clients sent {sent} (+1 stats)")
        ctx.checks.expect(delta("server.request_errors") == 0,
                          f"server reported {delta('server.request_errors')} request errors")
        req_per_s = m.units / wall
        m.e2e["throughput_per_s"] = (req_per_s, "1/s")
        # The median over all requests falls among the sub-millisecond
        # verbs, whose round trips depend mostly on scheduling; the median
        # open (compile, logged run, spill, start) is the steady figure.
        m.e2e["latency_ms"] = (median(by_verb["open"]) * 1e3, "ms")
        m.report["serve_req_ms_p50"] = (median(every) * 1e3, "ms", f"n={len(every)} requests")
        m.report["serve_req_ms_p90"] = (percentile(every, 90) * 1e3, "ms",
                                        f"n={len(every)} requests")
        m.report["serve_req_per_s"] = (req_per_s, "1/s",
                                       f"{CONNECTIONS} connections in turn, {sessions} sessions")
        for verb, values in by_verb.items():
            m.layer[f"server.{verb}_ms_p50"] = (median(values) * 1e3, "ms")
        m.layer["server.requests"] = (delta("server.requests"), "count")
        m.layer["server.request_errors"] = (delta("server.request_errors"), "count")
        hits, misses = delta("perf.cache.hits"), delta("perf.cache.misses")
        m.layer["perf.cache.hits"] = (hits, "count")
        m.layer["perf.cache.misses"] = (misses, "count")
        m.layer["perf.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                           "ratio")
        return m
