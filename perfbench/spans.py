"""The traced run's span recorder.

Spans are recorded from the benchmark's own files: :class:`Instrumentation`
wraps the layer functions of ``repro`` listed in :data:`TARGETS` for the
duration of the traced phase and puts the originals back afterwards.
Nothing under ``src/`` knows it is being traced, so the untraced runs
that give the end-to-end metrics execute exactly the shipped code.

Each span has a name, start, end, parent span and the benchmark's current
tag (the program the call works on).  Spans stay in memory until the run
ends; then :func:`self_time_table` gives each layer's self time (span
duration minus the time its child spans cover) and
:func:`write_chrome_trace` writes Chrome trace-event JSON, which Perfetto
and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    tag: str
    start_ns: int
    end_ns: int
    parent: int
    tid: int
    #: a value the wrapped call returned, when the target asks for it
    value: Any = None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.origin_ns = time.perf_counter_ns()

    # --- per-thread state -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def tag(self) -> str:
        return getattr(self._local, "tag", "")

    @tag.setter
    def tag(self, value: str) -> None:
        self._local.tag = value

    # --- recording --------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs, keep: Optional[Callable] = None):
        stack = self._stack()
        parent = stack[-1] if stack else 0
        tag = self.tag
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            span = Span(sid, name, tag, start, end, parent, threading.get_ident(),
                        keep(result) if keep is not None else None)
            with self._lock:
                self.spans.append(span)

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        recorder = self

        class _Span:
            def __enter__(self_inner):
                stack = recorder._stack()
                self_inner.parent = stack[-1] if stack else 0
                with recorder._lock:
                    self_inner.sid = next(recorder._ids)
                stack.append(self_inner.sid)
                self_inner.tag = recorder.tag
                self_inner.start = time.perf_counter_ns()
                return self_inner

            def __exit__(self_inner, *exc_info):
                end = time.perf_counter_ns()
                recorder._stack().pop()
                span = Span(self_inner.sid, name, self_inner.tag, self_inner.start, end,
                            self_inner.parent, threading.get_ident())
                with recorder._lock:
                    recorder.spans.append(span)
                return False

        return _Span()


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------

#: (span name, module, qualified attribute, keep-return-value).  A module
#: function is replaced wherever a ``repro`` module holds a reference to
#: it, so ``from x import f`` call sites are traced too; a method is
#: replaced on its class.  A target missing from the tree is skipped and
#: named in the report, so renaming a layer function never breaks the
#: benchmark -- it only blanks that layer's numbers.
TARGETS: list[tuple[str, str, str, bool]] = [
    ("lang.parse", "repro.lang.parser", "parse", False),
    ("compiler.compile_program", "repro.compiler.compile", "compile_program", False),
    ("runtime.machine.run", "repro.runtime.machine", "Machine.run", False),
    ("runtime.persist.save_record", "repro.runtime.persist", "save_record", False),
    ("runtime.persist.load_record", "repro.runtime.persist", "load_record", False),
    ("core.controller.session_open", "repro.core.controller", "PPDSession.__init__", False),
    ("core.controller.start", "repro.core.controller", "PPDSession.start", False),
    ("core.controller.expand_interval", "repro.core.controller",
     "PPDSession.expand_interval", False),
    ("core.parallel_graph.from_history", "repro.core.parallel_graph",
     "ParallelDynamicGraph.from_history", False),
    ("core.emulation.replay", "repro.core.emulation", "EmulationPackage.replay", False),
    ("core.dynamic_graph.add_events", "repro.core.dynamic_graph",
     "DynamicGraphBuilder.add_events", False),
    ("core.dynamic_graph.add_sync_edges", "repro.core.dynamic_graph",
     "DynamicGraphBuilder.add_sync_edges", True),
    ("core.flowback.why_value", "repro.core.flowback", "why_value", False),
    ("core.flowback.flowback", "repro.core.flowback", "flowback", False),
    ("core.races.find_races_indexed", "repro.core.races", "find_races_indexed", False),
    ("analysis.racecands.candidates_from_compiled", "repro.analysis.racecands",
     "candidates_from_compiled", False),
    ("analysis.localize.localize_graph", "repro.analysis.localize", "localize_graph", False),
    ("perf.cache.get", "repro.perf.cache", "ReplayCache.get", False),
    ("perf.cache.put", "repro.perf.cache", "ReplayCache.put", False),
    ("perf.pool.start", "repro.perf.pool", "ReplayPool._ensure_executor", False),
    ("perf.pool.replay_batch", "repro.perf.pool", "ReplayPool.replay_batch", False),
    ("perf.pool.close", "repro.perf.pool", "ReplayPool.close", False),
]


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: its module path, e.g. ``core.emulation``
    for ``core.emulation.replay``; benchmark spans (``bench.*``) and the
    client side of server requests (``server.*``) keep their first part."""
    head, _, rest = span_name.partition(".")
    if head in ("bench", "server", "lang", "compiler"):
        return head
    if head == "runtime" and rest.startswith("persist."):
        return "runtime.persist"
    return head + "." + rest.split(".")[0]


class Instrumentation:
    """Installs span wrappers on the layer functions; :meth:`remove` puts
    every original back."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []
        self.skipped: list[str] = []

    def install(self) -> "Instrumentation":
        import importlib

        for name, module_name, attr, keep in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.skipped.append(name)
                continue
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = owner.__dict__.get(member) if owner is not None else None
                if raw is None:
                    self.skipped.append(name)
                    continue
                self._patch(owner, member, raw, self._wrap_member(name, raw, keep))
            else:
                original = getattr(module, member, None)
                if original is None:
                    self.skipped.append(name)
                    continue
                wrapped = self._wrap(name, original, keep)
                for mod_name, mod in list(sys.modules.items()):
                    if not (mod_name == "repro" or mod_name.startswith("repro.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)
        return self

    def remove(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, original, replacement) -> None:
        self._undo.append((owner, key, original))
        setattr(owner, key, replacement)

    def _wrap(self, name: str, fn: Callable, keep: bool) -> Callable:
        recorder = self.recorder
        keeper = (lambda result: result) if keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs, keeper)

        return traced

    def _wrap_member(self, name: str, raw: Any, keep: bool) -> Any:
        if isinstance(raw, classmethod):  # ParallelDynamicGraph.from_history
            return classmethod(self._wrap(name, raw.__func__, keep))
        return self._wrap(name, raw, keep)


# ----------------------------------------------------------------------
# Analysis and export
# ----------------------------------------------------------------------


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> self time: its duration minus what its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    return {
        span.sid: (span.end_ns - span.start_ns) - _covered_ns(children.get(span.sid, []))
        for span in spans
    }


@dataclass
class LayerRow:
    layer: str
    calls: int
    self_ms: float
    share: float


def self_time_table(spans: list[Span], wall_ns: int) -> list[LayerRow]:
    """Self time per layer over the traced phase, largest first.  The row
    ``(outside spans)`` is the phase's wall time no root span covers."""
    selfs = self_times_ns(spans)
    by_layer: dict[str, list[int]] = {}
    for span in spans:
        row = by_layer.setdefault(layer_of(span.name), [0, 0])
        row[0] += 1
        row[1] += selfs[span.sid]
    sids = {span.sid for span in spans}
    per_thread_roots: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent not in sids:
            per_thread_roots.setdefault(span.tid, []).append((span.start_ns, span.end_ns))
    main_cover = max((_covered_ns(v) for v in per_thread_roots.values()), default=0)
    outside = max(0, wall_ns - main_cover)
    total = sum(v[1] for v in by_layer.values()) + outside
    rows = [
        LayerRow(layer, calls, self_ns / 1e6, self_ns / total if total else 0.0)
        for layer, (calls, self_ns) in by_layer.items()
    ]
    rows.append(LayerRow("(outside spans)", 0, outside / 1e6, outside / total if total else 0.0))
    rows.sort(key=lambda row: -row.self_ms)
    return rows


def tag_tables(spans: list[Span]) -> dict[str, list[LayerRow]]:
    """One self-time table per tag (program), over the time its root spans
    cover."""
    tables = {}
    for tag in sorted({span.tag for span in spans if span.tag}):
        mine = [span for span in spans if span.tag == tag]
        sids = {span.sid for span in mine}
        roots = [(s.start_ns, s.end_ns) for s in mine if s.parent not in sids]
        tables[tag] = [row for row in self_time_table(mine, _covered_ns(roots))
                       if row.layer != "(outside spans)"]
    return tables


def render_table(rows: list[LayerRow], title: str) -> str:
    lines = [title, f"{'layer':<24} {'calls':>8} {'self ms':>12} {'share':>7}"]
    for row in rows:
        lines.append(f"{row.layer:<24} {row.calls:>8} {row.self_ms:>12.1f} {row.share:>6.1%}")
    return "\n".join(lines)


def write_chrome_trace(spans: list[Span], origin_ns: int, path: str) -> None:
    """Chrome trace-event JSON ("X" complete events, microseconds)."""
    tids: dict[int, int] = {}
    events = []
    pid = os.getpid()
    for span in sorted(spans, key=lambda s: s.start_ns):
        tid = tids.setdefault(span.tid, len(tids) + 1)
        events.append({
            "name": span.name,
            "cat": layer_of(span.name),
            "ph": "X",
            "ts": (span.start_ns - origin_ns) / 1000.0,
            "dur": (span.end_ns - span.start_ns) / 1000.0,
            "pid": pid,
            "tid": tid,
            "args": {"id": span.sid, "parent": span.parent, "tag": span.tag},
        })
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
