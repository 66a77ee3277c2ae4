"""Incremental sync-edge splicing (§5.3): each expansion looks only at the
history edges touching the sync events it mapped, and adds each distinct
sync edge once.

The reference is the full-rescan algorithm: after every expansion it
translates the whole synchronization history through the cumulative
``trace_of_sync`` map.  The sync edges the session holds must be exactly
those rescans' edges, each once, in the order they first appeared,
whatever order the intervals are expanded in.
"""

from collections import Counter

import pytest

from repro import PPDSession, compile_program
from repro.baselines import run_with_full_trace
from repro.core import SYNC_EDGE
from repro.perf import ReplayCache
from repro.runtime import run_program
from repro.workloads import bank_race, ring_allreduce

PROGRAMS = {
    "ring8": ring_allreduce(8, deviant=3),
    "bank_race": bank_race(4, 40),
}


def full_rescan(history, trace_of_sync, graph) -> list[tuple[int, int, str]]:
    """Every history edge whose two endpoints are mapped onto graph nodes,
    in history order."""
    edges = []
    for edge in history.edges:
        src = trace_of_sync.get(edge.src_uid)
        dst = trace_of_sync.get(edge.dst_uid)
        if src is None or dst is None or src == dst:
            continue
        if src in graph.nodes and dst in graph.nodes:
            edges.append((src, dst, edge.label))
    return edges


def sync_edges(graph) -> list[tuple[int, int, str]]:
    return [(e.src, e.dst, e.label) for e in graph.edges if e.kind == SYNC_EDGE]


def all_intervals(session) -> list[tuple[int, int]]:
    return sorted(
        (pid, interval_id)
        for pid, index in session.emulation.indexes.items()
        for interval_id in index
    )


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def record(request):
    return run_program(PROGRAMS[request.param], seed=1)


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_every_expansion_matches_the_full_rescan(record, order):
    session = PPDSession(record, cache=ReplayCache())
    intervals = all_intervals(session)
    if order == "reverse":
        intervals.reverse()
    # The rescans' edges in first-seen order: the old splice minus repeats.
    expected: dict[tuple[int, int, str], None] = {}
    for pid, interval_id in intervals:
        session.expand_interval(pid, interval_id)
        for edge in full_rescan(record.history, session._trace_of_sync, session.graph):
            expected.setdefault(edge)
        assert sync_edges(session.graph) == list(expected), (pid, interval_id)
    assert expected, "the program synchronizes, so some sync edge must appear"


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_no_edge_is_added_twice(record, order):
    session = PPDSession(record, cache=ReplayCache())
    intervals = all_intervals(session)
    if order == "reverse":
        intervals.reverse()
    for pid, interval_id in intervals:
        session.expand_interval(pid, interval_id)
    counts = Counter((e.src, e.dst, e.kind, e.label) for e in session.graph.edges)
    duplicates = {edge: n for edge, n in counts.items() if n > 1}
    assert not duplicates


def test_one_shot_translation_without_new_uids():
    """The full-trace baseline translates the whole history in one call."""
    compiled = compile_program(PROGRAMS["bank_race"])
    session = run_with_full_trace(compiled, seed=1)
    record = session.record
    assert sync_edges(session.graph) == full_rescan(
        record.history, record.trace_of_sync, session.graph
    )
    assert sync_edges(session.graph)
