"""The machine's kept ready list (DESIGN.md §3.4).

``Machine.run`` rebuilds its READY list only after a process enters or
leaves READY.  These tests wrap the scheduler's ``pick`` so that every step
checks the list it is handed against a fresh pid-ordered scan of the
machine's processes — the list the scheduler saw before the list was
kept — and check that a run only ends for want of READY processes when
there really are none.  Any missed transition would show as a different
list at some pick, or as a run that ends early.
"""

from __future__ import annotations

import gc
import os
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, compile_program, faults, workloads
from repro.runtime import ProcState
from repro.runtime.persist import record_to_json
from repro.workloads import MPI_FAMILIES, mpi_workload

from tests.test_fuzz import programs
from tests.test_fuzz_parallel import parallel_programs
from tests.vm.test_parity import EXAMPLES, WORKLOADS

ENGINES = ("interp", "vm")

AVG_INPUTS = [10, 20, 30, 40, 50]

#: every repro.workloads program and examples/*.pcl: the parity sweep's
#: table plus the MPI families, with and without a deviant rank
PROGRAMS = dict(WORKLOADS)
for _family in sorted(MPI_FAMILIES):
    PROGRAMS[_family] = (mpi_workload(_family, ranks=5), None)
    PROGRAMS[f"{_family}_deviant"] = (mpi_workload(_family, ranks=5, deviant=2), None)
for _path in EXAMPLES:
    with open(_path) as _handle:
        PROGRAMS[os.path.basename(_path)] = (_handle.read(), None)


def checked_picks(machine):
    """Wrap *machine*'s :meth:`Scheduler.pick` to assert, at every step,
    that its ``ready`` argument is exactly the fresh pid-ordered READY
    scan.  Returns the list of ready-list lengths seen, one per pick."""
    original = machine.scheduler.pick
    seen: list[int] = []

    def pick(ready):
        processes = machine.processes
        fresh = [p for p in processes.values() if p.state is ProcState.READY]
        assert ready == fresh, (
            f"pick {len(seen)}: ready={[p.pid for p in ready]} "
            f"fresh={[p.pid for p in fresh]}"
        )
        seen.append(len(ready))
        return original(ready)

    machine.scheduler.pick = pick
    return seen


def run_checked(compiled, **kwargs):
    """Run one machine under :func:`checked_picks`; check how it ended."""
    machine = Machine(compiled, **kwargs)
    seen = checked_picks(machine)
    record = machine.run()
    states = [p.state for p in machine.processes.values()]
    halted = record.failure is not None or record.breakpoint_hit is not None
    if not halted:
        # The loop ended for want of READY processes: there must be none.
        assert ProcState.READY not in states
    if record.deadlock is not None:
        blocked = [p.pid for p in machine.processes.values() if p.state is ProcState.BLOCKED]
        assert [pid for pid, _, _ in record.deadlock.blocked] == blocked
    # Every step went through a checked pick, bar the ones the VM fast
    # path elided; a halting step raised before it was counted.
    assert len(seen) == record.total_steps - machine.fastpath_elided + halted
    return machine, record


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_ready_list_matches_fresh_scan(name, engine):
    source, inputs = PROGRAMS[name]
    compiled = compile_program(source)
    for seed in range(3):
        for quantum in (1, 3):
            run_checked(compiled, seed=seed, quantum=quantum, inputs=inputs, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_deadlock_exit(engine):
    compiled = compile_program(workloads.dining_philosophers(3, courteous=False))
    deadlocks = 0
    for seed in range(20):
        _, record = run_checked(compiled, seed=seed, engine=engine)
        deadlocks += record.deadlock is not None
    assert deadlocks > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_assertion_failure_exit(engine):
    compiled = compile_program(workloads.buggy_average(5))
    machine, record = run_checked(compiled, seed=0, inputs=AVG_INPUTS, engine=engine)
    assert record.failure is not None and record.failure.kind == "assert"
    assert machine.processes[record.failure.pid].state is ProcState.FAILED


@pytest.mark.parametrize("engine", ENGINES)
def test_breakpoint_exit(engine):
    compiled = compile_program(workloads.bank_safe(3, 5))
    database = compiled.database
    target = next(
        label
        for label, node in database.stmt_by_label.items()
        if "balance = " in database.statement_text(node)
    )
    _, record = run_checked(compiled, seed=1, breakpoints={target}, engine=engine)
    assert record.breakpoint_hit is not None
    assert record.breakpoint_hit.stmt_label == target


@pytest.mark.parametrize("engine", ENGINES)
def test_sched_slow_faults_keep_the_schedule(engine):
    compiled = compile_program(workloads.producer_consumer(6, 2))
    _, clean = run_checked(compiled, seed=4, engine=engine)
    with faults.inject("sched.slow:n=40,s=0") as plan:
        _, slowed = run_checked(compiled, seed=4, engine=engine)
    assert plan.total_fired() == 40
    assert record_to_json(slowed) == record_to_json(clean)


@given(
    programs(),
    st.lists(st.integers(-50, 50), max_size=30),
    st.integers(0, 50),
    st.integers(1, 4),
    st.sampled_from(ENGINES),
)
@settings(max_examples=40, deadline=None)
def test_fuzz_programs_ready_list(source, inputs, seed, quantum, engine):
    run_checked(
        compile_program(source), seed=seed, quantum=quantum, inputs=list(inputs), engine=engine
    )


@given(
    parallel_programs(),
    st.integers(0, 50),
    st.integers(1, 4),
    st.sampled_from(ENGINES),
)
@settings(max_examples=40, deadline=None)
def test_fuzz_parallel_programs_ready_list(case, seed, quantum, engine):
    source, _ = case
    run_checked(compile_program(source), seed=seed, quantum=quantum, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_finished_machine_is_freed_without_the_collector(engine):
    """Processes point at their machine's ready flag, not at the machine:
    a finished run leaves no reference cycle, so the machine and its logs
    are freed as soon as it is dropped, not at the next collection."""
    compiled = compile_program(workloads.producer_consumer(6, 2))
    machine = Machine(compiled, seed=1, engine=engine)
    machine.run()
    gc.disable()
    try:
        ref = weakref.ref(machine)
        del machine
        assert ref() is None
    finally:
        gc.enable()
