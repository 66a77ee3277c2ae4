"""The engine under the debug service: a session the server runs on the
bytecode VM must answer every debugger command exactly like a session
run on the tree-walking interpreter (selected only through the
machine's ``DEFAULT_ENGINE`` oracle hook), and survive eviction +
rehydration unchanged."""

from __future__ import annotations

from repro.perf import ReplayCache
from repro.runtime import machine
from repro.server import SessionManager
from repro.workloads import bank_race, buggy_average

AVG_INPUTS = [10, 20, 30, 40, 50]
COMMANDS = ["where", "races", "why average", "stats", "parallel", "output"]


def transcript(mgr, sid):
    return {cmd: mgr.execute(sid, cmd) for cmd in COMMANDS}


def open_and_transcribe(tmp_path):
    # A private cache per session, so neither side is served replays the
    # other engine produced.
    mgr = SessionManager(max_live=4, spool_dir=str(tmp_path), cache=ReplayCache())
    try:
        sid, info = mgr.open_program(buggy_average(5), seed=0, inputs=AVG_INPUTS)
        return info["status"], transcript(mgr, sid)
    finally:
        mgr.close_all()


def test_vm_session_matches_interp_session(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(machine, "DEFAULT_ENGINE", "interp")
        interp = open_and_transcribe(tmp_path / "interp")
    vm = open_and_transcribe(tmp_path / "vm")
    assert interp == vm


def test_vm_engine_survives_rehydration(tmp_path):
    mgr = SessionManager(max_live=1, spool_dir=str(tmp_path))
    try:
        sid, _ = mgr.open_program(bank_race(2, 2), seed=3)
        before = transcript(mgr, sid)
        mgr.open_program(buggy_average(5), seed=0, inputs=AVG_INPUTS)  # evicts
        assert not mgr.is_live(sid)
        assert transcript(mgr, sid) == before
    finally:
        mgr.close_all()
