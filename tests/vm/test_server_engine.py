"""Engine selection through the debug service: a session opened with
``engine="vm"`` must answer every debugger command exactly like an
interpreter-backed session, survive eviction + rehydration with its
engine intact, and the wire protocol must reject unknown engines."""

from __future__ import annotations

import pytest

from repro.server import SessionManager
from repro.server.protocol import ProtocolError, Request, validate_request
from repro.workloads import bank_race, buggy_average

AVG_INPUTS = [10, 20, 30, 40, 50]
COMMANDS = ["where", "races", "why average", "stats", "parallel", "output"]


def transcript(mgr, sid):
    return {cmd: mgr.execute(sid, cmd) for cmd in COMMANDS}


def test_vm_session_matches_interp_session(tmp_path):
    mgr = SessionManager(max_live=4, spool_dir=str(tmp_path))
    try:
        sid_interp, info_interp = mgr.open_program(
            buggy_average(5), seed=0, inputs=AVG_INPUTS, engine="interp"
        )
        sid_vm, info_vm = mgr.open_program(
            buggy_average(5), seed=0, inputs=AVG_INPUTS, engine="vm"
        )
        assert info_interp["status"] == info_vm["status"]
        assert transcript(mgr, sid_interp) == transcript(mgr, sid_vm)
    finally:
        mgr.close_all()


def test_vm_engine_survives_rehydration(tmp_path):
    mgr = SessionManager(max_live=1, spool_dir=str(tmp_path))
    try:
        sid, _ = mgr.open_program(bank_race(2, 2), seed=3, engine="vm")
        before = transcript(mgr, sid)
        mgr.open_program(buggy_average(5), seed=0, inputs=AVG_INPUTS)  # evicts
        assert not mgr.is_live(sid)
        assert transcript(mgr, sid) == before
        entry = next(e for e in mgr.list_info() if e["session"] == sid)
        assert entry["engine"] == "vm"
    finally:
        mgr.close_all()


def test_default_engine_is_recorded(tmp_path):
    mgr = SessionManager(max_live=2, spool_dir=str(tmp_path))
    try:
        sid, _ = mgr.open_program(buggy_average(5), seed=0, inputs=AVG_INPUTS)
        entry = next(e for e in mgr.list_info() if e["session"] == sid)
        assert entry["engine"] == "vm"
    finally:
        mgr.close_all()


def test_protocol_rejects_unknown_engine():
    bad = Request(op="open", payload={"program": "proc main() {}", "engine": "jit"})
    with pytest.raises(ProtocolError):
        validate_request(bad)
    for good_engine in ("interp", "vm", None):
        payload = {"program": "proc main() {}"}
        if good_engine is not None:
            payload["engine"] = good_engine
        validate_request(Request(op="open", payload=payload))
