"""The replay-cache key is the record's verified content digest.

A loaded or saved record carries the digest its envelope holds, so a
debugging session never re-serialises the record to find its cache key;
only a record that was never serialised (or came from a legacy envelope
without a digest) has its body digested, once.
"""

import json
import os
import pickle

import pytest

from repro import Machine, PPDSession, compile_program
from repro.perf import ReplayCache, record_digest
from repro.runtime import persist
from repro.runtime.persist import (
    RecordDigestError,
    load_record,
    record_from_json,
    record_to_json,
    save_record,
)
from repro.workloads import bank_race


def fresh_record():
    return Machine(compile_program(bank_race(3, 5)), seed=2, mode="logged").run()


@pytest.fixture
def count_serialisations(monkeypatch):
    """Counts calls that serialise a whole record body."""
    calls = {"record_to_json": 0, "_record_body": 0}
    for name in calls:
        original = getattr(persist, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(persist, name, counted)
    return calls


def test_loaded_record_keeps_the_fresh_records_digest(tmp_path):
    fresh = fresh_record()
    digest = record_digest(fresh)  # computed from the never-saved body
    path = str(tmp_path / "run.json")
    save_record(fresh, path)
    with open(path) as handle:
        assert json.load(handle)["digest"] == digest
    assert record_digest(load_record(path)) == digest
    assert record_digest(fresh_record()) == digest


def test_session_over_a_loaded_record_never_reserialises(tmp_path, count_serialisations):
    path = str(tmp_path / "run.json")
    save_record(fresh_record(), path)
    count_serialisations.update(record_to_json=0, _record_body=0)
    record = load_record(path)
    session = PPDSession(record, cache=ReplayCache())
    session.start()
    for pid, index in session.emulation.indexes.items():
        for interval_id in index:
            session.expand_interval(pid, interval_id)
    session.why_value("balance")
    session.races()
    session.localize()
    assert session.cache.stats.misses > 0
    assert count_serialisations == {"record_to_json": 0, "_record_body": 0}


def test_pickled_record_carries_its_digest(tmp_path, count_serialisations):
    path = str(tmp_path / "run.json")
    save_record(fresh_record(), path)
    record = load_record(path)
    count_serialisations.update(record_to_json=0, _record_body=0)
    clone = pickle.loads(pickle.dumps(record))
    assert record_digest(clone) == record_digest(record)
    assert count_serialisations == {"record_to_json": 0, "_record_body": 0}


def test_legacy_envelope_gets_a_stable_digest(count_serialisations):
    fresh = fresh_record()
    body = json.loads(record_to_json(fresh))
    del body["digest"]
    legacy = json.dumps(body)
    first, second = record_from_json(legacy), record_from_json(legacy)
    count_serialisations.update(record_to_json=0, _record_body=0)
    digest = record_digest(first)
    assert count_serialisations["_record_body"] == 1
    assert record_digest(first) == digest  # computed once, then stashed
    assert count_serialisations["_record_body"] == 1
    assert record_digest(second) == digest
    assert digest == record_digest(fresh)


def test_bit_flipped_record_fails_its_digest_and_is_quarantined(tmp_path):
    path = str(tmp_path / "run.json")
    save_record(fresh_record(), path)
    with open(path) as handle:
        text = handle.read()
    # Flip the low bit of a log entry's timestamp digit: the document still
    # parses and loads structurally, only its content digest can tell.
    index = text.index('"t":', text.index('"logs"')) + len('"t":')
    flipped = text[:index] + chr(ord(text[index]) ^ 1) + text[index + 1 :]
    with open(path, "w") as handle:
        handle.write(flipped)
    with pytest.raises(RecordDigestError) as excinfo:
        load_record(path)
    assert excinfo.value.quarantined == path + ".quarantined"
    assert os.path.exists(path + ".quarantined")
    assert not os.path.exists(path)
