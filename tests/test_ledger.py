from __future__ import annotations

import json
import re

import pytest

from falsify.ledger import DecisionRecord, Ledger, LedgerError


def rec(i, text="use defaults", status="OPEN", supersedes=None):
    return DecisionRecord(id=f"D{i:03d}", text=text, status=status,
                          created_at="2022-01-03T09:30:00", supersedes=supersedes)


def test_append_and_read_round_trip(tmp_path):
    led = Ledger(tmp_path / "ledger.jsonl")
    led.append(rec(1, "pick tick size 0.25"))
    led.append(rec(2, "friction 2.0 points", status="LOCKED"))
    records = led.records()
    assert [r.id for r in records] == ["D001", "D002"]
    assert records[1].status == "LOCKED"
    led.verify()


def test_append_after_a_last_line_without_its_newline_starts_a_new_line(tmp_path):
    led = Ledger(tmp_path / "ledger.jsonl")
    led.append(rec(1))
    led.path.write_text(led.path.read_text(encoding="utf-8").rstrip("\n"), encoding="utf-8")
    led.append(rec(2))
    assert [r.id for r in led.records()] == ["D001", "D002"]
    assert len(led.path.read_text(encoding="utf-8").splitlines()) == 2
    led.verify()


def test_duplicate_id_rejected(tmp_path):
    led = Ledger(tmp_path / "ledger.jsonl")
    led.append(rec(1))
    with pytest.raises(LedgerError, match="duplicate"):
        led.append(rec(1, "second attempt"))


def test_supersedes_must_exist(tmp_path):
    led = Ledger(tmp_path / "ledger.jsonl")
    led.append(rec(1))
    with pytest.raises(LedgerError, match="unknown"):
        led.append(rec(2, supersedes="D099"))
    led.append(rec(3, "revised choice", supersedes="D001"))
    assert led.records()[-1].supersedes == "D001"


def test_bad_id_and_status_rejected():
    with pytest.raises(LedgerError):
        DecisionRecord(id="X1", text="t")
    with pytest.raises(LedgerError):
        DecisionRecord(id="D1", text="t")
    with pytest.raises(LedgerError):
        DecisionRecord(id="D001", text="t", status="MAYBE")


def test_tampering_names_the_line(tmp_path):
    p = tmp_path / "ledger.jsonl"
    led = Ledger(p)
    for i in range(1, 4):
        led.append(rec(i))
    lines = p.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1])
    obj["text"] = "rewritten history"
    lines[1] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(LedgerError, match="line 2"):
        led.verify()


def test_deleted_line_breaks_the_chain(tmp_path):
    p = tmp_path / "ledger.jsonl"
    led = Ledger(p)
    for i in range(1, 4):
        led.append(rec(i))
    lines = p.read_text(encoding="utf-8").splitlines()
    p.write_text("\n".join([lines[0], lines[2]]) + "\n", encoding="utf-8")
    with pytest.raises(LedgerError, match="line 2"):
        led.verify()


def test_status_filter(tmp_path):
    led = Ledger(tmp_path / "ledger.jsonl")
    led.append(rec(1, status="LOCKED"))
    led.append(rec(2, status="OPEN"))
    led.append(rec(3, status="LOCKED"))
    assert [r.id for r in led.by_status("LOCKED")] == ["D001", "D003"]
    assert [r.id for r in led.by_status("OPEN")] == ["D002"]


def test_d100_locked_round_trip(tmp_path):
    led = Ledger(tmp_path / "ledger.jsonl")
    led.append(DecisionRecord(id="D100", text="freeze the gate thresholds",
                              status="LOCKED", created_at="2023-06-01T00:00:00",
                              evidence_refs=("runs/abc123/summary.md",)))
    led.verify()
    r = led.records()[0]
    assert r.id == "D100"
    assert r.status == "LOCKED"
    assert r.evidence_refs == ("runs/abc123/summary.md",)


def test_empty_ledger_verifies(tmp_path):
    Ledger(tmp_path / "missing.jsonl").verify()


@pytest.mark.parametrize("line,error,verify_error", [
    ("garbage", "line 3: not JSON", None),
    ("[1]", "line 3: not a JSON object", None),
    ('{"id":"D002"}', "line 3: no 'text' field", None),
    ('{"id":"D002","text":"t","status":"OPEN","created_at":"","evidence_refs":"abc"}',
     "line 3: a record field of the wrong type", "line 3: no 'hash' field"),
    ('{"id":"X2","text":"t","status":"OPEN","created_at":"","evidence_refs":[]}',
     "line 3: bad decision id 'X2'", "line 3: no 'hash' field"),
], ids=["not_json", "not_object", "no_text", "refs_not_a_list", "bad_id"])
def test_an_unreadable_line_names_its_number(tmp_path, line, error, verify_error):
    p = tmp_path / "ledger.jsonl"
    led = Ledger(p)
    led.append(rec(1))
    # the blank line is counted, as an editor counts it
    p.write_text(p.read_text(encoding="utf-8") + "\n" + line + "\n", encoding="utf-8")
    for op in (led.records, lambda: led.by_status("OPEN"), lambda: led.append(rec(3))):
        with pytest.raises(LedgerError, match=re.escape(error)):
            op()
    with pytest.raises(LedgerError, match=re.escape(verify_error or error)):
        led.verify()


@pytest.mark.parametrize("field", ["hash", "prev"])
def test_verify_names_a_line_without_its_chain_field(tmp_path, field):
    p = tmp_path / "ledger.jsonl"
    Ledger(p).append(rec(1))
    obj = json.loads(p.read_text(encoding="utf-8"))
    del obj[field]
    p.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(LedgerError, match=f"line 1: no '{field}' field"):
        Ledger(p).verify()
    if field == "hash":  # append chains on from the last line's hash
        with pytest.raises(LedgerError, match="line 1: no 'hash' field"):
            Ledger(p).append(rec(2))
