"""Append-only, hash-chained decision ledger.

Each line is a JSON record carrying the sha256 of the previous line's
hash plus its own canonical content, so any historical edit is
detectable by `verify`.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Optional

ID_PATTERN = re.compile(r"^D\d{3,}$")
GENESIS = "0" * 64
RECORD_FIELDS = ("id", "text", "status", "created_at", "evidence_refs")


class LedgerError(ValueError):
    pass


@dataclass(frozen=True)
class DecisionRecord:
    id: str
    text: str
    status: str = "OPEN"  # OPEN | LOCKED
    created_at: str = ""
    evidence_refs: tuple[str, ...] = ()
    supersedes: Optional[str] = None

    def __post_init__(self) -> None:
        if not ID_PATTERN.match(self.id):
            raise LedgerError(f"bad decision id {self.id!r} (want D###)")
        if self.status not in ("OPEN", "LOCKED"):
            raise LedgerError(f"bad status {self.status!r}")


def _canonical(record: DecisionRecord, prev_hash: str) -> str:
    body = asdict(record)
    body["evidence_refs"] = list(record.evidence_refs)
    body["prev"] = prev_hash
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _hash(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Ledger:
    """File-backed append-only ledger; single writer."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def _objects(self, *fields: str) -> list[tuple[int, dict]]:
        """Each non-blank line's JSON object with its line number, counting every line
        from 1. A line that is not a JSON object with every one of ``fields`` raises
        LedgerError."""
        if not self.path.exists():
            return []
        out = []
        for i, ln in enumerate(self.path.read_text(encoding="utf-8").splitlines(), start=1):
            if not ln.strip():
                continue
            try:
                obj = json.loads(ln)
            except json.JSONDecodeError as exc:
                raise LedgerError(f"line {i}: not JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise LedgerError(f"line {i}: not a JSON object")
            missing = [f for f in fields if f not in obj]
            if missing:
                raise LedgerError(f"line {i}: no {missing[0]!r} field")
            out.append((i, obj))
        return out

    def records(self) -> list[DecisionRecord]:
        out = []
        for i, obj in self._objects(*RECORD_FIELDS):
            refs, supersedes = obj["evidence_refs"], obj.get("supersedes")
            if not (all(isinstance(obj[f], str) for f in RECORD_FIELDS[:4])
                    and isinstance(refs, list) and all(isinstance(r, str) for r in refs)
                    and (supersedes is None or isinstance(supersedes, str))):
                raise LedgerError(f"line {i}: a record field of the wrong type")
            try:
                out.append(DecisionRecord(
                    id=obj["id"], text=obj["text"], status=obj["status"],
                    created_at=obj["created_at"], evidence_refs=tuple(refs),
                    supersedes=supersedes))
            except LedgerError as exc:
                raise LedgerError(f"line {i}: {exc}") from None
        return out

    def append(self, record: DecisionRecord) -> None:
        """Append one record; duplicate ids (unless superseding) are rejected."""
        existing = {r.id: r for r in self.records()}
        if record.id in existing:
            raise LedgerError(f"duplicate decision id {record.id}")
        if record.supersedes is not None:
            if record.supersedes not in existing:
                raise LedgerError(f"supersedes unknown id {record.supersedes}")
        chain = self._objects("hash")
        prev = chain[-1][1]["hash"] if chain else GENESIS
        canonical = _canonical(record, prev)
        obj = json.loads(canonical)
        obj["hash"] = _hash(canonical)
        with self.path.open("a+", encoding="utf-8") as fh:
            fh.seek(0)  # a last record without its newline still ends before this one
            fh.write("\n" * (fh.read()[-1:] not in ("", "\n"))
                     + json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")

    def verify(self) -> None:
        """Walk the hash chain; raises LedgerError naming the first bad line."""
        prev = GENESIS
        for i, obj in self._objects(*RECORD_FIELDS, "hash", "prev"):
            claimed = obj.pop("hash")
            if obj["prev"] != prev:
                raise LedgerError(f"line {i}: chain break (prev hash mismatch)")
            canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            if _hash(canonical) != claimed:
                raise LedgerError(f"line {i}: content hash mismatch")
            prev = claimed

    def by_status(self, status: str) -> list[DecisionRecord]:
        return [r for r in self.records() if r.status == status]
