"""Write-ahead log for the query service: crash-durable request intent.

The serving tier's in-memory state — pending backlog, served views,
``execution_order`` — dies with the driver process.  The WAL makes the
*requests* durable so a restarted :class:`repro.serving.QueryService`
can rebuild all of it (:meth:`QueryService.recover`): every submission
is logged **before** admission, every completion after, and view DDL
when it lands.  Replay then re-creates the views, re-applies the
completed inserts in their original completion order (with strict
``Catalog.data_version`` checks — the sum of the tables' epochs: a
divergent one means the base catalog was not restored to its bootstrap
state, and continuing would mix data epochs), and re-admits everything
in flight.

Format: JSON lines, one record per line, each wrapped with a content
hash::

    {"crc": "<sha256(rec)[:16]>", "rec": {"seq": 3, "type": "submit", ...}}

A torn tail — the driver died mid-write — is expected, not fatal:
:meth:`WriteAheadLog.read` stops at the first undecodable or
hash-mismatched line and reports how many trailing lines it dropped.
Sequence numbers continue across restarts (the recovered service appends
after the crash point), so one file tells the whole multi-incarnation
story in order.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.errors import WALError

__all__ = ["WriteAheadLog"]


def _crc(rec: dict) -> str:
    body = json.dumps(rec, sort_keys=True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


class WriteAheadLog:
    """Append-only JSONL log with per-record content hashes.

    Opening an existing file continues its sequence numbering; records
    are flushed per append (the crash model is process death between
    lines, which replay tolerates as a torn tail).
    """

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        try:
            os.makedirs(directory, exist_ok=True)
            existing, _ = self.read(path) if os.path.exists(path) else ([], 0)
            self.seq = (existing[-1]["seq"] + 1) if existing else 0
            self._fh = open(path, "a", encoding="utf-8")
        except OSError as exc:
            raise WALError(f"cannot open WAL {path!r}: {exc}") from exc

    def append(self, rec: dict) -> int:
        """Stamp *rec* with the next sequence number and persist it."""
        rec = dict(rec)
        rec["seq"] = self.seq
        self.seq += 1
        line = json.dumps({"crc": _crc(rec), "rec": rec}, sort_keys=True)
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
        except (OSError, ValueError) as exc:
            raise WALError(
                f"cannot append to WAL {self.path!r}: {exc}") from exc
        return rec["seq"]

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    @staticmethod
    def read(path: str) -> tuple[list[dict], int]:
        """All intact records plus the count of dropped trailing lines.

        Reading stops at the first torn or hash-mismatched line; every
        line from there on counts as dropped.  A record whose effects
        are truncated mid-log (rather than at the tail) would be a real
        corruption, but distinguishing that from a torn tail is the
        replayer's job — this reader only guarantees each returned
        record is exactly what was written.
        """
        if not os.path.exists(path):
            raise WALError(f"no WAL at {path!r}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise WALError(f"cannot read WAL {path!r}: {exc}") from exc
        records: list[dict] = []
        for index, line in enumerate(lines):
            if not line.strip():
                return records, len(lines) - index
            try:
                wrapped = json.loads(line)
                rec = wrapped["rec"]
                ok = _crc(rec) == wrapped.get("crc")
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                return records, len(lines) - index
            records.append(rec)
        return records, 0
