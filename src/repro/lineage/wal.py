"""A write-ahead log for the seed-lineage registry.

The registry journals every mutation *before* applying it, so a
controller (LB) restart can rebuild the exact placement/lease/generation
state by replaying the log through the same apply path.  In the
simulation the "disk" is an in-memory list, but the discipline is real:
the registry never mutates state except through a journaled record, and
``audit_lineage`` cross-checks that a fresh replay reproduces the live
registry byte-for-byte.
"""


class WalRecord:
    """One journaled registry mutation."""

    __slots__ = ("seq", "at", "op", "payload")

    def __init__(self, seq, at, op, payload):
        self.seq = seq
        self.at = at
        self.op = op
        self.payload = payload

    def as_dict(self):
        """Plain-dict form (payload copied) for dumps and assertions."""
        return {"seq": self.seq, "at": self.at, "op": self.op,
                "payload": dict(self.payload)}

    def __repr__(self):
        return "WalRecord(seq=%d, op=%s, %r)" % (self.seq, self.op,
                                                 self.payload)


class WriteAheadLog:
    """Append-only record store with monotonically increasing sequence
    numbers.  Records are immutable once appended; truncation/compaction
    is deliberately not offered — the audit needs full history."""

    def __init__(self):
        self._records = []

    def append(self, at, op, **payload):
        """Journal one mutation; returns the sequenced record."""
        record = WalRecord(len(self._records), at, op, payload)
        self._records.append(record)
        return record

    def __iter__(self):
        return iter(self._records)

    def __len__(self):
        return len(self._records)

    def records(self):
        """The journal as a list copy (safe to iterate while appending)."""
        return list(self._records)
