"""Fixture: snapshot-read-only positives, suppression, and clean reads."""


def corrupt(descriptor, vpn, snap):
    descriptor.pte_snapshots[vpn] = snap  # flagged: item assignment


def drop(table, vpn):
    del table.snapshot[vpn]  # flagged: item deletion


def merge(descriptor, extra):
    descriptor.pte_snapshots.update(extra)  # flagged


def evict(table, vpn):
    table.snapshot.pop(vpn, None)  # flagged


def wipe(descriptor):
    descriptor.pte_snapshots.clear()  # flagged


def pin(descriptor, vpn, snap):
    descriptor.pte_snapshots.setdefault(vpn, snap)  # flagged


def drain(table):
    table.snapshot.popitem()  # flagged


def corrupt_suppressed(descriptor, vpn, snap):
    descriptor.pte_snapshots[vpn] = snap  # reprolint: disable=snapshot-read-only


def read_ok(descriptor, table, vpn):
    snap = descriptor.pte_snapshots.get(vpn)  # clean: a read
    return snap, vpn in table.snapshot, len(descriptor.pte_snapshots)


def build_ok(own, vpn, snap):
    pte_snapshots = dict(own)  # clean: a new map, not a published one
    pte_snapshots[vpn] = snap
    pte_snapshots.update(own)
    return pte_snapshots


def registry_ok(registry, state):
    state.snapshots[0] = registry.snapshot()  # clean: other attributes
