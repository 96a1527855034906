"""Critical-path analysis over finished trace trees.

:func:`breakdown` partitions a root span's entire interval across the
tree: every child interval (clipped against its siblings, earlier start
wins) is charged to the child, gaps between children are charged to the
parent as *self time*, and the charges sum **exactly** to the root's
end-to-end duration — the invariant that lets a trace reproduce the
paper's breakdown tables and be checked phase by phase against the
closed-form cost model (``experiments trace``).  ``max_depth`` stops
the recursion so, e.g., a fork span's phase-level split ignores
per-verb detail.

:func:`critical_path` walks the chain of latest-finishing children —
the spans whose completion gated the root's completion.
"""

__all__ = ["breakdown", "critical_path"]


def breakdown(span, max_depth=None):
    """Attribute ``span``'s duration to stage names; values sum to it.

    Returns ``{name: microseconds}``.  Raises :class:`ValueError` if the
    tree under ``span`` is not fully ended (analyze at quiescence).
    """
    if span.end_time is None:
        raise ValueError("cannot analyze open span %r" % span.name)
    out = {}
    _attribute(span, span.start, span.end_time, 0, max_depth, out)
    return out


def _attribute(span, lo, hi, depth, max_depth, out):
    """Charge ``[lo, hi)`` to ``span``'s subtree, clipping children."""
    cursor = lo
    for child in sorted(span.children, key=lambda c: (c.start, c.end_time)):
        if child.end_time is None:
            raise ValueError("cannot analyze open span %r" % child.name)
        start = max(child.start, cursor)
        end = min(child.end_time, hi)
        if end <= start:
            continue
        if start > cursor:
            out[span.name] = out.get(span.name, 0.0) + (start - cursor)
        if max_depth is not None and depth + 1 >= max_depth:
            out[child.name] = out.get(child.name, 0.0) + (end - start)
        else:
            _attribute(child, start, end, depth + 1, max_depth, out)
        cursor = end
    if hi > cursor:
        out[span.name] = out.get(span.name, 0.0) + (hi - cursor)


def critical_path(span):
    """The root-to-leaf chain of latest-finishing children.

    Each hop is the child whose end time gated its parent's completion;
    the returned list starts at ``span`` itself.
    """
    path = [span]
    node = span
    while True:
        ended = [c for c in node.children if c.end_time is not None]
        if not ended:
            return path
        node = max(ended, key=lambda c: (c.end_time, c.start))
        path.append(node)

