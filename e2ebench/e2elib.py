"""Helpers of the end-to-end sweep benchmark (run.py), kept free of I/O
with the harness so they can be tested on their own (test_e2elib.py).

- tail_percentile: the highest percentile with enough samples beyond it;
- Accounting: attempted / failed bookkeeping behind fail_frac;
- span trees from sbn.trace.v1 shards, self time, and the exclusive
  attribution of a root span's wall time to layers.
"""

import glob
import json
import os
import statistics


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples, min_beyond=10):
    """Return (value, percentile, count) for the highest percentile of
    `samples` that still has at least `min_beyond` samples above it.

    The sorted samples are s[0] <= ... <= s[n-1]; the tail is s[k] with
    k = n - 1 - min_beyond, reported as percentile 100 * (k + 1) / n.
    A tail is never reported below the median: with fewer than
    2 * min_beyond + 2 samples the median stands in and the percentile
    reads 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    k = n - 1 - min_beyond
    if k < (n - 1) // 2 + 1:
        return median(ordered), 50.0, n
    return ordered[k], 100.0 * (k + 1) / n, n


class Accounting:
    """Attempted and failed units (grid points or daemon jobs).

    Everything that did not deliver a verified result counts as failed:
    a wrong or missing record, a refused submit (queue_full and the
    like), a job that ended failed, or an iteration that died without a
    result, whose every planned unit is lost.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused = 0

    def add(self, attempted, failed, refused=0):
        if failed > attempted or refused > failed or attempted < 0:
            raise ValueError("inconsistent counts %d/%d/%d"
                             % (attempted, failed, refused))
        self.attempted += attempted
        self.failed += failed
        self.refused += refused

    def lost(self, planned):
        """An iteration that produced no result: all `planned` units."""
        self.add(planned, planned)

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


# --------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------

class Span:
    __slots__ = ("id", "parent", "kind", "name", "pid", "start", "end",
                 "attrs", "children")

    def __init__(self, id, parent, kind, name, pid, start, end,
                 attrs=None):
        self.id = id
        self.parent = parent
        self.kind = kind
        self.name = name
        self.pid = pid
        self.start = start
        self.end = end
        self.attrs = attrs or {}
        self.children = []

    @property
    def duration(self):
        return self.end - self.start

    def __repr__(self):
        return "Span(%s %s %d-%d)" % (self.kind, self.name, self.start,
                                      self.end)


def load_spans(trace_dir):
    """Every sbn.trace.v1 span in a shard directory, times in seconds."""
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.jsonl"))):
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("type") != "sbn.trace.v1":
                    continue
                attrs = {k[2:]: v for k, v in rec.items()
                         if k.startswith("a_")}
                spans.append(Span(rec["span"], rec["parent"], rec["kind"],
                                  rec["name"], rec["pid"],
                                  rec["start_us"] / 1e6,
                                  rec["end_us"] / 1e6, attrs))
    return spans


def link(spans):
    """Fill each span's children from the parent ids; return the roots
    (spans whose parent is unknown)."""
    by_id = {s.id: s for s in spans}
    roots = []
    for s in spans:
        s.children = []
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is None or parent is s:
            roots.append(s)
        else:
            parent.children.append(s)
    return roots


def adopt(parent, child):
    """Make `child` (a root of another trace) a child of `parent`."""
    child.parent = parent.id
    parent.children.append(child)


def nest_cross_process(span):
    """Nest each child under the smallest sibling from *another process*
    whose interval contains it, recursively.

    Processes only name their parent by the span id they inherited, so
    a runner's spans hang off a daemon's job span beside the daemon's
    own "running" interval that really contains them. Same-process
    siblings are left alone: overlap there is concurrency (threads),
    not nesting.
    """
    changed = True
    while changed:
        changed = False
        for child in list(span.children):
            best = None
            for other in span.children:
                if (other is child or other.pid == child.pid
                        or other.start > child.start
                        or other.end < child.end
                        or other.duration <= child.duration):
                    continue
                if best is None or other.duration < best.duration:
                    best = other
            if best is not None:
                span.children.remove(child)
                best.children.append(child)
                changed = True
    for child in span.children:
        nest_cross_process(child)


def union_length(intervals):
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(span):
    """Duration minus the part of it covered by any child span: children
    may overlap each other (counted once) and may come from other
    processes (clipped to the span)."""
    clipped = [(max(c.start, span.start), min(c.end, span.end))
               for c in span.children]
    return span.duration - union_length(clipped)


def attribute(root, layer_of, split=None):
    """Split root's wall time exclusively over layers.

    At every instant the time goes to the innermost active spans (those
    with no active child), shared equally when several run at once,
    and each such span hands it to its layer - or, when `split(span)`
    returns [(layer, fraction), ...], to several layers. Children are
    clipped to their parents. The layer totals sum to root.duration.
    """
    nodes = []  # (start, end, span, parent index)

    def visit(span, lo, hi, parent_index):
        start, end = max(span.start, lo), min(span.end, hi)
        if end <= start:
            return
        index = len(nodes)
        nodes.append((start, end, span, parent_index))
        for child in span.children:
            visit(child, start, end, index)

    visit(root, root.start, root.end, -1)
    events = []
    for index, (start, end, _, _) in enumerate(nodes):
        events.append((start, 1, index))
        events.append((end, 0, index))
    events.sort()

    totals = {}
    active = set()
    active_children = [0] * len(nodes)
    previous = None
    for time, is_start, index in events:
        if previous is not None and time > previous and active:
            frontier = [i for i in active if active_children[i] == 0]
            share = (time - previous) / len(frontier)
            for i in frontier:
                span = nodes[i][2]
                parts = split(span) if split else None
                for layer, fraction in parts or [(layer_of(span), 1.0)]:
                    totals[layer] = totals.get(layer, 0.0) + share * fraction
        previous = time
        parent = nodes[index][3]
        if is_start:
            active.add(index)
            if parent >= 0:
                active_children[parent] += 1
        else:
            active.discard(index)
            if parent >= 0:
                active_children[parent] -= 1
    return totals


def walk(span):
    yield span
    for child in span.children:
        yield from walk(child)


def load_telemetry_lines(paths):
    """Sum sbn.telemetry.v1 JSONL records (e.g. worker sidecars)."""
    total = {}
    for path in paths:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                add_telemetry(total, json.loads(line))
    return total


def add_telemetry(total, record):
    for key, value in record.items():
        if key.startswith(("ctr.", "tmr.")) and isinstance(value,
                                                           (int, float)):
            total[key] = total.get(key, 0) + value
    return total
