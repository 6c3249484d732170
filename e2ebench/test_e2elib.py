"""Tests of the benchmark's own helpers (e2elib.py).

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

import e2elib
from e2elib import Span


class TailPercentile(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        value, percentile, count = e2elib.tail_percentile(samples)
        self.assertEqual(count, 100)
        self.assertEqual(value, 90)
        self.assertAlmostEqual(percentile, 90.0)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 3.0, 2.0] * 5
        self.assertEqual(e2elib.tail_percentile(samples),
                         e2elib.tail_percentile(sorted(samples)))

    def test_smallest_sample_count_above_the_median(self):
        samples = [float(i) for i in range(22)]
        value, percentile, _ = e2elib.tail_percentile(samples)
        self.assertEqual(value, 11.0)  # above the median 10.5
        self.assertAlmostEqual(percentile, 100.0 * 12 / 22)

    def test_too_few_samples_fall_back_to_the_median(self):
        value, percentile, count = e2elib.tail_percentile([3, 1, 2])
        self.assertEqual((value, percentile, count), (2, 50.0, 3))
        # 21 samples would put the tail at s[10], the median itself.
        samples = [float(i) for i in range(21)]
        self.assertEqual(e2elib.tail_percentile(samples),
                         (10.0, 50.0, 21))
        # 15 samples would put it at s[4], below the median.
        samples = [float(i) for i in range(15)]
        self.assertEqual(e2elib.tail_percentile(samples),
                         (7.0, 50.0, 15))

    def test_failed_jobs_rank_beyond_every_latency(self):
        samples = [0.1] * 20 + [float("inf")] * 10
        value, _, _ = e2elib.tail_percentile(samples)
        self.assertEqual(value, 0.1)
        samples.append(float("inf"))
        self.assertEqual(e2elib.tail_percentile(samples)[0],
                         float("inf"))


class FailFraction(unittest.TestCase):
    def test_counts_wrong_records_against_attempts(self):
        acc = e2elib.Accounting()
        acc.add(160, 0)
        acc.add(160, 2)
        self.assertEqual((acc.attempted, acc.failed), (320, 2))
        self.assertAlmostEqual(acc.fail_frac, 2 / 320)

    def test_refused_submits_count_as_failed_attempts(self):
        acc = e2elib.Accounting()
        acc.add(40, 3, refused=3)  # three queue_full refusals
        acc.add(40, 1, refused=0)  # one job whose payload was wrong
        self.assertEqual((acc.attempted, acc.failed, acc.refused),
                         (80, 4, 3))
        self.assertAlmostEqual(acc.fail_frac, 4 / 80)

    def test_lost_iteration_fails_every_planned_unit(self):
        acc = e2elib.Accounting()
        acc.add(160, 0)
        acc.lost(160)
        self.assertAlmostEqual(acc.fail_frac, 0.5)

    def test_rejects_inconsistent_counts(self):
        acc = e2elib.Accounting()
        with self.assertRaises(ValueError):
            acc.add(10, 11)
        with self.assertRaises(ValueError):
            acc.add(10, 1, refused=2)

    def test_nothing_attempted_is_total_failure(self):
        self.assertEqual(e2elib.Accounting().fail_frac, 1.0)


def tree(*spans):
    e2elib.link(spans)
    return spans


class SelfTime(unittest.TestCase):
    def test_plain_nesting(self):
        root = Span("r", "0", "bench.job", "root", 1, 0.0, 10.0)
        a = Span("a", "r", "bench.spec", "a", 1, 0.0, 2.0)
        b = Span("b", "r", "bench.exec", "b", 1, 2.0, 9.0)
        tree(root, a, b)
        self.assertAlmostEqual(e2elib.self_time(root), 1.0)
        self.assertAlmostEqual(e2elib.self_time(b), 7.0)

    def test_overlapping_children_count_once(self):
        root = Span("r", "0", "bench.exec", "exec", 1, 0.0, 10.0)
        kids = [Span("p%d" % i, "r", "bench.point", "p", 1, s, e)
                for i, (s, e) in enumerate([(0, 6), (1, 7), (2, 5), (8, 9)])]
        tree(root, *kids)
        # union of children = [0,7] + [8,9] = 8 s
        self.assertAlmostEqual(e2elib.self_time(root), 2.0)

    def test_children_in_other_processes_are_clipped(self):
        # A worker span (other pid) that starts before and ends after
        # its parent's interval on the parent's clock.
        attempt = Span("a", "0", "attempt", "a", 10, 1.0, 5.0)
        worker = Span("w", "a", "shard_run", "w", 11, 0.5, 5.5)
        tree(attempt, worker)
        self.assertAlmostEqual(e2elib.self_time(attempt), 0.0)


class Attribution(unittest.TestCase):
    def layer(self, span):
        return {"bench.job": "bench", "bench.exec": "exec",
                "bench.point": "core", "attempt": "supervisor",
                "shard_run": "shard", "job": "service",
                "running": "service", "supervise": "supervisor"}.get(
                    span.kind, "bench")

    def test_sums_to_root_with_overlapping_children(self):
        root = Span("r", "0", "bench.job", "root", 1, 0.0, 10.0)
        execution = Span("x", "r", "bench.exec", "exec", 1, 1.0, 9.0)
        p1 = Span("p1", "x", "bench.point", "p", 1, 1.0, 5.0)
        p2 = Span("p2", "x", "bench.point", "p", 1, 3.0, 8.0)
        spans = tree(root, execution, p1, p2)
        totals = e2elib.attribute(spans[0], self.layer)
        self.assertAlmostEqual(sum(totals.values()), 10.0)
        # Points cover [1,8]; exec alone covers [8,9]; root [0,1]+[9,10].
        self.assertAlmostEqual(totals["core"], 7.0)
        self.assertAlmostEqual(totals["exec"], 1.0)
        self.assertAlmostEqual(totals["bench"], 2.0)

    def test_concurrent_leaves_share_the_instant(self):
        root = Span("r", "0", "bench.job", "root", 1, 0.0, 4.0)
        point = Span("p", "r", "bench.point", "p", 1, 0.0, 4.0)
        attempt = Span("a", "r", "attempt", "a", 2, 0.0, 4.0)
        spans = tree(root, point, attempt)
        totals = e2elib.attribute(spans[0], self.layer)
        self.assertAlmostEqual(totals["core"], 2.0)
        self.assertAlmostEqual(totals["supervisor"], 2.0)

    def test_split_hands_a_span_to_several_layers(self):
        root = Span("r", "0", "bench.job", "root", 1, 0.0, 10.0)
        worker = Span("w", "r", "shard_run", "w", 2, 0.0, 10.0)
        spans = tree(root, worker)

        def split(span):
            if span.kind == "shard_run":
                return [("core", 0.75), ("shard", 0.25)]
            return None
        totals = e2elib.attribute(spans[0], self.layer, split)
        self.assertAlmostEqual(totals["core"], 7.5)
        self.assertAlmostEqual(totals["shard"], 2.5)

    def test_cross_process_children_nest_and_clip(self):
        # A client's job span adopts the daemon's job span; the runner's
        # supervise span names the daemon job as parent but really runs
        # inside the daemon's "running" interval, and a worker span from
        # a third process overhangs its attempt.
        client = Span("c", "0", "bench.job", "client", 1, 0.0, 10.0)
        job = Span("j", "0", "job", "job 1", 2, 0.5, 9.0)
        running = Span("run", "j", "running", "running", 2, 1.0, 8.5)
        supervise = Span("s", "j", "supervise", "sup", 3, 2.0, 8.0)
        attempt = Span("a", "s", "attempt", "att", 3, 2.5, 7.5)
        worker = Span("w", "a", "shard_run", "w", 4, 2.4, 7.6)
        spans = [client, job, running, supervise, attempt, worker]
        roots = e2elib.link(spans)
        self.assertEqual(set(roots), {client, job})
        e2elib.adopt(client, job)
        e2elib.nest_cross_process(client)
        self.assertIn(supervise, running.children)
        self.assertNotIn(supervise, job.children)
        totals = e2elib.attribute(client, self.layer)
        self.assertAlmostEqual(sum(totals.values()), 10.0)
        self.assertAlmostEqual(totals["shard"], 5.0)  # clipped to attempt
        self.assertAlmostEqual(totals["supervisor"], 1.0)
        # client [0,0.5]+[9,10]; job [0.5,1]+[8.5,9]; running [1,2]+[8,8.5]
        self.assertAlmostEqual(totals["bench"], 1.5)
        self.assertAlmostEqual(totals["service"], 2.5)

    def test_same_process_overlap_is_not_nesting(self):
        parent = Span("x", "0", "bench.exec", "exec", 1, 0.0, 10.0)
        long_point = Span("p", "x", "bench.point", "p", 1, 0.0, 9.0)
        emit = Span("e", "x", "bench.emit", "e", 1, 4.0, 4.5)
        tree(parent, long_point, emit)
        e2elib.nest_cross_process(parent)
        self.assertIn(emit, parent.children)


class Loading(unittest.TestCase):
    def test_reads_trace_shards_and_telemetry(self):
        with tempfile.TemporaryDirectory() as folder:
            with open(os.path.join(folder, "trace-7.jsonl"), "w") as f:
                f.write(json.dumps({
                    "type": "sbn.trace.v1", "trace": "t", "span": "s1",
                    "parent": "0000000000000000", "kind": "merge",
                    "name": "collect", "pid": 7, "start_us": 1000,
                    "end_us": 3500, "a_files": "4"}) + "\n")
            spans = e2elib.load_spans(folder)
            self.assertEqual(len(spans), 1)
            self.assertAlmostEqual(spans[0].duration, 0.0025)
            self.assertEqual(spans[0].attrs, {"files": "4"})

            sidecar = os.path.join(folder, "telemetry-shard-0-of-2.jsonl")
            with open(sidecar, "w") as f:
                f.write('{"type":"sbn.telemetry.v1","ctr.sim.runs":3,'
                        '"tmr.sim.run_ns":100}\n')
                f.write('{"type":"sbn.telemetry.v1","ctr.sim.runs":2,'
                        '"tmr.sim.run_ns":50}\n')
            total = e2elib.load_telemetry_lines([sidecar])
            self.assertEqual(total, {"ctr.sim.runs": 5,
                                     "tmr.sim.run_ns": 150})


if __name__ == "__main__":
    unittest.main()
