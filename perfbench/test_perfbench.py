"""Self-tests of the benchmark's own arithmetic and parsing.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import procfs  # noqa: E402
import workloads  # noqa: E402
from measure import (  # noqa: E402
    Window,
    merge_windows,
    percentile,
    relative_iqr,
    samples_beyond,
    slice_mean,
    uncovered_time,
    union,
)
from tracing import Patcher, SpanStore  # noqa: E402


class TestPercentile:
    def test_reported_only_with_ten_samples_beyond(self):
        assert samples_beyond(20, 50) == 10
        assert percentile(list(range(20)), 50) is not None
        assert percentile(list(range(19)), 50) is None
        assert samples_beyond(100, 90) == 10
        assert percentile(list(range(100)), 90) is not None
        assert percentile(list(range(99)), 90) is None
        assert percentile([], 50) is None

    def test_nearest_rank(self):
        samples = [float(v) for v in range(100, 0, -1)]  # 100 .. 1, unsorted
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 90) == 90.0

    def test_relative_iqr_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        # statistics.quantiles (exclusive): q1 = 2.75, median = 5.5, q3 = 8.25
        assert relative_iqr(values) == pytest.approx((8.25 - 2.75) / 5.5)
        assert relative_iqr([3.0]) == math.inf


class TestWindow:
    def test_paused_time_leaves_the_window(self):
        window = Window(
            wall_s=2.5, paused_s=0.5, requests=100, rows=400,
            client_cpu_s=0.2, server_cpu_s=0.8,
        )
        assert window.busy_s == 2.0
        assert window.rows_per_s == 200.0
        assert window.server_cpu_us_per_row == pytest.approx(2000.0)
        assert window.client_cpu_us_per_row == pytest.approx(500.0)

    def test_merge_pools_counters(self):
        a = Window(1.0, 0.0, 10, 10, 0.1, 0.2)
        b = Window(3.0, 1.0, 30, 30, 0.3, 0.6)
        merged = merge_windows([a, b])
        assert merged.rows_per_s == pytest.approx(40 / 3.0)
        assert merged.server_cpu_us_per_row == pytest.approx(0.8 / 40 * 1e6)

    def test_slice_mean_follows_the_share_of_slow_slices(self):
        fast, slow = Window(1.0, 0.0, 10, 10, 0.1, 0.1), Window(2.0, 0.0, 10, 10, 0.2, 0.2)
        rate = lambda w: w.rows_per_s  # noqa: E731
        assert slice_mean([fast, fast, slow], rate) == pytest.approx(25 / 3)
        assert slice_mean([fast, slow, slow], rate) == pytest.approx(20 / 3)


class TestSpans:
    def test_union_merges_overlaps_and_drops_empty(self):
        assert union([(5, 6), (1, 3), (2, 4), (7, 7)]) == [(1, 4), (5, 6)]

    def test_self_time_subtracts_child_covered_time_once(self):
        # Children overlap each other (1-4 covered once) and one sticks out
        # of the span (only 8-10 counts).
        assert uncovered_time([(0, 10)], [(1, 3), (2, 4), (8, 12)]) == pytest.approx(5.0)
        assert uncovered_time([(0, 10)], []) == 10.0
        assert uncovered_time([(0, 10)], [(-5, 20)]) == 0.0

    def test_uncovered_time_over_overlapping_requests(self):
        # Two requests in flight over 0-6; spans cover 1-2 and 4-5.
        roots = [(0, 4), (3, 6)]
        assert uncovered_time(roots, [(1, 2), (4, 5)]) == pytest.approx(4.0)


class EchoClient:
    """A stand-in ``NormClient`` whose every answer is the request rows."""

    @staticmethod
    def answer(rows):
        return SimpleNamespace(
            output=rows, mean=rows[:, 0], isd=rows[:, 1],
            queue_wait=1e-4, batch_size=1, was_predicted=False,
        )

    def normalize(self, rows, model, layer_index):
        return self.answer(rows)


class TestLoop:
    def make_loop(self, monkeypatch):
        monkeypatch.setattr(workloads, "SLICE_S", 0.05)
        loop = workloads.Loop(workloads.WORKLOADS["decode-lockstep"], seed=3)
        loop.num_layers = 2
        loop.expected = {
            (p, 1): workloads.digest([EchoClient.answer(t) for t in loop.payloads[p]])
            for p in range(loop.workload.pool)
        }
        return loop

    def test_check_time_leaves_the_window(self, monkeypatch):
        loop = self.make_loop(monkeypatch)
        sample = loop.run(EchoClient(), 0.1)
        assert sample.window.paused_s > 0.0
        assert sample.window.busy_s < sample.window.wall_s
        assert sample.window.busy_s >= 0.1
        # Every response was checked.
        assert len(sample.queue_waits_s) == loop.tally.attempted == sample.window.requests
        assert loop.tally.mismatched == 0

    def test_mismatch_is_counted(self, monkeypatch):
        loop = self.make_loop(monkeypatch)
        loop.expected[(0, 1)] ^= 1
        loop.run(EchoClient(), 0.1)
        assert loop.tally.mismatched > 0

    def test_digest_sees_dtype_shape_and_bytes(self):
        rows = np.arange(8.0).reshape(2, 4)
        base = workloads.digest([EchoClient.answer(rows)])
        assert workloads.digest([EchoClient.answer(rows.copy())]) == base
        flipped = rows.copy()
        flipped.view(np.uint64)[1, 3] ^= 1  # one mantissa bit
        assert workloads.digest([EchoClient.answer(flipped)]) != base
        assert workloads.digest([EchoClient.answer(rows.reshape(4, 2))]) != base
        assert workloads.digest([EchoClient.answer(rows.view(np.int64))]) != base


STAT = (
    "4242 (python3 (x) y) S 1 4242 4242 0 -1 4194560 2000 0 0 0 "
    "250 50 0 0 20 0 9 0 100 1000000 5000 18446744073709551615"
)


class TestProcfs:
    def test_stat_cpu_counts_from_the_last_paren(self):
        assert procfs.parse_stat_cpu_s(STAT) == pytest.approx(300 / procfs.CLOCK_TICKS)

    def test_status_fields(self):
        status = procfs.parse_status(
            "Name:\tpython3\nVmHWM:\t  113456 kB\nvoluntary_ctxt_switches:\t17\n"
        )
        assert procfs.status_kib(status, "VmHWM") == 113456
        assert status["voluntary_ctxt_switches"] == "17"

    def test_steal_share(self):
        before = procfs.parse_proc_stat("cpu  100 0 50 800 10 0 0 40 0 0\ncpu0 1 2 3\n")
        after = procfs.parse_proc_stat("cpu  150 0 70 900 10 0 0 50 0 0\n")
        assert procfs.steal_share(before, after) == pytest.approx(10 / 180)
        with pytest.raises(ValueError):
            procfs.parse_proc_stat("intr 1 2 3\n")

    def test_live_readers(self):
        pid = os.getpid()
        assert procfs.process_cpu_s(pid) > 0
        assert procfs.peak_rss_mib(pid) > 1


class TestTracing:
    def test_nested_calls_of_one_name_record_once(self):
        store = SpanStore()

        def inner():
            return 1

        timed_inner = store.timed("codec", inner)
        outer = store.timed("codec", lambda: timed_inner() + 1, rid_of=lambda a, r: 7)
        assert outer() == 2
        assert [(s[0], s[3]) for s in store.spans] == [("codec", 7)]

    def test_patcher_restores_classmethods(self):
        class Thing:
            @classmethod
            def make(cls, value):
                return cls, value

        store = SpanStore()
        patcher = Patcher()
        original = Thing.__dict__["make"]
        patcher.wrap(Thing, "make", lambda f: store.timed("make", f))
        assert Thing.make(3) == (Thing, 3)
        assert len(store.spans) == 1
        patcher.undo()
        assert Thing.__dict__["make"] is original


BASE = [10.0, 10.1, 9.9, 10.0, 10.05, 10.0, 9.95, 10.1, 10.0, 9.9]


def paired(factors, base=BASE):
    return [(b, b * f) for b, f in zip(base, factors)]


class TestCompare:
    def test_labels(self):
        jitter = [1.0, 1.01, 0.99, 1.0, 0.995, 1.0, 1.01, 0.99, 1.005, 1.0]
        assert compare.label(paired(jitter), 0.1, True) == "unchanged"
        assert compare.label(paired([1.2 * f for f in jitter]), 0.1, True) == "worse"
        assert compare.label(paired([0.8 * f for f in jitter]), 0.1, True) == "improved"
        # Higher is better: the same numbers flip.
        assert compare.label(paired([0.8 * f for f in jitter]), 0.1, False) == "worse"

    def test_host_drift_cancels_within_pairs(self):
        # The host slows 2.5x halfway through, so each side's own spread is
        # far wider than the bound; each pair's two runs see the same speed,
        # so the pair ratios still tell unchanged code from a regression.
        drifting = [10.0] * 5 + [25.0] * 5
        assert compare.label(paired([1.0] * 10, drifting), 0.1, True) == "unchanged"
        assert compare.label(paired([1.3] * 10, drifting), 0.1, True) == "worse"
        # A gain must still exceed the parent runs' own IQR to be claimed.
        assert compare.label(paired([0.9] * 10, drifting), 0.1, True) == "unchanged"
        assert compare.label(paired([0.9] * 10), 0.1, True) == "improved"

    def test_too_few_pairs_are_unresolved(self):
        assert compare.label(paired([0.5] * 9), 0.1, True) == "unresolved"

    def test_wins_needed_for_improvement(self):
        # The median pair is 15 % better, but the change wins only 8 of 10.
        factors = [0.85] * 8 + [1.01, 1.02]
        assert compare.label(paired(factors), 0.25, True) == "unchanged"

    def test_wide_ratio_spread_is_unresolved(self):
        factors = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
        assert compare.label(paired(factors), 0.1, True) == "unresolved"

    def test_report_reads_pairs_and_bounds(self, tmp_path):
        lines = []
        for pair in range(10):
            for side, value in (("base", 1.0 + pair), ("new", 1.0 + pair)):
                metrics = {"p50_ms": {"value": value, "unit": "ms"}}
                lines.append({"workload": "w", "pair": pair, "side": side,
                              "result": {"metrics": metrics}})
        # A pair with one side only is left out.
        lines.append({"workload": "w", "pair": 10, "side": "new",
                      "result": {"metrics": {"p50_ms": {"value": 99.0, "unit": "ms"}}}})
        path = tmp_path / "ab.jsonl"
        path.write_text("".join(compare.json.dumps(line) + "\n" for line in lines))
        pairs = compare.load_pairs(str(path))
        assert len(pairs["w"]["p50_ms"]) == 10
        spec = {"end_to_end": [{"name": "p50_ms", "better": "lower", "bound": 0.1}]}
        (row,) = compare.report(pairs, spec)
        assert (row["label"], row["ratio"], row["wins"]) == ("unchanged", 1.0, 0)


def test_placement_shares_one_cpu():
    import run

    assert run.placement([2, 5]) == {5}
    assert run.placement([0]) is None


def test_metric_tables_match_benchmark_json():
    import json

    import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
