"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, report, stats  # noqa: E402
from perfbench.hostspeed import REFERENCE_S, HostSpeed, smoothed  # noqa: E402
from perfbench.trace import Span, Tracer, self_times, union_length  # noqa: E402
from perfbench.workloads import Outcome  # noqa: E402


def span(id, start, end, parent=None, thread=1, layer="l"):
    return Span(id, f"s{id}", layer, start, end, parent, thread)


class TestPercentiles:
    @pytest.mark.parametrize("n, expected", [
        (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
        (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0),
        (19, None), (0, None),
    ])
    def test_tail_chosen_by_sample_count(self, n, expected):
        assert stats.tail_percentile(n) == expected

    def test_ten_samples_beyond_is_enough(self):
        assert stats.supports(1000, 99.0)
        assert not stats.supports(999, 99.0)

    def test_percentile_interpolates_between_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert stats.percentile(values, 50.0) == 2.5
        assert stats.percentile(values, 0.0) == 1.0
        assert stats.percentile(values, 100.0) == 4.0
        assert stats.percentile(list(range(101)), 99.0) == 99.0

    def test_no_samples_raise(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50.0)


class TestSelfTime:
    def test_union_merges_overlaps(self):
        assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
        assert union_length([]) == 0

    def test_nested_children_are_subtracted(self):
        spans = [
            span(1, 0.0, 10.0),
            span(2, 1.0, 3.0, parent=1),
            span(3, 4.0, 8.0, parent=1),
            span(4, 5.0, 6.0, parent=3),
        ]
        got = self_times(spans)
        assert got == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0}

    def test_children_on_another_thread_are_not_subtracted(self):
        spans = [
            span(1, 0.0, 10.0, thread=1),
            span(2, 2.0, 6.0, parent=1, thread=2),
            span(3, 3.0, 4.0, parent=2, thread=2),
        ]
        got = self_times(spans)
        assert got == {1: 10.0, 2: 3.0, 3: 1.0}

    def test_overlapping_children_count_once(self):
        spans = [
            span(1, 0.0, 10.0),
            span(2, 1.0, 5.0, parent=1),
            span(3, 3.0, 7.0, parent=1),
        ]
        assert self_times(spans)[1] == 4.0

    def test_tracer_records_nesting_per_thread(self):
        tracer = Tracer()

        def inner():
            return 1

        traced_inner = tracer.wrap(inner, "inner", "b")
        traced_outer = tracer.wrap(lambda: traced_inner(), "outer", "a")
        traced_outer()
        assert tracer.spans == []  # inactive: nothing recorded
        tracer.active = True
        traced_outer()
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent == by_name["outer"].id
        assert by_name["outer"].parent is None
        assert report.coverage(tracer.spans, by_name["outer"].duration) == 1.0


class TestInputs:
    def test_same_seed_same_inputs(self):
        a, b = inputs.fresh_feed(7), inputs.fresh_feed(7)
        assert np.array_equal(a.dataset.consumption, b.dataset.consumption)
        assert len(a.ticks) == len(b.ticks)
        for x, y in zip(a.ticks, b.ticks):
            assert np.array_equal(x.consumer, y.consumer)
            assert np.array_equal(x.hour, y.hour)
            assert np.array_equal(x.consumption, y.consumption)
        assert inputs.hot_sequence(7, 50) == inputs.hot_sequence(7, 50)
        assert np.array_equal(inputs.hot_dataset(7).consumption,
                              inputs.hot_dataset(7).consumption)

    def test_other_seed_other_inputs(self):
        a, b = inputs.fresh_feed(7), inputs.fresh_feed(8)
        assert not np.array_equal(a.dataset.consumption, b.dataset.consumption)
        assert not np.array_equal(a.ticks[0].consumer, b.ticks[0].consumer)

    def test_hot_sequence_cycles_the_mix(self):
        sequence = inputs.hot_sequence(3, 23)
        assert len(sequence) == 23
        for r in range(0, 20, 5):
            assert sorted(q.label for q in sequence[r:r + 5]) == sorted(
                q.label for q in inputs.QUERY_MIX)
        assert sequence[:5] != sequence[5:10]

    def test_ticks_shuffle_within_tick_only(self):
        feed = inputs.fresh_feed(3)
        assert len(feed.ticks) == feed.dataset.n_hours // 24
        for day, tick in enumerate(feed.ticks):
            assert set(np.unique(tick.hour)) == set(range(day * 24, day * 24 + 24))
            assert len(tick) == inputs.FRESH_N * 24
        assert not np.all(np.diff(feed.ticks[0].consumer) >= 0)


class TestReport:
    def test_overhead_compares_like_with_like(self):
        out = Outcome(primary="x")

        def ms(value):
            return (0.0, value / 1e3)

        for v in (10.0, 11.0, 12.0):
            out.sample("x", ms(v), traced=False, kind="cheap")
            out.sample("x", ms(v * 1.1), traced=True, kind="cheap")
        for v in (100.0, 101.0):
            out.sample("x", ms(v), traced=False, kind="dear")
            out.sample("x", ms(v * 1.1), traced=True, kind="dear")
        out.sample("x", ms(1000.0), traced=True, kind="only-traced")
        assert report.overhead(out) == pytest.approx(0.1)

    def test_a_sample_sums_its_intervals(self):
        samples = [((0.0, 1.0), (5.0, 5.5)), ((2.0, 4.0),), ()]
        assert report.lengths(samples, report.wall) == [1.5, 2.0, 0.0]
        assert report.lengths([], report.wall) == []


class TestHostSpeed:
    def speed(self, samples):
        speed = HostSpeed(Path("unused"))
        speed.samples = samples
        return speed

    def test_reference_speed_keeps_wall_time(self):
        speed = self.speed([(t * 0.1, REFERENCE_S) for t in range(50)])
        assert speed.scaled(1.0, 3.0) == pytest.approx(2.0)
        assert speed.speed() == pytest.approx(1.0)

    def test_half_speed_halves_time(self):
        # Probes took twice the reference cost from t=2 on.
        speed = self.speed([
            (t * 0.1, REFERENCE_S * (1 if t < 20 else 2)) for t in range(60)
        ])
        assert speed.scaled(0.5, 1.5) == pytest.approx(1.0)
        assert speed.scaled(3.0, 5.0) == pytest.approx(1.0)
        scaled = speed.scaled(np.array([0.5, 3.0]), np.array([1.5, 5.0]))
        assert scaled == pytest.approx([1.0, 1.0])

    def test_outside_the_probes_counts_at_the_nearest_speed(self):
        speed = self.speed([(1.0 + t * 0.1, REFERENCE_S / 2)
                            for t in range(20)])
        assert speed.scaled(0.0, 1.0) == pytest.approx(2.0)
        assert speed.scaled(3.0, 4.0) == pytest.approx(2.0)

    def test_one_outlier_probe_is_ignored(self):
        costs = [REFERENCE_S] * 30
        costs[15] = REFERENCE_S * 10
        speed = self.speed([(t * 0.1, c) for t, c in enumerate(costs)])
        assert speed.scaled(0.0, 2.9) == pytest.approx(2.9)

    def test_smoothed_is_a_running_median(self):
        assert smoothed([1, 9, 1, 1, 5], 1).tolist() == [5, 1, 1, 1, 3]

    def test_benchmark_json_lists_what_the_runs_print(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        out = Outcome(primary="x", traced_s=1.0)
        layer_names, _ = report.per_layer(out, Tracer())
        assert [m["name"] for m in spec["per_layer"]] == list(layer_names)
        assert [m["name"] for m in spec["end_to_end"]] == list(
            report.E2E_UNITS
        )
        for m in spec["end_to_end"]:
            assert m["unit"] == report.E2E_UNITS[m["name"]]
        assert [w["name"] for w in spec["workloads"]] == list(report.E2E[
            "rate_per_s"])
