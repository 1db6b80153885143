"""Tests of the benchmark's statistics (perfbench/stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import stats


def span(tid, ts, dur, cat="x", name="s"):
    return {"tid": tid, "ts": ts, "dur": dur, "cat": cat, "name": name}


class PercentileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(stats.InsufficientSamples):
            stats.median([])

    def test_median_needs_no_tail(self):
        self.assertEqual(stats.percentile([5.0], 0.5), 5.0)

    def test_nearest_rank(self):
        xs = list(range(1, 1001))  # 1..1000
        self.assertEqual(stats.percentile(xs, 0.99), 990)
        self.assertEqual(stats.percentile(xs, 0.9), 900)

    def test_ten_beyond_rule(self):
        # p99 of 1000 samples has exactly 10 beyond it: allowed.
        self.assertEqual(stats.samples_beyond(1000, 0.99), 10)
        stats.percentile(list(range(1000)), 0.99)
        # p99 of 999 samples has only 9 beyond it: refused.
        self.assertEqual(stats.samples_beyond(999, 0.99), 9)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(999)), 0.99)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(19)), 0.75)

    def test_tail_percentile_picks_highest_allowed(self):
        self.assertEqual(stats.tail_percentile(list(range(1, 10001))),
                         (0.999, 9990))
        self.assertEqual(stats.tail_percentile(list(range(1, 1001)))[0], 0.99)
        self.assertEqual(stats.tail_percentile(list(range(1, 41)))[0], 0.75)
        self.assertIsNone(stats.tail_percentile(list(range(1, 30))))


class RateTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1, 100]), 10)
        self.assertAlmostEqual(stats.geomean([2, 8, 4]), 4)
        with self.assertRaises(ValueError):
            stats.geomean([1, 0])
        with self.assertRaises(ValueError):
            stats.geomean([])

    def test_geomean_of_rates_is_rate_of_geomean_time(self):
        n = 1 << 24
        secs = [0.02, 0.13, 0.05]
        eps = [stats.elements_per_second(n, s) for s in secs]
        self.assertAlmostEqual(stats.geomean(eps) / 1e6,
                               n / stats.geomean(secs) / 1e6)

    def test_elements_per_second(self):
        self.assertEqual(stats.elements_per_second(1000, 0.5), 2000)
        with self.assertRaises(ValueError):
            stats.elements_per_second(1000, 0)

    def test_quartile_spread(self):
        xs = [10, 10, 10, 10, 10]
        self.assertEqual(stats.quartile_spread(xs), 0)
        xs = list(range(1, 11))
        self.assertAlmostEqual(stats.quartile_spread(xs), (8.25 - 2.75) / 5.5)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_subtract(self):
        ev = [span(1, 0, 100, "bench"), span(1, 10, 30, "a"),
              span(1, 50, 20, "b"), span(1, 55, 5, "c")]
        got = {e["cat"]: (s, root) for e, s, root in stats.self_times(ev)}
        self.assertEqual(got["bench"], (50, True))   # 100 - 30 - 20
        self.assertEqual(got["a"], (30, False))
        self.assertEqual(got["b"], (15, False))      # 20 - 5
        self.assertEqual(got["c"], (5, False))

    def test_threads_nest_separately(self):
        ev = [span(1, 0, 100, "bench"), span(2, 10, 30, "a")]
        got = [(s, root) for _, s, root in stats.self_times(ev)]
        self.assertEqual(got, [(100, True), (30, True)])

    def test_adjacent_spans_are_siblings(self):
        ev = [span(1, 0, 10, "a"), span(1, 10, 10, "b")]
        got = [(s, root) for _, s, root in stats.self_times(ev)]
        self.assertEqual(got, [(10, True), (10, True)])

    def test_partial_overlap_is_not_nesting(self):
        ev = [span(1, 0, 10, "a"), span(1, 5, 10, "b")]
        got = [(s, root) for _, s, root in stats.self_times(ev)]
        self.assertEqual(got, [(10, True), (10, True)])

    def test_layer_shares_and_uncovered(self):
        ev = [span(1, 0, 100, "bench"), span(1, 0, 60, "synth"),
              span(1, 60, 30, "chc"), span(2, 0, 100, "bench"),
              span(2, 20, 50, "serve")]
        shares, total = stats.layer_shares(ev)
        self.assertEqual(total, 200)
        self.assertAlmostEqual(shares["synth"], 0.30)
        self.assertAlmostEqual(shares["chc"], 0.15)
        self.assertAlmostEqual(shares["serve"], 0.25)
        self.assertAlmostEqual(shares["bench"], 0.30)  # (10 + 50) / 200
        self.assertTrue(math.isclose(sum(shares.values()), 1.0))


if __name__ == "__main__":
    unittest.main()
