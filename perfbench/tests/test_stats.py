"""Tests of the benchmark's statistics code.

  python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_tail_is_the_highest_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            {"id": 0, "parent": -1, "start": 0, "end": 100},
            {"id": 1, "parent": 0, "start": 10, "end": 30},
            {"id": 2, "parent": 0, "start": 40, "end": 50},
            {"id": 3, "parent": 1, "start": 12, "end": 17},
        ]
        self.assertEqual(stats.self_times(spans),
                         {0: 70, 1: 15, 2: 10, 3: 5})

    def test_self_times_sum_to_root_duration(self):
        spans = [
            {"id": 0, "parent": -1, "start": 5, "end": 105},
            {"id": 1, "parent": 0, "start": 5, "end": 45},
            {"id": 2, "parent": 0, "start": 45, "end": 60},
            {"id": 3, "parent": 2, "start": 50, "end": 55},
        ]
        self.assertEqual(sum(stats.self_times(spans).values()), 100)


class MnaeTest(unittest.TestCase):
    def test_mean_of_normalized_errors(self):
        triples = [(110.0, 100.0, 1000.0), (80.0, 100.0, 1000.0),
                   (5.0, 0.0, 50.0)]
        self.assertAlmostEqual(stats.mnae(triples),
                               (0.01 + 0.02 + 0.1) / 3)

    def test_skips_zero_normalizers(self):
        self.assertAlmostEqual(stats.mnae([(1.0, 0.0, 0.0), (2.0, 1.0, 10.0)]),
                               0.1)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.mnae([])


class WindowTest(unittest.TestCase):
    def test_each_window_weighs_the_same(self):
        # Windows 0 and 1 hold 40 fast operations each, windows 2 to 4 twenty
        # slow ones each; window 5 is partial and dropped.
        end_s, ms = [], []
        for window, (n, value) in enumerate([(40, 1.0), (40, 1.0), (20, 9.0),
                                             (20, 9.0), (20, 9.0), (5, 1.0)]):
            end_s += [window + (i + 0.5) / n for i in range(n)]
            ms += [value] * n
        self.assertEqual(stats.windowed_percentile(end_s, ms, 50), 9.0)
        self.assertEqual(stats.percentile(ms, 50), 1.0)
        self.assertEqual(stats.windowed_rate(end_s, [1] * len(ms)), 20.0)

    def test_windows_too_small_for_the_percentile_are_left_out(self):
        # Window 0 has 100 samples (10 beyond its p90), window 1 only 50.
        end_s = [i / 100 for i in range(100)] + [1 + i / 50 for i in range(50)]
        ms = list(range(100)) + [1000.0] * 50
        end_s.append(2.5)  # a partial window, dropped
        ms.append(0.0)
        self.assertEqual(stats.windowed_percentile(end_s, ms, 90), 89)
        # No window qualifies: the whole sample's percentile.
        self.assertEqual(stats.windowed_percentile([0.1, 0.2], [1, 2], 90), 2)

    def test_units_per_second(self):
        end_s = [0.5, 0.9, 1.2, 1.8, 2.0]
        units = [10, 10, 30, 30, 5]
        self.assertEqual(stats.windowed_rate(end_s, units, width=1.0), 40.0)
        self.assertEqual(stats.windowed_rate([0.2], [7], width=1.0), 7.0)


class HistogramQuantileTest(unittest.TestCase):
    def test_upper_edge_of_the_quantile_bucket(self):
        buckets = [(2048, 50), (1024, 40), (4096, 10)]
        self.assertEqual(stats.histogram_quantile(buckets, 0.5), 2048)
        self.assertEqual(stats.histogram_quantile(buckets, 0.4), 1024)
        self.assertEqual(stats.histogram_quantile(buckets, 0.99), 4096)
        self.assertEqual(stats.histogram_quantile([], 0.5), 0)


class VerdictTest(unittest.TestCase):
    PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_improved_when_nine_of_ten_pairs_win_beyond_the_iqr(self):
        change = [v * 0.9 for v in self.PARENT]
        change[0] = 101.0  # one lost pair still leaves 9/10
        v = stats.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(v["wins"], 9)
        self.assertEqual(v["pairs"], 10)
        self.assertEqual(v["verdict"], "improved")

    def test_not_improved_with_fewer_than_nine_wins(self):
        change = [v * 0.9 for v in self.PARENT]
        change[0] = change[1] = 102.0
        v = stats.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(v["wins"], 8)
        self.assertEqual(v["verdict"], "unchanged")

    def test_higher_is_better(self):
        change = [v * 1.2 for v in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, change, "higher",
                                       0.1)["verdict"], "improved")
        self.assertEqual(stats.verdict(self.PARENT, change, "lower",
                                       0.1)["verdict"], "regressed")

    def test_regressed_beyond_the_bound(self):
        change = [v * 1.15 for v in self.PARENT]
        v = stats.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(v["wins"], 0)
        self.assertEqual(v["verdict"], "regressed")

    def test_unchanged_within_the_bound(self):
        change = [v * 1.05 for v in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, change, "lower",
                                       0.1)["verdict"], "unchanged")

    def test_unresolved_when_the_spread_is_wider_than_the_bound(self):
        parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                  100.0]
        change = [v * 1.15 for v in parent]
        v = stats.verdict(parent, change, "lower", 0.1)
        self.assertGreater(v["parent"]["q3"] - v["parent"]["q1"],
                           0.1 * v["parent"]["median"])
        self.assertEqual(v["verdict"], "unresolved")

    def test_a_gain_smaller_than_the_iqr_is_not_improved(self):
        parent = [90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0,
                  100.0]
        change = [v - 1.0 for v in parent]  # wins every pair, by 1 < IQR
        v = stats.verdict(parent, change, "lower", 0.25)
        self.assertEqual(v["wins"], 10)
        self.assertEqual(v["verdict"], "unchanged")

    def test_without_bound(self):
        change = [v * 1.3 for v in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, change, "lower",
                                       None)["verdict"], "regressed")
        noisy = [v * (1.02 if i % 2 else 0.98)
                 for i, v in enumerate(self.PARENT)]
        self.assertEqual(stats.verdict(self.PARENT, noisy, "lower",
                                       None)["verdict"], "unresolved")

    def test_all_pairs_tied_is_unchanged(self):
        zeros = [0.0] * 10
        self.assertEqual(stats.verdict(zeros, zeros, "lower", 0.25)["verdict"],
                         "unchanged")
        self.assertEqual(stats.verdict(self.PARENT, list(self.PARENT),
                                       "lower", None)["verdict"], "unchanged")

    def test_quartiles_match_statistics_quantiles(self):
        v = stats.verdict(self.PARENT, list(self.PARENT), "lower", 0.1)
        q1, q2, q3 = __import__("statistics").quantiles(self.PARENT, n=4)
        self.assertEqual((v["parent"]["q1"], v["parent"]["median"],
                          v["parent"]["q3"]), (q1, q2, q3))


if __name__ == "__main__":
    unittest.main()
