"""Self-tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_needs_eleven_samples(self):
        self.assertIsNone(run.tail_percentile(0))
        self.assertIsNone(run.tail_percentile(10))
        self.assertEqual(run.tail_percentile(11), 9)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(99), 89)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(120), 91)
        self.assertEqual(run.tail_percentile(1000), 99)

    def test_at_least_ten_samples_lie_beyond(self):
        for n in range(11, 400):
            p = run.tail_percentile(n)
            values = list(range(n))
            cut = run.percentile(values, p / 100)
            self.assertGreaterEqual(sum(1 for v in values if v > cut), 10, n)
            # one percentile higher would leave fewer than ten beyond
            if p < 99:
                self.assertLess(n * (1 - (p + 1) / 100), 10 - 1e-9, n)

    def test_p90_falls_back_to_median_below_100_samples(self):
        values = list(range(1, 100))
        self.assertEqual(run.p90_or_median(values), (50, "median (tail unresolved)"))
        values = list(range(1, 101))
        self.assertEqual(run.p90_or_median(values), (90, "p90"))

    def test_nearest_rank(self):
        self.assertEqual(run.percentile([5, 1, 3], 0.5), 3)
        self.assertEqual(run.percentile([1, 2, 3, 4], 0.5), 2)
        self.assertEqual(run.percentile([1, 2, 3, 4], 1.0), 4)
        self.assertEqual(run.percentile([7], 0.9), 7)


class ChunkAttribution(unittest.TestCase):
    def test_first_release_covering_each_chunk(self):
        # base 100 rows, chunks of 10; releases at 100 (set-up), 120, 130
        releases = [(100, 0.0), (120, 2.0), (130, 3.0)]
        ends = [110, 120, 130]
        self.assertEqual(run.attribute_chunks(ends, releases), [2.0, 2.0, 3.0])

    def test_release_covering_more_than_needed(self):
        self.assertEqual(run.attribute_chunks([105], [(100, 0.0), (200, 5.0)]), [5.0])

    def test_uncovered_chunk_is_none(self):
        releases = [(100, 0.0), (110, 1.0)]
        self.assertEqual(run.attribute_chunks([110, 120], releases), [1.0, None])
        self.assertEqual(run.attribute_chunks([110], []), [None])


class FailedFraction(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(run.count_failed([True, True, True]), (3, 0, 0.0))
        self.assertEqual(run.count_failed([True, False, True, False]), (4, 2, 0.5))
        self.assertEqual(run.count_failed([]), (0, 0, 0.0))


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"name": "run", "start": 0.0, "end": 10.0, "parent": None},
            {"name": "a", "start": 0.0, "end": 4.0, "parent": 0},
            {"name": "b", "start": 4.0, "end": 9.0, "parent": 0},
            {"name": "c", "start": 5.0, "end": 6.0, "parent": 2},
        ]
        self.assertEqual(run.span_self_times(spans), [1.0, 4.0, 4.0, 1.0])

    def test_layer_metrics_coverage_and_overhead(self):
        trace = {
            "spans": [
                {"name": "run", "start": 0.0, "end": 5.0, "parent": None},
                {"name": "stream.intake", "start": 0.0, "end": 2.0, "parent": 0},
                {"name": "lp.solve", "start": 2.0, "end": 4.0, "parent": 0},
            ],
            "counts": {"stream.rows": 1000, "lp.iterations": 500},
        }
        m = run.layer_metrics([trace], wall_ref=5.0, wall_traced=5.5)
        self.assertAlmostEqual(m["trace.coverage"], 0.8)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1)
        self.assertAlmostEqual(m["stream.rows_per_s"], 500.0)
        self.assertAlmostEqual(m["lp.ms_per_iter"], 4.0)
        self.assertEqual(set(m), set(run.PER_LAYER))


class Table4(unittest.TestCase):
    def test_sums_floor_lambda(self):
        text = (
            "Table 4: maximum output size\n\ncells\n\n"
            "  e \\ d   0.1   0.5\n"
            "-------------------\n"
            "  1.4   0 (0.3)   9 (98.4)\n"
            "    2   4 (65.3)  71 (202.8)\n\n"
            "trailer 3 (1.0)\n"
        )
        self.assertEqual(run.table4_lambda_sum(text), 84)


if __name__ == "__main__":
    unittest.main()
