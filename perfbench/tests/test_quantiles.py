"""Unit tests for perfbench/quantiles.py.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import quantiles  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_median_of_odd_count_is_middle_sample(self):
        values = list(range(1, 22))  # 21 samples, 10 beyond the median
        self.assertEqual(quantiles.quantile(values, 0.5), 11)

    def test_rank_is_ceil_of_q_times_n(self):
        self.assertEqual(quantiles.rank(0.9, 189), 171)
        self.assertEqual(quantiles.rank(0.5, 189), 95)
        self.assertEqual(quantiles.rank(1.0, 7), 7)

    def test_rank_has_no_float_rounding_error(self):
        # 0.99 * 2400 is not exactly 2376 in binary floating point.
        self.assertEqual(quantiles.rank(0.99, 2400), 2376)
        self.assertEqual(quantiles.rank(0.1, 30), 3)

    def test_input_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(quantiles.quantile(values, 0.5), 3.0)

    def test_p90_of_a_fig06_sweep(self):
        values = [float(i) for i in range(189)]
        self.assertEqual(quantiles.quantile(values, 0.9), 170.0)


class Refusal(unittest.TestCase):
    def test_p99_of_96_samples_is_refused(self):
        with self.assertRaises(quantiles.QuantileRefused):
            quantiles.quantile(list(range(96)), 0.99)

    def test_needs_ten_samples_beyond_the_rank(self):
        self.assertEqual(quantiles.quantile(list(range(100)), 0.9), 89)
        with self.assertRaises(quantiles.QuantileRefused):
            quantiles.quantile(list(range(99)), 0.9)

    def test_empty_is_refused(self):
        with self.assertRaises(quantiles.QuantileRefused):
            quantiles.quantile([], 0.5)

    def test_out_of_range_q_is_an_error(self):
        with self.assertRaises(ValueError):
            quantiles.rank(0.0, 10)
        with self.assertRaises(ValueError):
            quantiles.rank(1.5, 10)


class Describe(unittest.TestCase):
    def test_prints_n_beside_the_quantile(self):
        value, text = quantiles.describe("point_ms", list(range(200)), 0.9,
                                         "ms")
        self.assertEqual(value, 179)
        self.assertIn("n=200", text)
        self.assertIn("p90", text)


if __name__ == "__main__":
    unittest.main()
