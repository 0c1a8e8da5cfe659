"""Unit tests for the statistics in `perf_ab.py`.

Run from the repository root with the standard library only:

    python3 -m unittest discover -s scripts
"""

import unittest

from perf_ab import quartiles, sign_test


class SignTest(unittest.TestCase):
    def test_nine_of_ten(self):
        # 2 * (C(10,0) + C(10,1)) / 2**10 = 22 / 1024.
        self.assertEqual(sign_test(9, 1), 0.021484375)
        self.assertEqual(sign_test(1, 9), 0.021484375)

    def test_twelve_of_twelve(self):
        # 2 / 2**12.
        self.assertEqual(sign_test(12, 0), 0.00048828125)

    def test_no_untied_pairs(self):
        self.assertEqual(sign_test(0, 0), 1.0)

    def test_an_even_split_is_capped_at_one(self):
        self.assertEqual(sign_test(5, 5), 1.0)


class Quartiles(unittest.TestCase):
    def test_four_values(self):
        self.assertEqual(quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))

    def test_one_value(self):
        self.assertEqual(quartiles([5]), (5, 5, 5))


if __name__ == "__main__":
    unittest.main()
