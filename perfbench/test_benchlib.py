"""Unit tests for the benchmark's own pieces. Run from the repository root:

    python3 -B perfbench/test_benchlib.py
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

FIG6_HEADER = "app,ccnuma,scoma,rnuma"


def fig6_csv(rows=10, value="1.2500"):
    lines = [FIG6_HEADER] + [f"app{i},{value},{value},{value}" for i in range(rows)]
    return "\n".join(lines) + "\n"


class Summaries(unittest.TestCase):
    def test_odd_count_median_and_quartiles(self):
        s = benchlib.summarize([5, 1, 4, 2, 3])
        self.assertEqual(s["n"], 5)
        self.assertEqual(s["median"], 3)
        q1, _, q3 = statistics.quantiles([1, 2, 3, 4, 5], n=4)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertEqual((s["q1"], s["q3"]), (1.5, 4.5))

    def test_even_count_median_is_the_midpoint(self):
        self.assertEqual(benchlib.summarize([4, 1, 3, 2])["median"], 2.5)

    def test_single_sample_has_zero_spread(self):
        s = benchlib.summarize([0.25])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["n"]), (0.25, 0.25, 0.25, 1))
        self.assertEqual(benchlib.spread(s), 0.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.summarize([])

    def test_spread_is_iqr_over_median(self):
        s = {"n": 4, "median": 2.0, "q1": 1.5, "q3": 2.5}
        self.assertAlmostEqual(benchlib.spread(s), 0.5)


class Normalize(unittest.TestCase):
    def test_nominal_host_keeps_the_time(self):
        self.assertEqual(benchlib.normalize(2.0, 0.01, 0.01), 2.0)

    def test_time_scales_with_the_reference(self):
        self.assertAlmostEqual(benchlib.normalize(8.0, 0.04, 0.01), 2.0)
        self.assertAlmostEqual(benchlib.normalize(1.0, 0.005, 0.01), 2.0)

    def test_a_slower_program_stays_slower_by_the_same_share(self):
        fast = benchlib.normalize(1.0, 0.013, 0.01)
        slow = benchlib.normalize(1.2, 0.013, 0.01)
        self.assertAlmostEqual(slow / fast, 1.2)

    def test_reference_must_be_positive(self):
        with self.assertRaises(ValueError):
            benchlib.normalize(1.0, 0.0, 0.01)


class CsvValidator(unittest.TestCase):
    def test_well_formed(self):
        self.assertEqual(benchlib.validate_csv(fig6_csv(), FIG6_HEADER, 10), [])

    def test_wrong_header(self):
        text = fig6_csv().replace("rnuma", "xnuma", 1)
        self.assertTrue(benchlib.validate_csv(text, FIG6_HEADER, 10))

    def test_missing_row(self):
        problems = benchlib.validate_csv(fig6_csv(rows=9), FIG6_HEADER, 10)
        self.assertIn("9 data rows, expected 10", problems)

    def test_rejects_zero_negative_nan_inf_and_text(self):
        for bad in ("0.0000", "-1.0000", "nan", "inf", "fast"):
            with self.subTest(bad=bad):
                self.assertTrue(benchlib.validate_csv(fig6_csv(value=bad), FIG6_HEADER, 10))

    def test_rejects_short_rows_and_duplicates(self):
        short = fig6_csv().replace("app3,1.2500,1.2500,1.2500", "app3,1.2500")
        self.assertTrue(benchlib.validate_csv(short, FIG6_HEADER, 10))
        dup = fig6_csv().replace("app3,", "app2,")
        self.assertTrue(benchlib.validate_csv(dup, FIG6_HEADER, 10))

    def test_empty_output(self):
        self.assertTrue(benchlib.validate_csv("", FIG6_HEADER, 10))


class Digest(unittest.TestCase):
    def test_sha256_of_text_and_bytes_agree(self):
        self.assertEqual(benchlib.digest("abc"), benchlib.digest(b"abc"))
        self.assertEqual(
            benchlib.digest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        )

    def test_any_change_changes_the_digest(self):
        self.assertNotEqual(benchlib.digest("refetches=10\n"), benchlib.digest("refetches=11\n"))


def span(index, parent, start, end, name="s"):
    return {"index": index, "parent": parent, "start": start, "end": end, "name": name, "id": 0}


class Fidelity(unittest.TestCase):
    REBUILT = {"trace-once": "a,1\n", "exec": "a,2\n"}

    def test_first_matching_way_wins(self):
        self.assertEqual(benchlib.fidelity("d", "d", "a,1\n", self.REBUILT), "trace-once")
        self.assertEqual(benchlib.fidelity("d", "d", "a,2\n", self.REBUILT), "exec")
        both = {"trace-once": "a,1\n", "exec": "a,1\n"}
        self.assertEqual(benchlib.fidelity("d", "d", "a,1\n", both), "trace-once")

    def test_no_match_is_stale(self):
        self.assertEqual(benchlib.fidelity("d", "d", "a,3\n", self.REBUILT), "stale")

    def test_other_cells_are_stale_even_if_the_output_matches(self):
        self.assertEqual(benchlib.fidelity("d", "e", "a,1\n", self.REBUILT), "stale")


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([span(0, None, 1.0, 3.0)]), {0: 2.0})

    def test_children_are_subtracted(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 0, 5.0, 6.0)]
        self.assertAlmostEqual(benchlib.self_times(spans)[0], 7.0)

    def test_overlapping_children_count_once(self):
        # Two parallel cells under one phase span.
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 6.0), span(2, 0, 2.0, 8.0)]
        self.assertAlmostEqual(benchlib.self_times(spans)[0], 3.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, None, 2.0, 4.0), span(1, 0, 1.0, 3.0)]
        self.assertAlmostEqual(benchlib.self_times(spans)[0], 1.0)

    def test_grandchildren_count_only_for_their_parent(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 0.0, 4.0), span(2, 1, 1.0, 2.0)]
        own = benchlib.self_times(spans)
        self.assertAlmostEqual(own[0], 6.0)
        self.assertAlmostEqual(own[1], 3.0)
        self.assertAlmostEqual(own[2], 1.0)

    def test_by_name_totals(self):
        spans = [span(0, None, 0.0, 4.0, "phase"), span(1, 0, 0.0, 1.0, "cell"),
                 span(2, 0, 2.0, 3.0, "cell")]
        table = benchlib.self_time_by_name(spans)
        self.assertEqual(list(table), ["phase", "cell"])
        self.assertEqual(table["cell"]["count"], 2)
        self.assertAlmostEqual(table["cell"]["self_s"], 2.0)
        self.assertAlmostEqual(table["phase"]["self_s"], 2.0)


class Compare(unittest.TestCase):
    def tight(self, median):
        return {"n": 5, "median": median, "q1": median * 0.99, "q3": median * 1.01}

    def test_verdicts(self):
        old = self.tight(10.0)
        self.assertEqual(benchlib.compare(old, self.tight(10.5), 0.1, "lower")["verdict"], "same")
        self.assertEqual(benchlib.compare(old, self.tight(12.0), 0.1, "lower")["verdict"], "regressed")
        self.assertEqual(benchlib.compare(old, self.tight(8.0), 0.1, "lower")["verdict"], "improved")
        self.assertEqual(benchlib.compare(old, self.tight(8.0), 0.1, "higher")["verdict"], "regressed")

    def test_wide_spread_is_unresolved(self):
        wide = {"n": 5, "median": 10.0, "q1": 8.0, "q3": 12.0}
        self.assertEqual(benchlib.compare(wide, self.tight(20.0), 0.1, "lower")["verdict"],
                         "unresolved")

    def test_no_bound(self):
        v = benchlib.compare(self.tight(2.0), self.tight(3.0), None, "lower")
        self.assertEqual(v["verdict"], "-")
        self.assertAlmostEqual(v["delta"], 0.5)
        zero = benchlib.summarize([0.0])
        self.assertTrue(math.isinf(benchlib.compare(zero, self.tight(1.0), None, "lower")["delta"]))


if __name__ == "__main__":
    unittest.main()
