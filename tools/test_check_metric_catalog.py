#!/usr/bin/env python3
"""Unit tests for tools/check_metric_catalog.py.

Run directly (python3 tools/test_check_metric_catalog.py) or via ctest,
where CMake registers it as metric_catalog_test with the `unit` label.
Covers an undocumented metric, a stale row, labeled rows, names outside a
registration call, and a self-check that the committed catalog matches
src/.
"""

import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_metric_catalog  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]


class CheckMetricCatalog(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = Path(self.tmp.name)
        (self.root / "src").mkdir()

    def tearDown(self):
        self.tmp.cleanup()

    def run_check(self, source, doc):
        (self.root / "src" / "m.cc").write_text(source)
        doc_path = self.root / "OBSERVABILITY.md"
        doc_path.write_text(doc)
        return check_metric_catalog.check(self.root / "src", doc_path)

    def test_matching_catalog_is_clean(self):
        source = 'auto& c = r.GetCounter(\n    "jig_a_total", "help");\n'
        doc = "| `jig_a_total` | counter |\n"
        self.assertEqual(self.run_check(source, doc), [])

    def test_undocumented_metric_flags(self):
        source = 'r.GetGauge("jig_a", "help"); r.GetHistogram("jig_b_us", b);'
        problems = self.run_check(source, "| `jig_a` | gauge |\n")
        self.assertEqual(len(problems), 1)
        self.assertIn("jig_b_us is registered but has no row", problems[0])

    def test_stale_row_flags(self):
        source = 'r.GetCounter("jig_a_total", "help");'
        doc = "| `jig_a_total` | counter |\n| `jig_gone` | gauge |\n"
        problems = self.run_check(source, doc)
        self.assertEqual(len(problems), 1)
        self.assertIn("row jig_gone names no registered metric", problems[0])

    def test_labeled_row_matches_bare_name(self):
        source = 'r.GetCounter("jig_busy_ns_total", "help", labels);'
        doc = '| `jig_busy_ns_total{consumer="…"}` | counter |\n'
        self.assertEqual(self.run_check(source, doc), [])

    def test_name_outside_registration_and_prose_mention_are_ignored(self):
        source = 'const char* k = "jig_not_a_metric";'
        doc = "Prose naming `jig_not_a_metric` is not a row.\n"
        self.assertEqual(self.run_check(source, doc), [])

    def test_committed_catalog_matches_src(self):
        self.assertEqual(check_metric_catalog.main(["", str(REPO_ROOT)]), 0)


if __name__ == "__main__":
    unittest.main()
