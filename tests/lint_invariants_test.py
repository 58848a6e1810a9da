#!/usr/bin/env python3
"""Unit tests for tools/lint_invariants.py, run against the seeded-violation
fixture trees under tests/lint_fixtures/. Registered as the
`lint_invariants_selftest` CTest; also runnable directly:

    python3 tests/lint_invariants_test.py
"""

import os
import sys
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import lint_invariants  # noqa: E402


def run_on(fixture):
    return lint_invariants.check_tree(os.path.join(FIXTURES, fixture))


class FixtureTreeTest(unittest.TestCase):
    def test_clean_tree_passes(self):
        self.assertEqual(run_on("clean"), [])

    def test_raw_getenv_fails(self):
        violations = run_on("raw_getenv")
        self.assertEqual(len(violations), 1, violations)
        self.assertIn("[raw-getenv]", violations[0])
        self.assertIn("bad.cc:5", violations[0])

    def test_loose_parse_fails_per_call(self):
        violations = run_on("loose_parse")
        self.assertEqual(len(violations), 2, violations)
        self.assertTrue(all("[loose-parse]" in v for v in violations))
        self.assertIn("atoi", violations[0])
        self.assertIn("strtod", violations[1])

    def test_unlisted_knob_fails_despite_line_wrap(self):
        violations = run_on("unlisted_knob")
        self.assertEqual(len(violations), 1, violations)
        self.assertIn("[unlisted-knob]", violations[0])
        self.assertIn("LC_FIXTURE_UNLISTED", violations[0])

    def test_stale_knob_fails_only_inside_knob_section(self):
        violations = run_on("stale_knob")
        self.assertEqual(len(violations), 1, violations)
        self.assertIn("[stale-knob]", violations[0])
        self.assertIn("README.md:5", violations[0])
        self.assertIn("LC_FIXTURE_STALE", violations[0])

    def test_raw_mutex_fails_per_token(self):
        violations = run_on("raw_mutex")
        # The member declaration plus both types in the lock_guard line.
        self.assertEqual(len(violations), 3, violations)
        self.assertTrue(all("[raw-mutex]" in v for v in violations))

    def test_unregistered_test_fails(self):
        violations = run_on("unregistered_test")
        self.assertEqual(len(violations), 1, violations)
        self.assertIn("[unregistered-test]", violations[0])
        self.assertIn("orphan_test.cc", violations[0])
        self.assertNotIn("listed_test", violations[0])

    def test_real_tree_is_clean(self):
        self.assertEqual(lint_invariants.check_tree(REPO_ROOT), [])


class StripperTest(unittest.TestCase):
    def test_preserves_line_numbers(self):
        text = 'a\n/* b\nc */ d\n// e\n"f\\ng"\n'
        stripped = lint_invariants.strip_comments_and_strings(text)
        self.assertEqual(stripped.count("\n"), text.count("\n"))

    def test_blanks_comments_and_strings(self):
        stripped = lint_invariants.strip_comments_and_strings(
            'x = "getenv("; // atoi(\n/* strtod( */ y;'
        )
        self.assertNotIn("getenv", stripped)
        self.assertNotIn("atoi", stripped)
        self.assertNotIn("strtod", stripped)
        self.assertIn("y;", stripped)

    def test_char_literals_and_digit_separators(self):
        stripped = lint_invariants.strip_comments_and_strings(
            "if (c == '\"') n = 1'000'000; m = 'x';"
        )
        self.assertIn("1'000'000", stripped)
        self.assertNotIn('"', stripped.replace("''", ""))


if __name__ == "__main__":
    unittest.main()
