#!/usr/bin/env python3
"""CI guard: every ctest target must run under at least one sanitizer job.

The TSan and UBSan/ASan jobs in .github/workflows/ci.yml each carry a
hand-maintained `ctest -R "a|b|c"` target list.  Hand-maintained lists rot:
a new test lands, runs in the plain build, and silently never meets a
sanitizer.  This script reconstructs the ctest inventory from the same
sources CMakeLists.txt uses (the tests/*_test.cc glob plus the cc_ suite
split and the Python tool tests) and fails if any entry matches neither
job's -R pattern.

Non-C++ ctest entries (the Python tool self-tests) are exempt — there is
nothing for a C++ sanitizer to instrument.

Usage: check_sanitizer_coverage.py [--ci <path>] [--tests <dir>]
Exit status: 0 covered, 1 gaps, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ctest entries with no C++ under them: sanitizer coverage is meaningless.
NON_CPP_TESTS = ("lint_determinism_test", "metric_catalog_test")

# Mirrors the cc_ suite split in CMakeLists.txt: cc_test the binary becomes
# four ctest entries, each a gtest filter over the same code.
CC_SPLIT = ("cc_reno_parity", "cc_cubic", "cc_bbr", "cc_integration")

# The sanitizer jobs' test steps, identified by their `name:` lines.
SANITIZER_STEPS = ("Test under TSan", "Test under UBSan + ASan")


def ctest_inventory(tests_dir: str) -> list[str]:
    """The ctest entries CMakeLists.txt will register for tests/."""
    names: list[str] = []
    for fname in sorted(os.listdir(tests_dir)):
        if not fname.endswith("_test.cc"):
            continue
        target = fname[: -len(".cc")]
        if target == "cc_test":
            names.extend(CC_SPLIT)
        else:
            names.append(target)
    names.extend(NON_CPP_TESTS)
    return names


def sanitizer_patterns(ci_path: str) -> list[str]:
    """The -R regex of each sanitizer test step in ci.yml."""
    with open(ci_path, encoding="utf-8") as fh:
        text = fh.read()
    patterns = []
    for step in SANITIZER_STEPS:
        at = text.find(f"name: {step}")
        if at < 0:
            raise ValueError(f"ci.yml: step not found: {step!r}")
        m = re.search(r'-R\s+"([^"]+)"', text[at:])
        if not m:
            raise ValueError(f"ci.yml: no -R pattern under step {step!r}")
        patterns.append(m.group(1))
    return patterns


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ci",
                        default=os.path.join(REPO_ROOT, ".github", "workflows",
                                             "ci.yml"))
    parser.add_argument("--tests", default=os.path.join(REPO_ROOT, "tests"))
    args = parser.parse_args()

    try:
        inventory = ctest_inventory(args.tests)
        patterns = sanitizer_patterns(args.ci)
    except (OSError, ValueError) as err:
        print(f"check_sanitizer_coverage: {err}", file=sys.stderr)
        return 2

    compiled = [re.compile(p) for p in patterns]
    uncovered = [
        name for name in inventory
        if name not in NON_CPP_TESTS
        and not any(rx.search(name) for rx in compiled)
    ]

    if uncovered:
        print("ctest entries running under NO sanitizer job "
              "(add them to a -R list in ci.yml):")
        for name in uncovered:
            print(f"  {name}")
        return 1
    print(f"check_sanitizer_coverage: {len(inventory)} ctest entries, "
          "all sanitizer-covered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
