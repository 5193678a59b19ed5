#!/usr/bin/env python3
"""Checks that docs/OBSERVABILITY.md catalogs exactly the registered metrics.

Usage: check_metric_catalog.py [REPO_ROOT]

A metric is registered when a `jig_*` string literal is the name argument
of a `GetCounter(`, `GetGauge(` or `GetHistogram(` call in a file under
src/.  A metric is cataloged when a markdown table row in
docs/OBSERVABILITY.md starts with its name in backticks (labels after the
name, as in `jig_bus_retained_window{consumer="…"}`, are allowed).

Exit status 0 when the two sets match, 1 otherwise, with one line per
registered metric that has no row and per row that names no registered
metric.
"""

import re
import sys
from pathlib import Path

REGISTER_RE = re.compile(
    r"\bGet(?:Counter|Gauge|Histogram)\(\s*\"(jig_[a-z0-9_]+)\"")
ROW_RE = re.compile(r"^\|\s*`(jig_[a-z0-9_]+)")
SOURCE_SUFFIXES = {".cc", ".h"}


def registered_metrics(src_root: Path):
    names = {}
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES:
            continue
        for name in REGISTER_RE.findall(path.read_text(encoding="utf-8")):
            names.setdefault(name, path)
    return names


def cataloged_metrics(doc_text: str):
    return {m.group(1) for line in doc_text.splitlines()
            if (m := ROW_RE.match(line))}


def check(src_root: Path, doc_path: Path):
    registered = registered_metrics(src_root)
    cataloged = cataloged_metrics(doc_path.read_text(encoding="utf-8"))
    problems = [f"{registered[name]}: {name} is registered but has no row "
                f"in {doc_path}"
                for name in sorted(registered.keys() - cataloged)]
    problems += [f"{doc_path}: row {name} names no registered metric"
                 for name in sorted(cataloged - registered.keys())]
    return problems


def main(argv):
    root = (Path(argv[1]) if len(argv) > 1
            else Path(__file__).resolve().parents[1])
    problems = check(root / "src", root / "docs" / "OBSERVABILITY.md")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
