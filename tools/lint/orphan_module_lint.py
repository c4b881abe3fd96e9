#!/usr/bin/env python3
"""Orphan-module linter.

A header under src/ that nothing but the tests includes is a module the
engine does not run: it costs review, build time and upkeep, and it drifts
from the code that is actually exercised. This linter fails on every
`src/**/*.h` that is not `#include`d by at least one file in src/, bench/,
examples/ or perfbench/ other than its own `.cc` (the file with the same
stem next to it). Includes from tests/ do not count.

A header that is kept on purpose goes into ALLOWLIST below WITH a written
reason, which is a review event. An entry whose header is gone, or is now
included from outside the tests, is stale and fails too, so the list never
outgrows reality.
"""

import re
import sys
from pathlib import Path

# path (relative to repo root) -> why the header may stay test-only.
ALLOWLIST = {}

# Directories whose includes make a header "used".
USER_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[2]
    src = root / "src"

    # header (relative to src/, as includes spell it) -> files including it
    includers = {}
    for top in USER_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            for target in INCLUDE_RE.findall(path.read_text(errors="replace")):
                includers.setdefault(target, set()).add(path.resolve())

    errors = []
    orphans = set()
    for header in sorted(src.rglob("*.h")):
        spelled = header.relative_to(src).as_posix()
        own_cc = header.with_suffix(".cc").resolve()
        users = includers.get(spelled, set()) - {header.resolve(), own_cc}
        if users:
            continue
        rel = header.relative_to(root).as_posix()
        orphans.add(rel)
        if rel not in ALLOWLIST:
            errors.append(
                f"{rel}: included only by tests or its own .cc — wire it into "
                f"src/, bench/, examples/ or perfbench/, delete it, or add it "
                f"to tools/lint/orphan_module_lint.py with a reason")

    for rel in sorted(set(ALLOWLIST) - orphans):
        if not (root / rel).exists():
            errors.append(f"{rel}: allowlisted header does not exist "
                          f"(stale entry)")
        else:
            errors.append(f"{rel}: allowlisted but included outside tests "
                          f"(stale entry — remove it)")

    if errors:
        for e in errors:
            print(f"orphan_module_lint: {e}", file=sys.stderr)
        return 1
    print(f"orphan_module_lint: OK ({len(orphans)} allowlisted header"
          f"{'s' if len(orphans) != 1 else ''})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
