#!/usr/bin/env python3
"""Memory-order audit linter.

Raw `std::memory_order_*` tokens are the sharpest tool in the codebase:
every use carries a fence-placement argument that has to be re-verified on
every edit. The repo's policy is to concentrate them in a small set of
audited files (the seqlock latch, the relaxed counter) and express
everything else through those abstractions — RelaxedCounter::FetchAdd/
UpdateMax for work cursors and accounting, the latch/guard API for
publication.

This linter fails on any `memory_order` token in src/ outside the audit
list below, pointing the author at the abstraction (or at adding the file
to the list WITH a written justification, which is a review event).
"""

import re
import sys
from pathlib import Path

# path (relative to repo root) -> why raw orderings are justified there.
AUDITED = {
    "src/storage/chunk_latch.h":
        "the seqlock/latch protocol itself (Boehm-style acquire/release "
        "epoch fences); every other file synchronizes through it",
    "src/storage/types.h":
        "RelaxedCounter: the relaxed-atomic accounting abstraction the rest "
        "of the tree is expected to use",
    "src/persist/io.cc":
        "g_fail_after torn-write injection counter: a test-only relaxed "
        "countdown read/written inside the write syscall wrapper; it orders "
        "nothing (the injected failure is observed through the same thread's "
        "Status return), and RelaxedCounter has no decrement-and-test",
}

TOKEN_RE = re.compile(r"\bmemory_order(_|::)\w+")


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"), text,
                  flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[2]
    errors = []
    audited_seen = set()

    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        text = strip_comments(path.read_text())
        hits = [(i + 1, line) for i, line in enumerate(text.splitlines())
                if TOKEN_RE.search(line)]
        if not hits:
            continue
        if rel in AUDITED:
            audited_seen.add(rel)
            continue
        for lineno, _ in hits:
            errors.append(
                f"{rel}:{lineno}: raw memory_order outside the audited set — "
                f"use RelaxedCounter / the latch API, or add the file to "
                f"tools/lint/memory_order_lint.py with a justification")

    # An audit entry whose file no longer has raw orderings is stale: prune
    # it so the allowlist never outgrows reality.
    for rel in sorted(set(AUDITED) - audited_seen):
        if not (root / rel).exists():
            errors.append(f"{rel}: audited file does not exist (stale entry)")
        else:
            errors.append(f"{rel}: audited but contains no memory_order token "
                          f"(stale entry — remove it)")

    if errors:
        for e in errors:
            print(f"memory_order_lint: {e}", file=sys.stderr)
        return 1
    print(f"memory_order_lint: OK ({len(audited_seen)} audited files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
