#!/usr/bin/env python3
"""Kernel-parity linter for the vectorized scan layer.

The scan-kernel contract (src/exec/scan_kernels.h) is three-sided: every
kernel exists as a scalar reference, an AVX2 implementation, and a
runtime-dispatched entry point, and the equivalence suite pins all of them
to identical results. A kernel added to one side but not the others
compiles fine and silently runs the slow (or worse, untested) path — which
is exactly the kind of drift a grep-shaped linter catches and a human
reviewer eventually misses.

Checked, for every function declared in `namespace scalar` of the header:
  1. `namespace avx2` declares the same name (and nothing extra);
  2. a top-level dispatched declaration exists in the header;
  3. scan_kernels.cc defines the scalar implementation and the dispatched
     entry point;
  4. scan_kernels_avx2.cc defines the AVX2 implementation;
  5. tests/scan_kernels_test.cc sweeps the name (the equivalence suite).

Every kernel in the header has all three forms; the only top-level names
without scalar/avx2 variants are the helpers in NON_KERNEL_NAMES. A
top-level kernel added without variants is still checked for test coverage
(rule 5).

Rule 6 covers the storage and tiered-storage consumers: everything under
src/storage/ and src/persist/ (the partition evaluator in src/storage/ runs
hot and cold scans, cold ones over chunk files) must call kernels
through the top-level dispatched entry points — a direct scalar:: or avx2::
call there would silently pin those scans to one implementation and skip the
runtime dispatch the parity contract exists to protect.
"""

import re
import sys
from pathlib import Path

HEADER = "src/exec/scan_kernels.h"
SCALAR_TU = "src/exec/scan_kernels.cc"
AVX2_TU = "src/exec/scan_kernels_avx2.cc"
TEST = "tests/scan_kernels_test.cc"

# Declared at the top level on purpose, with no scalar/avx2 variants.
NON_KERNEL_NAMES = {"HaveAvx2"}

FUNC_RE = re.compile(r"\b([A-Z]\w+)\s*\(")


def extract_namespace_block(text: str, name: str) -> str:
    """The brace-matched body of `namespace <name> { ... }`, or ''."""
    m = re.search(r"namespace\s+" + re.escape(name) + r"\s*\{", text)
    if not m:
        return ""
    depth = 0
    for i in range(m.end() - 1, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[m.end(): i]
    return text[m.end():]


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def func_names(block: str) -> set:
    return {n for n in FUNC_RE.findall(strip_comments(block))
            if n not in NON_KERNEL_NAMES}


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[2]
    errors = []

    header = (root / HEADER).read_text()
    scalar_decls = func_names(extract_namespace_block(header, "scalar"))
    avx2_decls = func_names(extract_namespace_block(header, "avx2"))
    if not scalar_decls:
        errors.append(f"{HEADER}: found no declarations in namespace scalar")

    # 1. scalar and avx2 namespaces declare the same kernel set.
    for name in sorted(scalar_decls - avx2_decls):
        errors.append(f"{HEADER}: {name} declared in namespace scalar but not avx2")
    for name in sorted(avx2_decls - scalar_decls):
        errors.append(f"{HEADER}: {name} declared in namespace avx2 but not scalar")

    # 2. dispatched declaration at the top level of the header.
    top_level = header
    for ns in ("scalar", "avx2"):
        block = extract_namespace_block(header, ns)
        if block:
            top_level = top_level.replace(block, "")
    top_level_names = func_names(top_level)
    for name in sorted(scalar_decls - top_level_names):
        errors.append(f"{HEADER}: {name} has no top-level dispatched declaration")

    # 3. scalar definition + dispatched definition in scan_kernels.cc.
    scalar_tu = (root / SCALAR_TU).read_text()
    scalar_defs = func_names(extract_namespace_block(scalar_tu, "scalar"))
    dispatch_defs = func_names(scalar_tu.replace(
        extract_namespace_block(scalar_tu, "scalar"), ""))
    for name in sorted(scalar_decls - scalar_defs):
        errors.append(f"{SCALAR_TU}: {name} has no scalar definition")
    for name in sorted(scalar_decls - dispatch_defs):
        errors.append(f"{SCALAR_TU}: {name} has no dispatched definition")

    # 4. AVX2 definition in its own -mavx2 TU.
    avx2_tu = (root / AVX2_TU).read_text()
    avx2_defs = func_names(avx2_tu)
    for name in sorted(scalar_decls - avx2_defs):
        errors.append(f"{AVX2_TU}: {name} has no AVX2 definition")

    # 5. every kernel (dispatched families included) swept by the
    #    equivalence suite.
    test_text = (root / TEST).read_text()
    for name in sorted(scalar_decls | (top_level_names - NON_KERNEL_NAMES)):
        if name not in test_text:
            errors.append(f"{TEST}: kernel {name} is never exercised")

    # 6. the storage and persistence layers (hot and cold scans) go
    #    through the dispatched entry points only — never a pinned
    #    scalar::/avx2:: call.
    ns_call = re.compile(r"\b(scalar|avx2)::")
    for layer in ("storage", "persist"):
        for path in sorted((root / "src" / layer).rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            rel = path.relative_to(root).as_posix()
            text = strip_comments(path.read_text())
            for i, line in enumerate(text.splitlines()):
                if ns_call.search(line):
                    errors.append(
                        f"{rel}:{i + 1}: {layer} code must use the dispatched "
                        f"kernels:: entry points, not scalar::/avx2:: directly")

    if errors:
        for e in errors:
            print(f"kernel_parity_lint: {e}", file=sys.stderr)
        return 1
    print(f"kernel_parity_lint: OK ({len(scalar_decls)} dispatched kernels, "
          f"{len(top_level_names - scalar_decls)} single-implementation)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
