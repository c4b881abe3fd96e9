#!/bin/sh
# Runs every repo-specific linter against the tree. Exits nonzero if any
# fails. CI runs this in the static-analysis job; locally:
#   tools/lint/run_all.sh
set -eu

root="$(cd "$(dirname "$0")/../.." && pwd)"
status=0

python3 "$root/tools/lint/kernel_parity_lint.py" "$root" || status=1
python3 "$root/tools/lint/memory_order_lint.py" "$root" || status=1
python3 "$root/tools/lint/orphan_module_lint.py" "$root" || status=1

exit $status
