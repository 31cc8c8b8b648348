#!/usr/bin/env bash
# Checks that every Markdown file named in the Rust sources (crates/, src/,
# tests/, examples/) and in README.md exists, relative to the repository
# root or to the naming file's directory. A pointer to a document that was
# never written, or was removed, leaves readers with nothing to follow.
set -euo pipefail

for tool in find grep sort; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    echo "error: required tool '$tool' not found; refusing to skip the doc-reference check" >&2
    exit 3
  fi
done

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

status=0
checked=0
while IFS= read -r file; do
  while IFS= read -r ref; do
    checked=$((checked + 1))
    if [ ! -e "$ref" ] && [ ! -e "$(dirname "$file")/$ref" ]; then
      echo "error: $file names $ref, which does not exist" >&2
      status=1
    fi
  done < <(grep -oE '[A-Za-z0-9_./-]+\.md\b' "$file" | sort -u || true)
done < <({ find crates src tests examples -name '*.rs' -not -path '*/target/*'; echo README.md; } | sort)

if [ "$status" -eq 0 ]; then
  echo "every Markdown reference resolves ($checked checked)"
fi
exit "$status"
