#!/usr/bin/env bash
# Docs link check: every repository-relative path referenced from the
# documentation surface must exist. Catches docs that drift from the
# tree (renamed tests, moved modules, deleted files).
#
# Checked references:
#   * markdown links  [text](path)  with a relative path (no scheme);
#   * backticked repo paths like `crates/core/src/shard.rs`,
#     `docs/SWEEP.md`, `tools/...`, `tests/...`, `examples/...`,
#     `.github/...` (directories may end with `/` or `...`).
#     `results/...` is exempt: it is generated at runtime and
#     git-ignored, so a fresh checkout legitimately lacks it.
#
# Rust doc comments (`//!` and `///` lines of every .rs file under
# crates/, tests/, tools/ and examples/) are checked too: their
# backticked repo paths as above, plus every `*.md` file name they
# mention, so a citation of a document that does not exist fails.
#
# Usage: tools/check_doc_links.sh [file.md ...]
# With no arguments, checks the repo's documentation surface and the
# Rust doc comments.

set -u
cd "$(dirname "$0")/.."

files=("$@")
rust_files=()
if [ ${#files[@]} -eq 0 ]; then
    files=(README.md ARCHITECTURE.md RESULTS.md ROADMAP.md docs/*.md)
    while IFS= read -r f; do
        rust_files+=("$f")
    done < <(find crates tests tools examples -name '*.rs' -not -path '*/target/*' | sort)
fi

fail=0

check() {
    local doc="$1" ref="$2"
    # Strip anchors and trailing ellipsis/slash.
    ref="${ref%%#*}"
    ref="${ref%...}"
    ref="${ref%/}"
    [ -z "$ref" ] && return
    # Resolve relative to the referencing document's directory first
    # (markdown-link semantics), then the repo root (prose convention).
    local base
    base="$(dirname "$doc")"
    if [ ! -e "$base/$ref" ] && [ ! -e "$ref" ]; then
        echo "BROKEN: $doc -> $ref"
        fail=1
    fi
}

# Backticked repo paths read from stdin (known top-level roots only,
# so prose like `config.rs` or glob examples don't false-positive).
check_backticked() {
    local doc="$1" ref
    while IFS= read -r ref; do
        case "$ref" in
            *'*'*) ;; # globs like crates/shims/{...} or wildcards
            *'{'*) ;;
            *) check "$doc" "$ref" ;;
        esac
    done < <(grep -oE '`(crates|docs|tools|tests|examples|\.github)/[^` ]*`' | tr -d '`')
}

for doc in "${files[@]}"; do
    [ -f "$doc" ] || { echo "BROKEN: missing doc $doc"; fail=1; continue; }
    # 1. Markdown links with relative targets.
    while IFS= read -r ref; do
        case "$ref" in
            http://*|https://*|mailto:*|results/*) ;;
            *) check "$doc" "$ref" ;;
        esac
    done < <(grep -oE '\]\(([^)]+)\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
    # 2. Backticked repo paths.
    check_backticked "$doc" < "$doc"
done

for src in "${rust_files[@]}"; do
    docs="$(grep -E '^[[:space:]]*//[/!]' "$src")"
    [ -z "$docs" ] && continue
    check_backticked "$src" <<< "$docs"
    while IFS= read -r ref; do
        check "$src" "$ref"
    done < <(grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b' <<< "$docs" | sort -u)
done

if [ "$fail" -ne 0 ]; then
    echo "docs link check FAILED"
    exit 1
fi
echo "docs link check OK (${#files[@]} docs, ${#rust_files[@]} Rust files)"
