#!/usr/bin/env bash
# Lists every `pub fn` / `pub struct` under crates/*/src that nothing
# uses outside its own file's `#[cfg(test)]` module, and exits 1 when
# the list is non-empty.
#
# Uses are searched in crates/*/{src,tests,benches}, src/, tests/,
# examples/ and perfbench/{src,tests} (perfbench builds from these
# crates, so what it calls stays public), with comment lines and
# re-exports (`pub use`) dropped. A struct is used wherever its name
# appears as a word, except in its own file's `impl` blocks for it
# (`impl Name`, `impl Trait for Name`). A function is
# used where it is called (`name(`, `name::<`), named by path
# (`::name`), or passed as a value (`(name`, `, name`, `= name`); a
# bare `x.name` is a field of the same name and does not count.
# Matching is by name, not by type: a method that shares its name with
# a used method elsewhere is not caught.
#
# Run from anywhere: ci/unreferenced_pub.sh

set -euo pipefail
cd "$(dirname "$0")/.."

# Names kept public without a caller, each with its reason.
allowlist=(
  # The trace-file format's reader and writer are kept for the parked
  # trace-replay work (ROADMAP item 4), which feeds recorded
  # utilization traces to the simulator.
  parse_trace_csv
  write_trace_csv
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/code" "$tmp/test"

files=$(find crates/*/src crates/*/tests crates/*/benches src tests examples \
  perfbench/src perfbench/tests -name '*.rs' 2>/dev/null | sort)

# Split every file into its non-test code and its `#[cfg(test)]`
# module (rustfmt closes a top-level module with a lone `}`), dropping
# whole-line and trailing ` // ` comments from both. Re-exports
# (`pub use` and `pub(crate) use`, up to their closing `;`) are dropped
# too: naming an item in a re-export does not use it.
for f in $files; do
  key=${f//\//__}
  awk -v code="$tmp/code/$key" -v test="$tmp/test/$key" '
    BEGIN { printf "" > code; printf "" > test }
    /^[ \t]*pub(\([a-z]+\))? use / { inuse = 1 }
    inuse { if ($0 ~ /;/) inuse = 0; next }
    /^#\[cfg\(test\)\]$/ { pending = 1; next }
    pending && /^mod [A-Za-z_0-9]+ \{$/ { intest = 1; pending = 0; next }
    pending { pending = 0; if ($0 !~ /^[ \t]*\/\//) print "#[cfg(test)]" > code }
    intest && /^\}$/ { intest = 0; next }
    /^[ \t]*\/\// { next }
    { sub(/[ \t]+\/\/ .*$/, ""); print > (intest ? test : code) }
  ' "$f"
done

status=0
for f in $(find crates/*/src -name '*.rs' | sort); do
  key=${f//\//__}
  items=$(sed -nE 's/^[[:space:]]*pub (const )?(fn|struct) ([A-Za-z_][A-Za-z_0-9]*).*/\2 \3/p' \
    "$tmp/code/$key" | sort -u | tr ' ' ':')
  for item in $items; do
    kind=${item%%:*}
    name=${item#*:}
    for allowed in "${allowlist[@]}"; do
      [[ $name == "$allowed" ]] && continue 2
    done
    if [[ $kind == fn ]]; then
      # A call, a turbofish, a path, or the function passed as a value;
      # `x.name` alone is a field of the same name, not a use.
      use="\b$name[[:space:]]*(\(|::<)|::$name\b|[(,=][[:space:]]*$name\b"
    else
      use="\b$name\b"
    fi
    def="(fn|struct)[[:space:]]+$name\b"
    uses=$(grep -rhE --exclude="$key" -- "$use" "$tmp/code" "$tmp/test" \
      | grep -vcE "$def" || true)
    # A struct's own `impl` blocks (top-level, closed by a lone `}`)
    # name it without using it.
    own=$(awk -v name="$name" '
      $0 ~ "^impl[^{]*[^A-Za-z_0-9]" name "([^A-Za-z_0-9][^{]*)?\\{$" { inimpl = 1; next }
      inimpl { if ($0 ~ /^\}$/) inimpl = 0; next }
      { print }
    ' "$tmp/code/$key" | grep -hE -- "$use" | grep -vcE "$def" || true)
    if [[ $((uses + own)) -eq 0 ]]; then
      echo "$f: $name"
      status=1
    fi
  done
done
exit $status
