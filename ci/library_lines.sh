#!/usr/bin/env bash
# Line counts of the tracked Rust sources, the way ROADMAP's "Line budget"
# and the CHANGES.md "Measured lines" entries count them. Prints three numbers:
#
#   library   crates/*/src (outside src/bin) + src/lib.rs, with every
#             `#[cfg(test)] mod … { … }` split off
#   in-crate  those split-off test modules
#   other     tests, examples, benches and bins (every other tracked *.rs
#             outside benchmark/, which is its own package)
#
# Usage: ci/library_lines.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

git ls-files -z -- '*.rs' ':!benchmark/' | xargs -0 awk '
  function is_library(f) {
    return f == "src/lib.rs" || (f ~ /^crates\/[^\/]+\/src\// && f !~ /^crates\/[^\/]+\/src\/bin\//)
  }
  FNR == 1 { in_test = 0; held = 0 }
  !is_library(FILENAME) { other++; next }
  in_test {
    tests++
    depth += gsub(/\{/, "{") - gsub(/\}/, "}")
    in_test = depth > 0
    next
  }
  # A `#[cfg(test)]` line is held until the next line says whose it is.
  /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { library += held; held = 1; next }
  held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+ \{/ {
    tests += 2; held = 0
    depth = gsub(/\{/, "{") - gsub(/\}/, "}")
    in_test = depth > 0
    next
  }
  { library += 1 + held; held = 0 }
  END { printf "library %d\nin-crate tests %d\ntests+examples+benches+bins %d\n", library, tests, other }
'
