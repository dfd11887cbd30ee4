"""Line counts of the workspace's Rust code, split into code and tests.

A crate's non-test lines are those of every `crates/<crate>/src/*.rs` (the
umbrella package's `src/*.rs` counts as `root`) above the file's first
`#[cfg(test)]` at column 0; the lines from there on are its test-module
lines. Integration tests (`tests/*.rs` and `crates/*/tests/*.rs`) are counted
apart. Every line counts, blank and comment lines too.

The `pub items` column counts the crate's public item declarations in its
non-test lines: each line that declares a `pub fn` (or `pub const fn`),
`pub struct`, `pub enum`, `pub trait`, `pub const`, `pub type` or
`pub static`. `pub(crate)` items, `pub use` re-exports, `pub mod` and public
fields do not count. So a change's API growth or shrinkage is on record next
to its line change.

Run from the repository root:

    python3 .github/line_counts.py
"""

import glob
import os
import re

PUB_ITEM = re.compile(r"^\s*pub\s+(?:const\s+)?(?:fn|struct|enum|trait|const|type|static)\b")


def split(path):
    """(non-test lines, test-module line count) of one source file."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for index, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            return lines[:index], len(lines) - index
    return lines, 0


def main():
    crates = {"root": "src"}
    for src in sorted(glob.glob("crates/*/src")):
        crates[os.path.basename(os.path.dirname(src))] = src
    print(f"{'crate':<12}{'non-test':>10}{'test':>8}{'pub items':>11}")
    totals = [0, 0, 0]
    for name, src in crates.items():
        code = tests = items = 0
        for path in sorted(glob.glob(os.path.join(src, "*.rs"))):
            lines, t = split(path)
            code += len(lines)
            tests += t
            items += sum(1 for line in lines if PUB_ITEM.match(line))
        totals[0] += code
        totals[1] += tests
        totals[2] += items
        print(f"{name:<12}{code:>10,}{tests:>8,}{items:>11,}")
    print(f"{'total':<12}{totals[0]:>10,}{totals[1]:>8,}{totals[2]:>11,}")
    integration = sorted(glob.glob("tests/*.rs") + glob.glob("crates/*/tests/*.rs"))
    lines = 0
    for path in integration:
        code, t = split(path)
        lines += len(code) + t
    print(f"integration tests: {lines:,} lines in {len(integration)} files")


if __name__ == "__main__":
    main()
