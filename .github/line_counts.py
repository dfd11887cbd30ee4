"""Line counts of the workspace's Rust code, split into code and tests.

A crate's non-test lines are those of every `crates/<crate>/src/*.rs` (the
umbrella package's `src/*.rs` counts as `root`) above the file's first
`#[cfg(test)]` at column 0; the lines from there on are its test-module
lines. Integration tests (`tests/*.rs` and `crates/*/tests/*.rs`) are counted
apart. Every line counts, blank and comment lines too.

Run from the repository root:

    python3 .github/line_counts.py
"""

import glob
import os


def split(path):
    """(non-test, test-module) line counts of one source file."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for index, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            return index, len(lines) - index
    return len(lines), 0


def main():
    crates = {"root": "src"}
    for src in sorted(glob.glob("crates/*/src")):
        crates[os.path.basename(os.path.dirname(src))] = src
    print(f"{'crate':<12}{'non-test':>10}{'test':>8}")
    totals = [0, 0]
    for name, src in crates.items():
        code = tests = 0
        for path in sorted(glob.glob(os.path.join(src, "*.rs"))):
            c, t = split(path)
            code += c
            tests += t
        totals[0] += code
        totals[1] += tests
        print(f"{name:<12}{code:>10,}{tests:>8,}")
    print(f"{'total':<12}{totals[0]:>10,}{totals[1]:>8,}")
    integration = sorted(glob.glob("tests/*.rs") + glob.glob("crates/*/tests/*.rs"))
    lines = sum(sum(split(path)) for path in integration)
    print(f"integration tests: {lines:,} lines in {len(integration)} files")


if __name__ == "__main__":
    main()
