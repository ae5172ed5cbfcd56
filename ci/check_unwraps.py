#!/usr/bin/env python3
"""Ratchet the `.unwrap()` / `.expect(` sites in shipping code.

Usage: check_unwraps.py   (run from the repository root)

Counts `.unwrap()` and `.expect(` occurrences on non-comment lines of
non-test Rust under `crates/*/src`: each file's lines up to its first
`#[cfg(test)]` in column 0 (the attribute of a file's test module), and no
`tests.rs` file. An indented `#[cfg(test)]` marks one test-only item or
statement inside shipping code and does not end the scan. Fails when the
count is above CEILING. A change that removes sites lowers CEILING to the
new count in the same commit, so the ratchet only turns one way.
"""

import pathlib
import sys

CEILING = 88


def sites(path: pathlib.Path) -> int:
    count = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.rstrip() == "#[cfg(test)]":
            break
        if line.lstrip().startswith("//"):
            continue
        count += line.count(".unwrap()") + line.count(".expect(")
    return count


def main() -> int:
    total = 0
    for path in sorted(pathlib.Path("crates").glob("*/src/**/*.rs")):
        if path.name != "tests.rs":
            total += sites(path)
    print(f"unwrap/expect sites in non-test code: {total} (ceiling {CEILING})")
    if total > CEILING:
        print(
            f"{total - CEILING} site(s) over the ceiling: return an error or "
            "restructure instead of unwrapping",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
