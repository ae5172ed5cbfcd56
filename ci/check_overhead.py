#!/usr/bin/env python3
"""Gate the tracing overhead of the solver kernel, as `kernel_profile` runs it.

Usage: check_overhead.py <untraced_walls.txt> <traced_walls.txt>

Each file holds one `total_wall_secs` value per line (several repetitions of
`kernel_profile`). Best-of is compared — the minimum is the least
scheduler-disturbed run:

  * the tracing-DISABLED build must be within 5% of the traced one
    (instrumentation off must never be the slow path);
  * the traced build may cost at most 25% over the untraced one
    (span recording stays off the hot pivot loop).
"""

import sys

DISABLED_SLACK = 1.05
TRACED_SLACK = 1.25


def best(path: str) -> float:
    with open(path) as handle:
        values = [float(line) for line in handle if line.strip()]
    assert values, f"{path} is empty"
    return min(values)


def main() -> int:
    untraced = best(sys.argv[1])
    traced = best(sys.argv[2])
    ratio = untraced / traced
    print(f"untraced {untraced:.4f}s, traced {traced:.4f}s, ratio {ratio:.3f}")
    assert untraced <= traced * DISABLED_SLACK, (
        f"tracing-disabled build is {100 * (ratio - 1):.1f}% slower than traced "
        f"(> {100 * (DISABLED_SLACK - 1):.0f}% budget)"
    )
    assert traced <= untraced * TRACED_SLACK, (
        f"tracing costs {100 * (traced / untraced - 1):.1f}% "
        f"(> {100 * (TRACED_SLACK - 1):.0f}% budget)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
