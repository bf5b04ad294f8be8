"""Run one mipoly CLI invocation, as a user does, and report its peak memory.

    python3 perfbench/cli_item.py construct --family L --g 7/3 --indices 1I

stdout and the exit code are the CLI's own.  At exit, the peak resident
set of this process is written to stderr as the last line, prefixed with
``PEAK_PREFIX``.
"""

from __future__ import annotations

import sys

PEAK_PREFIX = "PERFBENCH_PEAK_KB "


def peak_kb() -> int:
    """Peak resident set of this process in KiB (VmHWM on Linux).

    Not ru_maxrss: at exec, Linux carries the replaced image's peak into
    it, and a child started with vfork replaces its parent's image, so
    every child's figure would be at least the benchmark client's own.
    VmHWM belongs to the address space, which exec creates afresh.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    from mipoly.cli import entry

    try:
        entry()
    finally:
        sys.stdout.flush()
        print(PEAK_PREFIX + str(peak_kb()), file=sys.stderr)


if __name__ == "__main__":
    main()
