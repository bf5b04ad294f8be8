"""Record the stdout sha256 of every CLI item any seed can draw.

    python3 perfbench/record_digests.py

Run from the root of a source checkout at the commit whose output is the
reference; it rewrites perfbench/digests.json.  Every item must exit 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    table, bad = {}, []
    for workload in ("recurrence-cli", "construct-cli"):
        table[workload] = {}
        for argv in workloads.cli_universe(workload):
            proc = subprocess.run(
                [sys.executable, "-c", "from mipoly.cli import entry; entry()", *argv],
                env=env, capture_output=True, check=False)
            key = " ".join(argv)
            if proc.returncode != 0:
                bad.append(f"{key}: exit {proc.returncode}")
                continue
            table[workload][key] = hashlib.sha256(proc.stdout).hexdigest()
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
