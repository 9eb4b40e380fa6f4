"""Print every end-to-end metric of every workload in one table.

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--trace 0]

Runs ``run.py`` once per workload, each in its own process, and prints
the metric lines each run prints (wall_s, setup_s, peak_rss_mb,
bracket_rel_width_max and failed_frac with --trace 0; the per-layer
metrics with --trace 1), one column per workload.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    table: dict[str, dict[str, str]] = {}
    units: dict[str, str] = {}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=HERE.parent)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        for line in done.stdout.splitlines()[:-1]:
            parts = line.split()
            if len(parts) == 3:
                name, value, unit = parts
                table.setdefault(name, {})[workload] = value
                units[name] = unit
    print(f"{'metric':36s}" + "".join(f"{w:>14s}" for w in workloads.WORKLOADS) + "  unit")
    for name, row in table.items():
        print(f"{name:36s}" + "".join(f"{row.get(w, '-'):>14s}" for w in workloads.WORKLOADS)
              + f"  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
