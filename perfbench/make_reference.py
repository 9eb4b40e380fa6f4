"""Regenerate reference/seed0.json from the current program.

    python3 perfbench/make_reference.py

Runs every seed-0 job once, checks the invariants of checks.py and stores
each job's facts.  Changing the reference is a benchmark change of its
own: do it only when a change to the program is meant to alter outputs
beyond ``checks.REL_TOL``, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import divbands.cli as cli

    import checks
    import workloads

    out: dict = {}
    workdir = run.WORK / "reference"
    if workdir.exists():
        shutil.rmtree(workdir)
    for workload in workloads.WORKLOADS:
        records = run._write_configs(workloads.jobs(workload, 0, run._threads()), workdir / workload)
        for rec in records:
            *_, code = run.execute(cli, rec)
            if code != 0:
                print(f"{rec.job.job_id}: exit code {code}", file=sys.stderr)
                return 1
            facts, problems = checks.extract(rec.job.command, rec.outdir)
            if problems:
                print(f"{rec.job.job_id}: {problems}", file=sys.stderr)
                return 1
            out[rec.job.job_id] = facts
    shutil.rmtree(workdir)
    run.REFERENCE.parent.mkdir(exist_ok=True)
    run.REFERENCE.write_text(json.dumps(
        {"seed": 0, "rel_tol": checks.REL_TOL, "jobs": out}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE} ({len(out)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
