"""divbands benchmark: run one workload's job list through the CLI in-process.

    python3 perfbench/run.py --workload exp-solve --seed 0 --seconds 30 --trace 0

The benchmark is a closed loop: one client runs one job at a time through
``divbands.cli.main(argv)`` in this process, with BLAS threads pinned to
1 and ``--threads`` set to the number of usable cores.  Jobs run
round-robin until ``--seconds`` is spent (every job at least once); each
execution is timed around ``main`` alone, rescaled to the nominal host
speed by the probes of calibrate.py, which sample the host's speed
before, during and after it (before and after only, for an execution
that ran on more than one thread or core), and its outputs are checked
afterwards, untimed (see checks.py).

``--trace 0`` reports the end-to-end metrics:

* wall_s: one pass of the job list, the sum over jobs of each job's mean
  time;
* setup_s: median over fresh interpreters of importing ``divbands.cli``
  and loading every job's config;
* peak_rss_mb: peak resident memory of this process.

``--trace 1`` alternates untraced and traced executions of every job and
reports the per-layer metrics of spans.py, per pass (sum over jobs of each
job's median), with the tracing overhead.  Span times are as measured,
not rescaled.  Spans go to ``perfbench/.work/<workload>/trace.jsonl``.

Every run also prints bracket_rel_width_max and failed_frac.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Without the divbands sources under
``src/`` the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference" / "seed0.json"

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3  # before the jobs; one more after every pass
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import calibrate
with calibrate.Clock() as clock:
    sys.path.insert(0, sys.argv[2])
    import divbands.cli
    for path in sys.argv[3:]:
        divbands.cli.load_config(path)
print(clock.seconds, clock.normalised)
"""


@dataclass
class JobRecord:
    """Timings and check state of one job across its executions."""

    job: object
    config_path: Path
    outdir: Path
    seconds: list[float] = field(default_factory=list)
    raw_seconds: list[float] = field(default_factory=list)
    traced_seconds: list[float] = field(default_factory=list)
    traced_totals: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    parallel: int = 0
    verified_digest: str | None = None
    facts: dict | None = None


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _threads() -> int:
    return len(os.sched_getaffinity(0))


def _write_configs(jobs, workdir: Path) -> list[JobRecord]:
    import yaml

    records = []
    for job in jobs:
        jobdir = workdir / job.job_id
        jobdir.mkdir(parents=True)
        outdir = jobdir / "out"
        config_path = jobdir / "config.yaml"
        body = dict(job.config, output_dir=str(outdir))
        config_path.write_text(yaml.safe_dump(body, sort_keys=True))
        records.append(JobRecord(job, config_path, outdir))
    return records


def measure_setup(records: list[JobRecord]) -> tuple[float, float]:
    """Seconds, raw and normalised, for a fresh interpreter to import
    divbands.cli and load every config."""
    argv = [sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC),
            *(str(r.config_path) for r in records)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, env=os.environ.copy(), check=True)
    raw, normalised = done.stdout.split()
    return float(raw), float(normalised)


def execute(cli, rec: JobRecord, recorder=None) -> tuple[calibrate.Clock, int | None]:
    """One timed CLI call: its clock and exit code (None if the call raised)."""
    if rec.outdir.exists():
        shutil.rmtree(rec.outdir)
    argv = [rec.job.command, str(rec.config_path), *rec.job.args]
    gc.collect()
    code = None
    with calibrate.Clock() as clock:
        try:
            if recorder is None:
                code = cli.main(argv)
            else:
                with recorder.job(rec.job.job_id):
                    code = cli.main(argv)
        except Exception:  # a crashing job is a failed job, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
    if clock.parallel:
        rec.parallel += 1
    return clock, code


def check(rec: JobRecord, code: int | None, reference: dict | None) -> list[str]:
    """Problems with one execution's outputs (empty when correct)."""
    import checks

    if code != 0:
        return [f"exit code {code}"]
    try:
        digest = checks.digest(rec.outdir)
        if digest == rec.verified_digest:
            return []  # byte-identical to outputs that already passed
        facts, problems = checks.extract(rec.job.command, rec.outdir)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    if reference is not None:
        problems += checks.compare(facts, reference[rec.job.job_id])
    if not problems:
        rec.verified_digest, rec.facts = digest, facts
    return problems


def out_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir()) if outdir.exists() else 0


def round_robin(records: list[JobRecord], seconds: float, step,
                between_passes=None) -> None:
    """Call ``step(rec)`` per job, round-robin, until ``seconds`` are spent.

    Every job runs at least once; afterwards a job runs again only if its
    last step fits in the time left, so short jobs fill the tail.
    ``between_passes()`` runs after every pass that ran a job.
    """
    start = time.perf_counter()
    cost = {id(r): 0.0 for r in records}
    while True:
        ran = False
        for rec in records:
            elapsed = time.perf_counter() - start
            if rec.attempted and elapsed + cost[id(rec)] > seconds:
                continue
            t0 = time.perf_counter()
            step(rec)
            cost[id(rec)] = time.perf_counter() - t0
            ran = True
        if not ran:
            return
        if between_passes is not None:
            between_passes()


def _pass_seconds(values_per_job: list[list[float]]) -> float:
    """Seconds per pass: the sum over jobs of each job's mean time.

    A mean, not a median: normalised times keep a few percent of jitter
    per execution, and over the few executions a long job gets in one
    run the mean averages it out where a median keeps one draw of it.
    """
    return sum(statistics.fmean(v) for v in values_per_job)


def _report(correct: bool, attempted: int, failed: int,
            shown: dict[str, tuple[float, str]], result: dict[str, tuple[float, str]],
            notes: list[str]):
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in shown.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "divbands" / "cli.py").is_file():
        print(f"perfbench: no divbands sources in {SRC}", file=sys.stderr)
        return 2
    if args.seed == 0 and not REFERENCE.is_file():
        print(f"perfbench: missing reference data {REFERENCE}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import divbands.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "divbands":
        print(f"perfbench: imported divbands from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import checks
    import spans
    import workloads

    try:
        jobs = workloads.jobs(args.workload, args.seed, _threads())
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    reference = None
    if args.seed == 0:
        reference = json.loads(REFERENCE.read_text())["jobs"]

    workdir = WORK / args.workload
    if workdir.exists():
        shutil.rmtree(workdir)
    records = _write_configs(jobs, workdir)

    def run_checked(rec, recorder=None):
        clock, code = execute(cli, rec, recorder)
        problems = check(rec, code, reference)
        rec.attempted += 1
        if problems:
            rec.failed += 1
            print(f"perfbench: {rec.job.job_id} failed: {'; '.join(problems[:3])}",
                  file=sys.stderr)
        return clock.seconds, clock.normalised

    recorder = spans.Recorder()
    notes: list[str] = []
    if args.trace == 0:
        # set-up samples are spread over the run, like the jobs
        setup = [measure_setup(records) for _ in range(SETUP_REPS)]

        def step(rec):
            raw, seconds = run_checked(rec)
            rec.raw_seconds.append(raw)
            rec.seconds.append(seconds)

        round_robin(records, args.seconds, step,
                    lambda: setup.append(measure_setup(records)))
        notes.append(f"as measured: {_pass_seconds([r.raw_seconds for r in records]):.4f} s "
                     f"per pass, {statistics.median(s[0] for s in setup):.4f} s set-up")
        result = {
            "wall_s": (_pass_seconds([r.seconds for r in records]), "s"),
            "setup_s": (statistics.median(s[1] for s in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        def step(rec):
            traced_first = len(rec.traced_seconds) % 2 == 1
            for traced in (traced_first, not traced_first):
                if traced:
                    first = len(recorder.spans)
                    recorder.install()
                    try:
                        _, seconds = run_checked(rec, recorder)
                    finally:
                        recorder.restore()
                    rep = recorder.spans[first:]
                    rep[0].counts["out_bytes"] = out_bytes(rec.outdir)
                    rec.traced_seconds.append(seconds)
                    rec.traced_totals.append(recorder.totals(rep))
                else:
                    rec.seconds.append(run_checked(rec)[1])

        round_robin(records, args.seconds, step)
        totals: dict[str, float] = {}
        for rec in records:
            keys = set().union(*rec.traced_totals)
            for key in keys:
                med = statistics.median(t.get(key, 0.0) for t in rec.traced_totals)
                totals[key] = totals.get(key, 0.0) + med
        result = spans.layer_metrics(totals)
        wall = _pass_seconds([r.seconds for r in records])
        traced_wall = _pass_seconds([r.traced_seconds for r in records])
        failed_total = sum(r.failed for r in records)
        result["cli.jobs_failed"] = (float(failed_total), "count")
        result["trace.overhead_frac"] = (traced_wall / wall - 1.0, "ratio")
        recorder.write_jsonl(workdir / "trace.jsonl", {
            "workload": args.workload, "seed": args.seed,
            "wall_s": wall, "traced_wall_s": traced_wall,
        })
        if recorder.absent:
            notes.append(f"absent spans: {', '.join(recorder.absent)}")

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    parallel = sum(r.parallel for r in records)
    if parallel:
        notes.append(f"{parallel} of {attempted} executions ran on more than one thread "
                     "or core: timed against the probes at their ends only")
    quality = {
        "bracket_rel_width_max": (max((checks.rel_width_max(r.facts)
                                       for r in records if r.facts), default=0.0), "ratio"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    if args.trace == 1:  # declared per layer: both can be 0 (see NOTES.md)
        result.update(quality)
    for rec in records:
        if rec.outdir.exists():
            shutil.rmtree(rec.outdir)
    _report(failed == 0, attempted, failed, {**result, **quality}, result, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
