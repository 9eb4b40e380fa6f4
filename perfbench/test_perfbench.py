"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench

They run a few of the smallest seed-0 jobs, so they take seconds.
"""

from __future__ import annotations

import csv
import json
import signal
import statistics
import subprocess
import sys
import threading
import time

import pytest

import calibrate
import checks
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
import divbands.cli as cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads(run.REFERENCE.read_text())["jobs"]
SMALL = ("solve-exp.readme", "howard.threeband", "solve-neutral.neutral",
         "bands.threeband")


def _all_jobs(seed, threads=2):
    return {j.job_id: j for w in workloads.WORKLOADS
            for j in workloads.jobs(w, seed, threads)}


@pytest.fixture
def small_run(monkeypatch, tmp_path):
    """run.main over the small seed-0 jobs; returns the parsed result line."""
    everything = _all_jobs(0)
    monkeypatch.setattr(workloads, "jobs",
                        lambda workload, seed, threads: [everything[j] for j in SMALL])
    monkeypatch.setattr(run, "WORK", tmp_path)

    def go(trace, capsys):
        code = run.main(["--workload", "exp-solve", "--seed", "0",
                         "--seconds", "0", "--trace", str(trace)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return json.loads(lines[-1]), lines[:-1]
    return go


def _solved(tmp_path, job_id):
    rec = run._write_configs([_all_jobs(0)[job_id]], tmp_path)[0]
    _, code = run.execute(cli, rec)
    assert code == 0
    return rec


def _problems(rec):
    facts, problems = checks.extract(rec.job.command, rec.outdir)
    return problems + checks.compare(facts, REFERENCE[rec.job.job_id])


def test_seed0_instances_are_the_documented_ones():
    inst = workloads.instances(0)
    for name, size in workloads.SEED0_EXP_SIZES.items():
        cfg = inst[name]
        assert (cfg["x_max"], cfg["depth"]) == size
        assert workloads._exp_size(cfg["distribution"], cfg["beta"], cfg["gamma"]) == size
    assert inst["power"]["x_max"] == inst["log"]["x_max"] == inst["neutral"]["x_max"] == 54
    for name in ("power", "neutral"):
        cfg = inst[name]
        assert workloads._power_cap(cfg["distribution"], cfg["beta"]) == 54
    assert inst["simulate"] == {**inst["bandy"], "seed": 0}
    assert [j.job_id for j in workloads.jobs("verify", 0, 2)] == [
        "howard.readme", "howard.threeband", "oracle-check.readme",
        "oracle-check.threeband", "simulate.bandy", "solve-neutral.neutral",
        "bands.threeband"]
    assert set(_all_jobs(0)) == set(REFERENCE)
    assert all(j.args[:2] == ("--threads", "2") for j in _all_jobs(0).values())


def test_seeds_give_nearby_reproducible_instances():
    assert workloads.instances(7) == workloads.instances(7)
    assert workloads.instances(7) != workloads.instances(8)
    base = workloads.instances(0)
    for seed in (1, 2, 3):
        inst = workloads.instances(seed)
        for name in ("readme", "bandy", "fourpoint", "threeband", "power"):
            a, b = inst[name]["distribution"], base[name]["distribution"]
            assert a.keys() == b.keys()
            assert max(abs(a[k] - b[k]) for k in a) == pytest.approx(0.01)
        assert inst["simulate"] == {**base["simulate"], "seed": inst["simulate"]["seed"]}


def test_check_passes_reference_outputs(tmp_path):
    for job_id in ("solve-exp.readme", "bands.threeband"):
        assert _problems(_solved(tmp_path, job_id)) == []


def test_check_catches_corrupted_bracket(tmp_path):
    rec = _solved(tmp_path, "solve-exp.readme")
    path = rec.outdir / "summary.json"
    summary = json.loads(path.read_text())
    summary["values"][10]["j_hi"] *= 1 + 1e-6
    path.write_text(json.dumps(summary))
    assert any("bracket 10" in p for p in _problems(rec))

    summary["values"][10]["j_lo"] = summary["values"][10]["j_hi"] * 2
    path.write_text(json.dumps(summary))
    assert any("lo > hi" in p for p in _problems(rec))


def test_check_catches_lo_above_hi_in_table(tmp_path):
    rec = _solved(tmp_path, "solve-exp.readme")
    path = rec.outdir / "values.csv"
    rows = list(csv.reader(path.read_text().splitlines()))
    rows[5][3], rows[5][4] = "1.0", "0.5"  # j_lo, j_hi
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert any("j_lo > j_hi" in p for p in _problems(rec))


def test_check_catches_changed_band_cut(tmp_path):
    rec = _solved(tmp_path, "bands.threeband")
    for name in ("bands.csv", "summary.json"):
        path = rec.outdir / name
        path.write_text(path.read_text().replace("0;2;2;4;4", "0;2;2;4;5", 1))
    assert "cuts differ from reference" in _problems(rec)


def test_missing_output_is_a_failed_job(tmp_path):
    rec = _solved(tmp_path, "bands.threeband")
    (rec.outdir / "bands.csv").unlink()
    assert run.check(rec, 0, REFERENCE)[0].startswith("unreadable outputs")
    assert run.check(rec, 3, REFERENCE) == ["exit code 3"]


def test_check_catches_failed_oracle():
    facts = {"brackets": [[1.0, 1.0]], "oracle": [1.0], "pass": [False, False]}
    assert checks.compare(facts, {**facts, "pass": [True, True]})


def test_rel_width_and_rle():
    assert checks.rel_width_max({"brackets": [[1.0, 1.5], [-2.0, -1.0], [0.0, 0.0]]}) == 0.5
    assert checks.rle(["0", "0", "1", "0"]) == [["0", 2], ["1", 1], ["0", 1]]


def test_untraced_metrics_match_benchmark_json(small_run, capsys):
    result, lines = small_run(0, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(SMALL)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0] for line in lines if not line.startswith("#")}
    assert printed == set(declared) | {"bracket_rel_width_max", "failed_frac"}


def test_traced_metrics_match_benchmark_json(small_run, capsys):
    result, lines = small_run(1, capsys)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert {line.split()[0] for line in lines} == set(declared)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["howard.iterations"] > 0 and m["exp_solver.schedule_builds"] > 0
    assert m["cli.emit_s"] > 0 and m["cli.out_bytes"] > 0


def test_traced_run_survives_missing_name(small_run, capsys, monkeypatch):
    renamed = tuple(("divbands.howard", "improve_gone", *t[2:])
                    if t[:2] == ("divbands.howard", "improve") else t
                    for t in spans.TARGETS)
    monkeypatch.setattr(spans, "TARGETS", renamed + (
        ("divbands.no_such_module", "f", "gone.f", None),))
    result, lines = small_run(1, capsys)
    assert result["correct"]
    assert any("divbands.howard.improve_gone" in line and "divbands.no_such_module.f" in line
               for line in lines if line.startswith("# absent spans"))
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["howard.improve_s"] == 0 and m["howard.solve_s"] > 0


def test_recorder_self_time_and_restore(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS",
                        (("divbands.cli", "load_config", "cli.load_config", None),))
    rec = spans.Recorder()
    original = cli.load_config
    rec.install()
    assert cli.load_config is not original
    rec.restore()
    assert cli.load_config is original
    with rec.job("j"):
        outer = rec.spans[0]
        inner = rec._open("child")
        rec._close(inner)
    own = rec.self_seconds()
    assert own[outer.sid] == pytest.approx(outer.seconds - inner.seconds)
    assert rec.totals(rec.spans)["cli.main.calls"] == 1


def test_clock_samples_throughout_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.Clock() as clock:
        time.sleep(0.2)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert not clock.parallel
    assert len(clock.samples) >= 2 * calibrate.END_PROBES + 5
    inside = sum(clock.samples[calibrate.END_PROBES:-calibrate.END_PROBES])
    assert 0.15 < clock.seconds < clock.elapsed - inside  # the ticks are subtracted
    assert clock.normalised == pytest.approx(
        clock.seconds * calibrate.NOMINAL_S / statistics.median(clock.samples))


def _spin(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def _scaled_by_end_probes(clock):
    ends = clock.samples[:calibrate.END_PROBES] + clock.samples[-calibrate.END_PROBES:]
    return clock.elapsed * calibrate.NOMINAL_S / statistics.median(ends)


def test_clock_with_a_busy_worker_thread_uses_the_end_probes_only():
    with calibrate.Clock() as clock:
        worker = threading.Thread(target=_spin, args=(0.3,))
        worker.start()
        worker.join()
    assert clock.parallel
    assert clock.seconds == clock.elapsed >= 0.3  # nothing subtracted
    assert clock.normalised == pytest.approx(_scaled_by_end_probes(clock))


def test_clock_with_a_busy_child_process_uses_the_end_probes_only():
    with calibrate.Clock() as clock:
        child = subprocess.Popen([sys.executable, "-c",
                                  "import time\nd = time.perf_counter() + 0.3\n"
                                  "while time.perf_counter() < d: pass"])
        while child.poll() is None:
            _spin(0.01)
    assert clock.parallel  # no new thread here: the child process gives it away
    assert clock.seconds == clock.elapsed
    assert clock.normalised == pytest.approx(_scaled_by_end_probes(clock))
