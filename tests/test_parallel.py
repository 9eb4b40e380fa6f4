"""Fork-split emission and simulation: same bytes, serial errors, no strays.

``helpers.split_everything`` drops the emission size gate and reports
four usable CPUs, so ``--threads`` 2 and 4 really split on any host.
"""

import os

import numpy as np
import pytest
import yaml

import divbands.cli as cli
import divbands.parallel as parallel
from divbands.errors import InvariantViolation
from divbands.exp_solver import solve_exp
from divbands.parallel import fork_parts, split_runs
from divbands.simulate import BATCH, simulate_paths
from helpers import make_config, refuse_forks, split_everything

# three batches, the last one short; few steps keep it fast
SIM_PATHS = 2 * BATCH + 7
SIM_CONFIG = make_config("exponential", {1: 0.6, -1: 0.4}, 0.9, -1.0, 44, 213)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_config(tmp_path, body, name):
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(dict(body, output_dir=str(tmp_path / name))))
    return path


def exp_body(**over):
    return {"beta": 0.8, "gamma": -3.0, "utility": "exponential",
            "distribution": {1: 0.7, -1: 0.3}, "x_max": 10, "depth": 6, **over}


@pytest.fixture
def fork_log(monkeypatch, tmp_path):
    """Count os.fork calls, passing through to the real one.

    Returns the list of children alive after each fork in this process; a
    fork made by a child leaves a marker file instead, which the fixture
    fails on.
    """
    real_fork, real_waitpid = os.fork, os.waitpid
    me, alive, log = os.getpid(), set(), []

    def fork():
        if os.getpid() != me:
            (tmp_path / f"fork-from-{os.getpid()}").touch()
        pid = real_fork()
        if pid:
            alive.add(pid)
            log.append(len(alive))
        return pid

    def waitpid(pid, options):
        got = real_waitpid(pid, options)
        alive.discard(got[0])
        return got

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    yield log
    assert not list(tmp_path.glob("fork-from-*")), "a child forked again"
    assert not alive


# -- the helper ----------------------------------------------------------------

def test_split_runs_are_contiguous_and_clamped(monkeypatch):
    split_everything(monkeypatch)
    items = list(range(10))
    for threads, k in ((1, 1), (3, 3), (4, 4), (10**6, 4)):
        runs = split_runs(threads, items)
        assert len(runs) == k
        assert [i for run in runs for i in run] == items
        assert max(map(len, runs)) - min(map(len, runs)) <= 1
    assert split_runs(4, range(2)) == [range(0, 1), range(1, 2)]
    assert split_runs(4, []) == [[]]


def test_fork_parts_reports_failed_parts_and_reaps_children(tmp_path):
    def part(i):
        (tmp_path / str(i)).touch()
        if i in (1, 3):
            raise ValueError(i)

    assert fork_parts(4, part) == [1, 3]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1", "2", "3"]
    assert_no_child_left()

    def late(i):
        if i == 0:
            raise KeyError("part 0")
        (tmp_path / f"late{i}").touch()

    with pytest.raises(KeyError, match="part 0"):
        fork_parts(3, late)
    assert sorted(p.name for p in tmp_path.glob("late*")) == ["late1", "late2"]
    assert_no_child_left()


def fake_proc(tmp_path, flags, cpuset_line="3:cpuset:/jobs"):
    """A /proc/self stand-in whose cpuset hierarchy is mounted under tmp_path."""
    mount = tmp_path / "cpuset"
    for rel, flag in flags.items():
        (mount / rel).mkdir(parents=True, exist_ok=True)
        (mount / rel / "cpuset.sched_load_balance").write_text(f"{flag}\n")
    proc = tmp_path / "proc"
    proc.mkdir()
    (proc / "cgroup").write_text(f"4:memory:/m\n{cpuset_line}\n0::/\n")
    (proc / "mountinfo").write_text(
        "24 1 0:20 / /sys rw - sysfs sysfs rw\n"
        f"35 32 0:31 / {mount} rw,relatime - cgroup cgroup rw,cpuset\n")
    return str(proc)


@pytest.mark.parametrize("flags, cpuset_line, off", [
    ({".": 0, "jobs": 0}, "3:cpuset:/jobs", True),
    ({".": 1, "jobs": 0}, "3:cpuset:/jobs", False),
    ({".": 0, "jobs": 1}, "3:cpuset:/jobs", False),
    ({".": 0}, "3:cpuset:/", True),
    ({".": 0}, "3:cpu:/", False),  # no cpuset controller
    ({".": 0}, "3:cpuset:/gone", False),  # unreadable flag
])
def test_balance_off_reads_the_cpuset_chain(tmp_path, flags, cpuset_line, off):
    assert parallel._balance_off(fake_proc(tmp_path, flags, cpuset_line)) is off


def test_balance_off_is_false_without_proc(tmp_path):
    assert parallel._balance_off(str(tmp_path / "none")) is False


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity calls")
@pytest.mark.parametrize("off", [True, False])
def test_pinning_only_where_balance_is_off_and_mask_restored(tmp_path, monkeypatch, off):
    monkeypatch.setattr(parallel, "_balance_off", lambda: off)
    before = os.sched_getaffinity(0)
    seen = []
    fork_parts(2, lambda i: seen.append(os.sched_getaffinity(0)) if i == 0 else None)
    assert seen == [{min(before)} if off else before]
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()


# -- process bounds ----------------------------------------------------------------

def test_huge_threads_start_at_most_cores_minus_one_children(tmp_path, monkeypatch,
                                                             fork_log):
    monkeypatch.setattr(cli, "SPLIT_CELLS", 0)  # real CPU count, no gate
    cores = len(os.sched_getaffinity(0))
    for command, flags in (("solve-exp", []), ("howard", []),
                           ("simulate", ["--paths", str(SIM_PATHS), "--max-steps", "20"])):
        path = write_config(tmp_path, exp_body(), command)
        assert cli.main([command, str(path), "--threads", "1000000", *flags]) == 0
    assert max(fork_log, default=0) <= cores - 1
    assert (len(fork_log) > 0) == (cores > 1)
    assert_no_child_left()


def test_one_thread_never_forks(tmp_path, monkeypatch, fork_log):
    split_everything(monkeypatch)
    for command, flags in (("solve-exp", []), ("howard", []),
                           ("simulate", ["--paths", str(SIM_PATHS), "--max-steps", "20"])):
        path = write_config(tmp_path, exp_body(), command)
        assert cli.main([command, str(path), "--threads", "1", *flags]) == 0
    assert fork_log == []


# -- same bytes at every thread count -------------------------------------------

def test_simulate_is_byte_identical_across_threads(tmp_path, monkeypatch):
    split_everything(monkeypatch)
    outputs = set()
    for threads in (1, 2, 4):
        path = write_config(tmp_path, exp_body(), f"sim{threads}")
        assert cli.main(["simulate", str(path), "--paths", str(SIM_PATHS),
                         "--max-steps", "20", "--threads", str(threads)]) == 0
        outputs.add((tmp_path / f"sim{threads}" / "summary.json").read_bytes())
    assert len(outputs) == 1
    assert_no_child_left()


def test_simulate_paths_workers_give_the_same_arrays(monkeypatch):
    split_everything(monkeypatch)
    _, policy = solve_exp(SIM_CONFIG)
    runs = [simulate_paths(SIM_CONFIG, policy, 10, SIM_PATHS, max_steps=30, workers=w)
            for w in (1, 2, 4)]
    for field in ("discounted_sums", "ruin_times", "truncated", "utilities"):
        assert len({getattr(r, field).tobytes() for r in runs}) == 1, field
    assert_no_child_left()


def test_refused_fork_runs_the_batches_here(monkeypatch):
    split_everything(monkeypatch)
    refused = refuse_forks(monkeypatch)
    _, policy = solve_exp(SIM_CONFIG)
    runs = [simulate_paths(SIM_CONFIG, policy, 10, SIM_PATHS, max_steps=30, workers=w)
            for w in (1, 2)]
    assert refused
    for field in ("discounted_sums", "ruin_times", "truncated", "utilities"):
        assert len({getattr(r, field).tobytes() for r in runs}) == 1, field


# -- errors raised in a child are the serial ones -----------------------------------

def test_ragged_block_in_a_child_raises_the_serial_error(tmp_path, monkeypatch):
    split_everything(monkeypatch)
    good = (np.arange(2), ["0", "1"])
    blocks = [good, (np.arange(2), ["0"]), good, (np.arange(3), ["0"])]
    errors = []
    for threads in (1, 2, 4):
        with pytest.raises(ValueError) as err:
            cli._write_csv(tmp_path / "t.csv", ["a", "b"], blocks, threads)
        errors.append(str(err.value))
        assert_no_child_left()
    assert errors == ["ragged block in t.csv: column sizes [1, 2]"] * 3


def out_of_range_late(t, x, s):
    # only the last, 7-path batch ever has so few live paths at step 3
    return x + 1 if t == 3 and x.size <= 7 else np.zeros_like(x)


def broken_late(t, x, s):
    if t == 3 and x.size <= 7:
        raise InvariantViolation(f"forced at step {t} on {x.size} paths")
    return np.zeros_like(x)


@pytest.mark.parametrize("policy, code", [(out_of_range_late, 2), (broken_late, 3)])
def test_policy_failing_in_a_late_batch_exits_as_serially(tmp_path, monkeypatch, capsys,
                                                          policy, code):
    split_everything(monkeypatch)
    monkeypatch.setattr(cli, "_solve", lambda config: (None, policy))
    errors = []
    for threads in (1, 2, 4):
        path = write_config(tmp_path, exp_body(), f"sim{threads}")
        assert cli.main(["simulate", str(path), "--paths", str(SIM_PATHS), "--max-steps",
                         "20", "--threads", str(threads)]) == code
        errors.append(capsys.readouterr().err)
        assert_no_child_left()
    assert len(set(errors)) == 1 and "at step 3" in errors[0]
