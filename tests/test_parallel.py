"""Fork-split emission, simulation and the power/log solve: same bytes,
serial errors, no strays.

``helpers.split_everything`` drops the emission size gate and reports
four usable CPUs, so ``--threads`` 2 and 4 really split on any host.
"""

import os

import numpy as np
import pytest
import yaml

import divbands.cli as cli
import divbands.parallel as parallel
import divbands.power_solver as power_solver
import divbands.simulate as simulate
from divbands.errors import InvariantViolation
from divbands.exp_solver import solve_exp
from divbands.model import Utility
from divbands.parallel import fork_parts, shared_arrays, split_runs
from divbands.power_solver import SGrid, solve_log, solve_power
from divbands.simulate import BATCH, simulate_paths
from helpers import DOWN_ONE, make_config, refuse_forks, split_everything

# three batches, the last one short; few steps keep it fast
SIM_PATHS = 2 * BATCH + 7
SIM_CONFIG = make_config("exponential", {1: 0.6, -1: 0.4}, 0.9, -1.0, 44, 213)

POWER_CONFIGS = {
    # the benchmark's seed-0 power and log jobs
    "seed0-power": make_config("power", {1: 0.6, -1: 0.4}, 0.9, 0.5, 54, 5,
                               s_grid_points=512),
    "seed0-log": make_config("logarithmic", {1: 0.6, -1: 0.4}, 0.9, 0.0, 54, 3,
                             s_grid_points=512),
    # dyadic beta puts the payout lattice in the grid: exact hits, and
    # log rows of -inf at s = 0
    "dyadic-log": make_config("logarithmic", {1: 0.5, -1: 0.5}, 0.5, 0.0, 4, 3,
                              s_grid_points=64),
    # z+ = 3: actions a < 3 query the overflow rows above the cap
    "overflow": make_config("power", {3: 0.3, 1: 0.2, -1: 0.5}, 0.6, 0.4, 12, 3,
                            s_grid_points=40),
    "certain-loss": make_config("power", DOWN_ONE, 0.5, 0.5, 4, 3),
}
SMALL_POWER = POWER_CONFIGS["overflow"]


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


def power_body(utility):
    return {"beta": 0.6, "gamma": 0.4 if utility == "power" else 0.0, "utility": utility,
            "distribution": {1: 0.6, -1: 0.4}, "x_max": 4, "depth": 3,
            "s_grid_points": 16}


# every command that splits under --threads, with its config and flags
SPLITTING = (("solve-exp", exp_body(), []), ("howard", exp_body(), []),
             ("simulate", exp_body(), ["--paths", str(SIM_PATHS), "--max-steps", "20"]),
             ("solve-power", power_body("power"), []),
             ("solve-log", power_body("logarithmic"), []))


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


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity calls")
def test_fork_parts_reruns_failed_parts_here_after_reaping(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "_balance_off", lambda: True)  # part 0 runs pinned
    me, mask = os.getpid(), os.sched_getaffinity(0)
    here = []  # (part, CPU mask) of every part run in this process, in order

    def part(i):
        (tmp_path / str(i)).touch()
        if os.getpid() != me:
            if i in (1, 3):
                raise ValueError(i)
            return
        if i:  # a re-run: every child is reaped already
            assert_no_child_left()
        here.append((i, os.sched_getaffinity(0)))

    assert fork_parts(4, part) is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1", "2", "3"]
    assert here == [(0, {min(mask)}), (1, mask), (3, mask)]
    assert_no_child_left()

    def fails_everywhere(i):
        if i in (1, 2):
            raise ValueError(f"part {i}")
        (tmp_path / f"after{i}").touch()

    # the first re-run to raise raises its own serial error; later parts are
    # not re-run
    with pytest.raises(ValueError, match="part 1"):
        fork_parts(4, fails_everywhere)
    assert sorted(p.name for p in tmp_path.glob("after*")) == ["after0", "after3"]
    assert_no_child_left()

    def late(i):
        if i == 0:
            raise KeyError("part 0")
        (tmp_path / f"late{i}").touch()

    with pytest.raises(KeyError, match="part 0"):
        fork_parts(3, late)
    assert sorted(p.name for p in tmp_path.glob("late*")) == ["late1", "late2"]
    assert_no_child_left()


def test_shared_arrays_are_aligned_zeroed_views_of_one_mapping():
    flags, sums, times = shared_arrays((((3,), bool), ((2, 2), np.float64),
                                        ((1,), np.int64)), "outputs")
    assert flags.tobytes() == bytes(3) and not sums.any() and not times.any()
    assert sums.shape == (2, 2) and sums.flags.writeable
    # back to back in one mapping, each padded to its dtype's alignment
    start = [a.__array_interface__["data"][0] for a in (flags, sums, times)]
    assert [p - start[0] for p in start] == [0, 8, 40]


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
    for command, body, flags in SPLITTING:
        path = write_config(tmp_path, body, command)
        assert cli.main([command, str(path), "--threads", "1000000", *flags]) == 0
    assert max(fork_log, default=0) <= cores - 1
    assert (len(fork_log) > 0) == (cores > 1)
    assert_no_child_left()


def test_one_thread_never_forks(tmp_path, monkeypatch, fork_log):
    split_everything(monkeypatch)
    for command, body, flags in SPLITTING:
        path = write_config(tmp_path, body, command)
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


def test_simulate_paths_groups_give_the_same_arrays(monkeypatch):
    # groups of 1, 2 and the default 8 batches, each at workers 1 and 2
    split_everything(monkeypatch)
    _, policy = solve_exp(SIM_CONFIG)
    runs = []
    for group in (1, 2, simulate.GROUP):
        monkeypatch.setattr(simulate, "GROUP", group)
        runs += [simulate_paths(SIM_CONFIG, policy, 10, SIM_PATHS, max_steps=30, workers=w)
                 for w in (1, 2)]
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


def solve(config, workers=1):
    return (solve_power if config.utility is Utility.POWER else solve_log)(config, workers)


def solved_bytes(config, workers=1) -> tuple[bytes, bytes, bytes]:
    table, policy = solve(config, workers)
    return table.lo.tobytes(), table.hi.tobytes(), policy.action.tobytes()


@pytest.mark.parametrize("name", POWER_CONFIGS)
def test_power_solve_is_byte_identical_across_workers(monkeypatch, fork_log, name):
    # workers 2 and 4 both split into the lo run here and the hi run in
    # one child, forked once per solve
    split_everything(monkeypatch)
    config = POWER_CONFIGS[name]
    want = solved_bytes(config)
    assert fork_log == []
    for workers in (2, 4):
        assert solved_bytes(config, workers) == want
    assert fork_log == [1, 1]
    assert_no_child_left()


def two_cpus(monkeypatch) -> None:
    """Report two usable CPUs with pinning off, leaving the size gates as they are."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(parallel, "_set_cpus", lambda cpus: None)


@pytest.mark.parametrize("name, forks", [("dyadic-log", 0), ("certain-loss", 0),
                                         ("seed0-log", 1)])
def test_power_solve_forks_only_above_the_work_gate(monkeypatch, fork_log, name, forks):
    # the two small solves take a few ms alone, less than a fork costs
    two_cpus(monkeypatch)
    config = POWER_CONFIGS[name]
    work = config.depth * (config.x_max + 1) ** 2 * len(SGrid.build(config).points)
    assert (work >= power_solver.SPLIT_WORK) == bool(forks)
    want = solved_bytes(config)
    assert solved_bytes(config, 2) == want
    assert len(fork_log) == forks
    assert_no_child_left()


# seed-0 sizes of the benchmark's bandy solve-exp and its power solve-power
BANDY_BODY = {"beta": 0.95, "gamma": -0.05, "utility": "exponential",
              "distribution": {-1: 0.3, 1: 0.7}, "x_max": 228, "depth": 408}
SEED0_POWER_BODY = {"beta": 0.9, "gamma": 0.5, "utility": "power",
                    "distribution": {1: 0.6, -1: 0.4}, "x_max": 54, "depth": 5,
                    "s_grid_points": 512}


@pytest.mark.parametrize("command, body, forks", [("solve-exp", BANDY_BODY, 1),
                                                  ("solve-power", SEED0_POWER_BODY, 2)])
def test_policy_csv_splits_with_its_values_csv(tmp_path, monkeypatch, fork_log,
                                               command, body, forks):
    # one fork formats values.csv together with its policy.csv projection,
    # not one fork per file; solve-power forks once more for its solve
    two_cpus(monkeypatch)
    rows = body["depth"] * (body["x_max"] + 1) * body.get("s_grid_points", 1)
    assert rows * (8 + 3 if command == "solve-exp" else 7 + 4) >= cli.SPLIT_CELLS
    assert body["depth"] * 3 * body.get("s_grid_points", 1) < cli.SPLIT_CELLS  # bands.csv
    outputs = []
    for threads in (1, 2):
        path = write_config(tmp_path, body, f"{command}-{threads}")
        assert cli.main([command, str(path), "--threads", str(threads)]) == 0
        outputs.append({f.name: f.read_bytes() for f in (tmp_path / path.stem).iterdir()})
    assert outputs[0] == outputs[1]
    assert len(fork_log) == forks
    assert_no_child_left()


# -- errors raised in a child are the serial ones -----------------------------------

def test_upper_side_failing_only_in_the_child_is_rerun_here(monkeypatch):
    split_everything(monkeypatch)
    want = solved_bytes(SMALL_POWER)
    me, upper, child_calls = os.getpid(), power_solver._upper, []
    per_depth = SMALL_POWER.x_max + SMALL_POWER.dist.support_max

    def garbage_then_raise(at, rows, env):
        # in the child, once the last depth is done: write +inf into the
        # rows just built in the shared upper table, then fail; the re-run
        # here must start from clean rows, not from these
        if os.getpid() != me:
            child_calls.append(None)
            if len(child_calls) > per_depth:
                rows[...] = np.inf
                raise InvariantViolation("child only")
        return upper(at, rows, env)

    monkeypatch.setattr(power_solver, "_upper", garbage_then_raise)
    assert solved_bytes(SMALL_POWER, 2) == want
    assert_no_child_left()


@pytest.mark.parametrize("side", ["_lower", "_upper"])
def test_side_raising_everywhere_raises_the_serial_error(monkeypatch, side):
    split_everything(monkeypatch)

    def broken(at, rows, env):
        raise InvariantViolation(f"forced in {side} on {rows.ndim}-d rows")

    monkeypatch.setattr(power_solver, side, broken)
    errors = []
    for workers in (1, 2):
        with pytest.raises(InvariantViolation) as err:
            solve(SMALL_POWER, workers)
        errors.append(str(err.value))
        assert_no_child_left()
    assert errors == [errors[0]] * 2 and errors[0].startswith(f"forced in {side}")

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


LATE_STEPS = 60


def pay_all(t, x, s):
    return x


def batch_zero_gone() -> int:
    """The first step at which batch 0 of the simulate job below has no live
    path under ``pay_all``, read from a passing serial run; batch 1 still
    has live paths then, so only a later batch's run calls the policy."""
    body = exp_body()
    config = make_config(body["utility"], body["distribution"], body["beta"],
                         body["gamma"], body["x_max"], body["depth"])
    ends = simulate_paths(config, pay_all, config.x_max, SIM_PATHS,
                          max_steps=LATE_STEPS).ruin_times
    step = int(ends[:BATCH].max())
    assert step < int(ends[BATCH:2 * BATCH].max()) < LATE_STEPS
    return step


def out_of_range_late(step):
    return lambda t, x, s: x + 1 if t == step else x


def broken_late(step):
    def policy(t, x, s):
        if t == step:
            raise InvariantViolation(f"forced at step {t}")
        return x
    return policy


@pytest.mark.parametrize("late, code", [(out_of_range_late, 2), (broken_late, 3)])
def test_policy_failing_in_a_late_batch_exits_as_serially(tmp_path, monkeypatch, capsys,
                                                          late, code):
    step = batch_zero_gone()
    split_everything(monkeypatch)
    monkeypatch.setattr(cli, "_solve", lambda config: (None, late(step)))
    errors = []
    for threads in (1, 2, 4):
        path = write_config(tmp_path, exp_body(), f"sim{threads}")
        assert cli.main(["simulate", str(path), "--paths", str(SIM_PATHS), "--max-steps",
                         str(LATE_STEPS), "--threads", str(threads)]) == code
        errors.append(capsys.readouterr().err)
        assert_no_child_left()
    assert len(set(errors)) == 1 and f"at step {step}" in errors[0]
