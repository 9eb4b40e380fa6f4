"""CLI contract: config ingestion, exit codes, file formats, determinism."""

import contextlib
import dataclasses
import errno
import functools
import io
import json
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divbands.cli as cli
import divbands.exp_solver as exp_solver
import divbands.simulate as simulate
from divbands.errors import ConfigParse, InvariantViolation
from divbands.model import ProblemConfig, Utility, validate_distribution
from divbands.power_solver import xi_star_bound


def write_config(tmp_path, body, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(body))
    return path


def exp_body(tmp_path, **over):
    body = {
        "beta": 0.5, "gamma": -1.0, "utility": "exponential",
        "distribution": {1: 0.7, -1: 0.3},
        "x_max": 3, "depth": 3,
        "output_dir": str(tmp_path / "out"),
    }
    body.update(over)
    return body


def power_body(tmp_path, **over):
    body = {
        "beta": 0.5, "gamma": 0.5, "utility": "power",
        "distribution": {1: 0.5, -1: 0.5},
        "x_max": 4, "depth": 3, "s_grid_points": 256,
        "output_dir": str(tmp_path / "out"),
    }
    body.update(over)
    return body


def neutral_body(tmp_path, **over):
    body = {
        "beta": 0.5, "gamma": 0.0, "utility": "risk_neutral",
        "distribution": {1: 0.6, -1: 0.4},
        "x_max": 2, "depth": 3,
        "output_dir": str(tmp_path / "out"),
    }
    body.update(over)
    return body


def read_header(tmp_path, name):
    return (tmp_path / "out" / name).read_text().splitlines()[0]


def read_summary(tmp_path):
    return json.loads((tmp_path / "out" / "summary.json").read_text())


# -- load_config -------------------------------------------------------------

def test_load_config_defaults_and_echo(tmp_path):
    path = write_config(tmp_path, exp_body(tmp_path))
    cfg, outdir = cli.load_config(path)
    assert cfg.utility is Utility.EXPONENTIAL
    assert cfg.tail_eps == 1e-8
    assert cfg.s_grid_points == 512
    assert cfg.seed == 0
    assert outdir == tmp_path / "out"
    # the optional keys are absent, so the summary echoes the dataclass defaults
    assert cli.main(["solve-exp", str(path)]) == 0
    echo = read_summary(tmp_path)["config"]
    for key in ("tail_eps", "s_grid_points", "seed"):
        assert echo[key] == ProblemConfig.__dataclass_fields__[key].default


def test_config_keys_match_problem_config():
    # the CLI-only keys aside, the config schema is ProblemConfig's fields
    cli_only = {"distribution", "distribution_preset", "output_dir"}
    fields = {f.name for f in dataclasses.fields(ProblemConfig)}
    assert (cli.CONFIG_KEYS - cli_only) | {"dist"} == fields


@pytest.mark.parametrize("command,body,flags", [
    ("solve-exp", exp_body, []),
    ("howard", exp_body, []),
    ("bands", exp_body, []),
    ("oracle-check", exp_body, []),
    ("simulate", exp_body, ["--paths", "50"]),
    ("solve-power", functools.partial(power_body, s_grid_points=64), []),
    ("solve-log", functools.partial(power_body, utility="logarithmic", gamma=0.0,
                                    s_grid_points=64), []),
    ("solve-neutral", neutral_body, []),
])
def test_every_summary_echoes_its_config(tmp_path, command, body, flags):
    raw = body(tmp_path, seed=7)
    assert cli.main([command, str(write_config(tmp_path, raw)), *flags]) == 0
    defaults = {key: ProblemConfig.__dataclass_fields__[key].default
                for key in cli._NUMERIC_KEYS}
    assert read_summary(tmp_path)["config"] == {
        **defaults, **{key: raw[key] for key in cli._NUMERIC_KEYS if key in raw},
        "utility": raw["utility"],
        "distribution": {str(k): p for k, p in raw["distribution"].items()}}


def test_load_config_preset_expansion(tmp_path):
    body = exp_body(tmp_path)
    del body["distribution"]
    body["distribution_preset"] = {"p": 0.6, "n": 2}
    cfg, _ = cli.load_config(write_config(tmp_path, body))
    assert dict(cfg.dist.items()) == {-2: pytest.approx(0.4), 1: 0.6}


@pytest.mark.parametrize("mutate", [
    lambda b: b.pop("beta"),                                   # missing key
    lambda b: b.update(extra=1),                               # unknown key
    lambda b: b.update(distribution_preset={"p": 0.5, "n": 1}),  # both sources
    lambda b: b.pop("distribution"),                           # no source
    lambda b: b.update(depth=True),                            # bool as int
    lambda b: b.update(beta=True),                             # bool as float
    lambda b: b.update(utility=3),
    lambda b: b.update(output_dir=7),
    lambda b: b.update(distribution={"a": 0.5, -1: 0.5}),      # str offset
    lambda b: b.update(distribution=[1, -1]),                  # not a mapping
    lambda b: b.update(s_grid_points=2.5),
])
def test_load_config_rejects(tmp_path, mutate):
    body = exp_body(tmp_path)
    mutate(body)
    with pytest.raises(ConfigParse):
        cli.load_config(write_config(tmp_path, body))


@pytest.mark.parametrize("preset", [
    {"p": 1.5, "n": 1},
    {"p": 0.0, "n": 1},
    {"p": 0.5, "n": 0},
    {"p": 0.5},
    {"p": 0.5, "n": 1, "extra": 2},
])
def test_load_config_rejects_bad_presets(tmp_path, preset):
    body = exp_body(tmp_path)
    del body["distribution"]
    body["distribution_preset"] = preset
    with pytest.raises(ConfigParse):
        cli.load_config(write_config(tmp_path, body))


def test_load_config_rejects_broken_files(tmp_path):
    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("a: [unclosed\n")
    with pytest.raises(ConfigParse):
        cli.load_config(bad_yaml)
    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigParse):
        cli.load_config(listy)
    with pytest.raises(ConfigParse):
        cli.load_config(tmp_path / "missing.yaml")


# -- exit codes --------------------------------------------------------------

def test_solve_exp_exit_zero_and_formats(tmp_path):
    path = write_config(tmp_path, exp_body(tmp_path))
    assert cli.main(["solve-exp", str(path)]) == 0
    assert read_header(tmp_path, "values.csv") == "n,theta,x,j_lo,j_hi,action,xi,band_cuts"
    assert read_header(tmp_path, "policy.csv") == "n,x,action"
    assert read_header(tmp_path, "bands.csv") == "n,xi,band_cuts"
    summary = read_summary(tmp_path)
    assert summary["config"]["beta"] == 0.5
    assert summary["required_cap"] <= 3
    assert len(summary["values"]) == 4
    assert summary["max_depth0_width"] > 0


def test_exit_two_on_rejected_input(tmp_path):
    good = write_config(tmp_path, exp_body(tmp_path))
    assert cli.main(["frobnicate", str(good)]) == 2
    assert cli.main([]) == 2
    assert cli.main(["solve-exp", str(good), "--threads", "0"]) == 2
    bad = exp_body(tmp_path)
    del bad["beta"]
    assert cli.main(["solve-exp", str(write_config(tmp_path, bad, "bad.yaml"))]) == 2


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
@pytest.mark.parametrize("command", ["simulate", "solve-exp"])
def test_exit_two_on_seed_outside_philox_keys(tmp_path, capsys, command, seed):
    path = write_config(tmp_path, exp_body(tmp_path, seed=seed))
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be in [0, 2^128)" in err
    assert "Traceback" not in err


def test_exit_two_when_values_would_underflow(tmp_path, capsys):
    # e^{gamma x_max} h_lower underflows at the cap; then h_lower itself
    # underflows to 0 while the schedule is built (beta near 1, extreme gamma)
    for over in (dict(beta=0.9, gamma=-3.0, x_max=300, depth=60),
                 dict(beta=0.999, gamma=-1000.0, x_max=10, depth=5)):
        body = exp_body(tmp_path, distribution={1: 0.6, -1: 0.4}, **over)
        path = write_config(tmp_path, body)
        assert cli.main(["solve-exp", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ln(DBL_MIN) = -708.4" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


def test_exit_two_when_output_dir_cannot_be_created(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = write_config(tmp_path, exp_body(tmp_path, output_dir=str(blocker / "sub")))
    assert cli.main(["solve-exp", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output_dir {blocker / 'sub'}: ")
    assert "Traceback" not in err


# the sizes a real run would ask for are only named: a host that
# overcommits memory would start such a run and then kill it
@pytest.mark.parametrize("command,body,solver", [
    ("solve-exp", exp_body, "solve_exp"),
    ("solve-power", power_body, "solve_power"),
])
def test_exit_two_when_a_solve_runs_out_of_memory(tmp_path, capsys, monkeypatch,
                                                  command, body, solver):
    def starve(*args, **kw):
        raise MemoryError("Unable to allocate 75.3 GiB for an array")
    monkeypatch.setattr(cli, solver, starve)
    assert cli.main([command, str(write_config(tmp_path, body(tmp_path)))]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 75.3 GiB for an array\n"


def test_out_of_memory_without_a_message(tmp_path, capsys, monkeypatch):
    # an allocation that fails deep inside numpy may raise a bare MemoryError()
    def starve(*args):
        raise MemoryError()
    monkeypatch.setitem(cli._HANDLERS, "bands", starve)
    assert cli.main(["bands", str(write_config(tmp_path, exp_body(tmp_path)))]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


BIG_POWER = {"beta": 0.9, "gamma": 0.5, "utility": "power",
             "distribution": {1: 0.6, -1: 0.4}, "x_max": 54, "depth": 2}
README_EXP = {"beta": 0.9, "gamma": -1.0, "utility": "exponential",
              "distribution_preset": {"p": 0.6, "n": 1}, "x_max": 44, "depth": 213}


# each of these sizes is refused by numpy before anything is allocated
@pytest.mark.parametrize("command,body", [
    ("solve-power", dict(BIG_POWER, x_max=10 ** 30)),
    ("simulate", dict(BIG_POWER, x_max=10 ** 30)),
    ("oracle-check", dict(BIG_POWER, x_max=10 ** 30)),
    ("solve-power", dict(BIG_POWER, s_grid_points=10 ** 30)),
    ("solve-power", dict(BIG_POWER, distribution={1: 0.6, -10 ** 30: 0.4})),
    ("solve-exp", dict(README_EXP, distribution_preset={"p": 0.6, "n": 10 ** 30})),
    ("solve-exp", dict(README_EXP, gamma=-1e-30, depth=2, x_max=10 ** 30)),
    ("solve-exp", dict(README_EXP, gamma=-1e-30, depth=2, x_max=2 ** 62)),
])
def test_exit_two_when_a_size_is_beyond_numpys_index_range(tmp_path, capsys, command,
                                                           body):
    path = write_config(tmp_path, dict(body, output_dir=str(tmp_path / "out")))
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: too large to index: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_howard_checks_the_utility_before_building_its_rule(tmp_path, capsys):
    # the pay-all starting rule of this config would be beyond numpy's index range
    path = write_config(tmp_path, dict(BIG_POWER, x_max=10 ** 30,
                                       output_dir=str(tmp_path / "out")))
    assert cli.main(["howard", str(path)]) == 2
    assert capsys.readouterr().err == "error: howard requires the exponential utility\n"


def test_solve_neutral_exits_three_at_its_iteration_cap(tmp_path, capsys, monkeypatch):
    # 44 sweeps certify these values; after 3 they are 2.69 too high
    monkeypatch.setattr(exp_solver, "NEUTRAL_MAX_ITERATIONS", 3)
    path = write_config(tmp_path, neutral_body(tmp_path, beta=0.9, x_max=54))
    assert cli.main(["solve-neutral", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        "invariant violated: no convergence after 3 iterations")
    assert not (tmp_path / "out" / "values.csv").exists()


def test_other_value_errors_are_not_bad_input(tmp_path, monkeypatch):
    # a ValueError that is not numpy's index overflow is a fault: it propagates
    def ragged(*args):
        raise ValueError("ragged block in values.csv: column sizes [1, 2]")
    monkeypatch.setitem(cli._HANDLERS, "solve-exp", ragged)
    with pytest.raises(ValueError, match="ragged block"):
        cli.main(["solve-exp", str(write_config(tmp_path, exp_body(tmp_path)))])


def test_exit_two_when_simulation_outputs_cannot_be_mapped(tmp_path, capsys, monkeypatch):
    def refuse(fileno, length):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")
    monkeypatch.setattr(simulate.mmap, "mmap", refuse)
    path = write_config(tmp_path, exp_body(tmp_path))
    assert cli.main(["simulate", str(path), "--paths", "100000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: cannot map 1700000000000 bytes "
                          "of outputs for 100000000000 paths")
    assert "Traceback" not in err


def test_shared_outputs_keeps_other_mapping_errors(monkeypatch):
    with pytest.raises(MemoryError):  # beyond ssize_t: refused before any mapping
        simulate._shared_outputs(10 ** 20)

    def forbid(fileno, length):
        raise OSError(errno.EACCES, "Permission denied")
    monkeypatch.setattr(simulate.mmap, "mmap", forbid)
    with pytest.raises(PermissionError):
        simulate._shared_outputs(10)


def test_exit_two_when_depth_underflows_theta(tmp_path, capsys):
    # gamma * beta^n underflows to -0.0 past depth 1074 at beta 0.5
    path = write_config(tmp_path, exp_body(tmp_path, depth=1100))
    assert cli.main(["solve-exp", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "depth 1100" in err and "1074" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,utility,flags,message", [
    ("solve-power", "logarithmic", [], "solve_power requires the power utility"),
    ("solve-log", "power", [], "solve_log requires the logarithmic utility"),
    # the y0 check runs before the solver is picked
    ("solve-log", "power", ["--y0", "nan"], "power utility needs a finite y0 >= 0, got nan"),
])
def test_exit_two_on_wrong_power_solver(tmp_path, capsys, command, utility, flags, message):
    gamma = 0.0 if utility == "logarithmic" else 0.5
    path = write_config(tmp_path, power_body(tmp_path, utility=utility,
                                             gamma=gamma, s_grid_points=64))
    assert cli.main([command, str(path), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command,utility,y0", [
    ("oracle-check", "logarithmic", "nan"),
    ("solve-log", "logarithmic", "inf"),
    ("simulate", "logarithmic", "nan"),
    ("simulate", "power", "-5"),
    ("oracle-check", "power", "-5"),
    ("oracle-check", "power", "nan"),
])
def test_exit_two_on_bad_starting_wealth(tmp_path, capsys, command, utility, y0):
    gamma = 0.0 if utility == "logarithmic" else 0.5
    path = write_config(tmp_path, power_body(tmp_path, utility=utility,
                                             gamma=gamma, s_grid_points=64))
    argv = [command, str(path), "--y0", y0]
    if command == "simulate":
        argv += ["--paths", "16", "--max-steps", "10"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite y0" in err
    assert "Traceback" not in err


@pytest.mark.xfail(strict=True, reason=(
    "tie artifact, not a broken invariant: with theta_N near -1.6e-13 the "
    "action values differ by about |theta_n| relative, so the relative "
    "TIE_RTOL ties some surpluses of a row and not others and bands exits 3; "
    "scaled exponential values (ROADMAP item 1) remove it"))
def test_deep_schedule_bands_exit_zero(tmp_path):
    body = exp_body(tmp_path, beta=0.9, gamma=-1.0, distribution={-1: 0.25, 2: 0.75},
                    x_max=138, depth=280)
    assert cli.main(["bands", str(write_config(tmp_path, body))]) == 0


def test_howard_never_blames_the_input_for_its_own_rule(tmp_path, capsys):
    # the README distribution at depth 250: policy iteration's own greedy
    # rule pays again after paying, which is a broken invariant (exit 3),
    # not a rejected input; scaled exponential values should make it exit 0
    body = exp_body(tmp_path, beta=0.9, gamma=-1.0, distribution={1: 0.6, -1: 0.4},
                    x_max=44, depth=250)
    assert cli.main(["howard", str(write_config(tmp_path, body))]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_exit_three_on_invariant_violation(tmp_path, monkeypatch):
    def boom(config, outdir, args):
        raise InvariantViolation("forced for the exit-code test")
    monkeypatch.setitem(cli._HANDLERS, "solve-exp", boom)
    path = write_config(tmp_path, exp_body(tmp_path))
    assert cli.main(["solve-exp", str(path)]) == 3


# -- determinism -------------------------------------------------------------

def test_reruns_are_byte_identical(tmp_path):
    outputs = {}
    for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
        body = exp_body(tmp_path, output_dir=str(tmp_path / tag))
        path = write_config(tmp_path, body, f"{tag}.yaml")
        argv = ["solve-exp", str(path)]
        if threads != 1:
            argv += ["--threads", str(threads)]
        assert cli.main(argv) == 0
        outputs[tag] = {
            name: (tmp_path / tag / name).read_bytes()
            for name in ("values.csv", "policy.csv", "bands.csv", "summary.json")
        }
    assert outputs["a"] == outputs["b"] == outputs["c"]


# -- remaining subcommands ---------------------------------------------------

def test_solve_power_formats(tmp_path):
    path = write_config(tmp_path, power_body(tmp_path, s_grid_points=64))
    assert cli.main(["solve-power", str(path)]) == 0
    assert read_header(tmp_path, "values.csv") == "d,x,s,w_lo,w_hi,action,xi_of_s"
    assert read_header(tmp_path, "policy.csv") == "d,x,s,action"
    assert read_header(tmp_path, "bands.csv") == "d,s,xi_of_s"
    summary = read_summary(tmp_path)
    assert summary["barrier_bound"] > 0
    assert summary["initial_payout_level"] == 0.0


def test_solve_log_uses_y0(tmp_path):
    body = power_body(tmp_path, utility="logarithmic", gamma=0.0,
                      s_grid_points=64)
    path = write_config(tmp_path, body)
    assert cli.main(["solve-log", str(path), "--y0", "2.0"]) == 0
    assert read_summary(tmp_path)["initial_payout_level"] == 2.0


def test_solve_neutral_formats(tmp_path):
    path = write_config(tmp_path, neutral_body(tmp_path))
    assert cli.main(["solve-neutral", str(path)]) == 0
    assert read_header(tmp_path, "values.csv") == "x,value"
    assert read_header(tmp_path, "policy.csv") == "x,action"
    assert read_header(tmp_path, "bands.csv") == "xi,band_cuts"
    assert read_summary(tmp_path)["iterations"] >= 1


def test_howard_formats(tmp_path):
    path = write_config(tmp_path, exp_body(tmp_path))
    assert cli.main(["howard", str(path)]) == 0
    assert read_header(tmp_path, "values.csv") == "iteration,n,x,action,j_hi"
    summary = read_summary(tmp_path)
    assert summary["iterations"] >= 1
    assert "final_gap" in summary


def test_oracle_check_exponential(tmp_path):
    path = write_config(tmp_path, exp_body(tmp_path))
    assert cli.main(["oracle-check", str(path)]) == 0
    summary = read_summary(tmp_path)
    assert summary["pass"] is True
    assert len(summary["checks"]) == 4
    assert cli.main(["oracle-check", str(path), "--x0", "2", "--horizon", "3"]) == 0
    assert len(read_summary(tmp_path)["checks"]) == 1
    assert cli.main(["oracle-check", str(path), "--horizon", "0"]) == 2
    assert cli.main(["oracle-check", str(path), "--x0", "99"]) == 2


def test_oracle_check_fails_outside_the_bracket(tmp_path, capsys, monkeypatch):
    # J lies in (0, 1], so an oracle value of 2 is above every bracket
    monkeypatch.setattr(cli, "exact_optimal", lambda run, x0, horizon, y0=0.0: (2.0, None))
    path = write_config(tmp_path, exp_body(tmp_path))
    assert cli.main(["oracle-check", str(path)]) == 3
    summary = read_summary(tmp_path)
    assert summary["pass"] is False
    assert not any(c["pass"] for c in summary["checks"])
    worst = max(c["gap"] for c in summary["checks"])
    err = capsys.readouterr().err
    assert err.startswith("invariant violated: oracle disagrees with solver, "
                          f"worst gap {worst:.3e}")


def test_oracle_check_power_and_neutral(tmp_path):
    power = write_config(tmp_path, power_body(tmp_path), "power.yaml")
    assert cli.main(["oracle-check", str(power)]) == 0
    assert read_summary(tmp_path)["pass"] is True
    neutral = write_config(tmp_path, neutral_body(tmp_path), "neutral.yaml")
    assert cli.main(["oracle-check", str(neutral)]) == 0
    assert read_summary(tmp_path)["pass"] is True


def test_oracle_check_power_uses_y0(tmp_path):
    path = write_config(tmp_path, power_body(tmp_path))
    assert cli.main(["oracle-check", str(path), "--x0", "2"]) == 0
    without = read_summary(tmp_path)["checks"][0]
    assert cli.main(["oracle-check", str(path), "--x0", "2", "--y0", "0.5"]) == 0
    summary = read_summary(tmp_path)
    assert summary["pass"] is True
    # sqrt(0.5 + S) beats sqrt(S) on every path, on both sides of the check
    assert summary["checks"][0]["oracle"] > without["oracle"]
    assert summary["checks"][0]["solver_lo"] > without["solver_lo"]


@pytest.mark.parametrize("body", [exp_body, neutral_body])
def test_oracle_check_refuses_y0_without_wealth(tmp_path, capsys, body):
    path = write_config(tmp_path, body(tmp_path))
    assert cli.main(["oracle-check", str(path), "--y0", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--y0" in err
    assert "Traceback" not in err


def test_oracle_check_power_explicit_horizon(tmp_path):
    # the table must be re-solved at the requested horizon, not the
    # config's depth, or the stage counts disagree
    path = write_config(tmp_path, power_body(tmp_path, depth=6))
    assert cli.main(["oracle-check", str(path), "--x0", "2",
                     "--horizon", "3"]) == 0
    summary = read_summary(tmp_path)
    assert summary["pass"] is True and summary["horizon"] == 3
    assert cli.main(["oracle-check", str(path), "--horizon", "1"]) == 2


def test_bands_subcommand(tmp_path):
    exp = write_config(tmp_path, exp_body(tmp_path), "exp.yaml")
    assert cli.main(["bands", str(exp)]) == 0
    assert read_header(tmp_path, "bands.csv") == "n,xi,band_cuts"
    neutral = write_config(tmp_path, neutral_body(tmp_path), "neutral.yaml")
    assert cli.main(["bands", str(neutral)]) == 0
    assert read_header(tmp_path, "bands.csv") == "xi,band_cuts"
    power = write_config(tmp_path, power_body(tmp_path), "power.yaml")
    assert cli.main(["bands", str(power)]) == 2


def test_simulate_summary_contract(tmp_path):
    path = write_config(tmp_path, exp_body(tmp_path))
    assert cli.main(["simulate", str(path), "--paths", "200",
                     "--max-steps", "100"]) == 0
    summary = read_summary(tmp_path)
    assert set(summary) == {"config", "n_paths", "mean_utility", "std_err",
                            "ruin_fraction", "mean_ruin_time",
                            "truncated_fraction"}
    assert summary["n_paths"] == 200
    assert summary["std_err"] > 0
    assert cli.main(["simulate", str(path), "--paths", "1",
                     "--max-steps", "100"]) == 0
    assert read_summary(tmp_path)["std_err"] is None  # undefined for one path
    assert cli.main(["simulate", str(path), "--x0", "99"]) == 2
    assert cli.main(["simulate", str(path), "--paths", "0"]) == 2
    assert cli.main(["simulate", str(path), "--max-steps", "0"]) == 2


@pytest.mark.parametrize("utility,gamma,mean", [
    ("power", 0.5, 7.424104657329916),
    ("logarithmic", 0.0, 4.0273185871503525),
])
def test_simulate_wealth_rules(tmp_path, utility, gamma, mean):
    # power and log rules read the payout level s, which simulate tracks
    body = power_body(tmp_path, utility=utility, beta=0.9, gamma=gamma,
                      distribution={1: 0.6, -1: 0.4}, x_max=54, depth=3,
                      s_grid_points=64)
    path = write_config(tmp_path, body)
    assert cli.main(["simulate", str(path), "--paths", "2000"]) == 0
    summary = read_summary(tmp_path)
    assert summary["n_paths"] == 2000 and summary["ruin_fraction"] == 1.0
    assert summary["mean_utility"] == pytest.approx(mean, rel=1e-9)


# -- exit-code net -----------------------------------------------------------

GAMMAS = {"exponential": (-3.0, -1.0, -0.1), "power": (0.3, 0.5, 0.9),
          "logarithmic": (0.0,), "risk_neutral": (0.0,)}
SOLVES = {"exponential": ("solve-exp", "howard", "bands"), "power": ("solve-power",),
          "logarithmic": ("solve-log",), "risk_neutral": ("solve-neutral", "bands")}
SOLVES_DEEP = ("exponential", "risk_neutral")


@st.composite
def cli_runs(draw):
    """(subcommand, config body, extra flags) for a small config.

    x_max lies from one below to two above the ceiling of the barrier
    bound every utility's cap check starts from, so most configs
    validate, and half the subcommands are drawn from those that serve
    the utility.  Exponential and risk-neutral depths reach 1200 at beta
    0.5, past the 1074 steps after which gamma * beta^n and beta^n
    underflow; other depths, which cost a power or log solve per step,
    stay at 1..3.
    """
    utility = draw(st.sampled_from(sorted(GAMMAS)))
    beta = draw(st.sampled_from([0.5, 0.75]))  # caps grow like 1/(1-beta)^2
    weights = {draw(st.integers(-2, -1)): draw(st.integers(1, 3)),
               1: draw(st.integers(0, 3)), 2: draw(st.integers(0, 3))}
    mapping = {k: w / sum(weights.values()) for k, w in weights.items() if w}
    bound = xi_star_bound(SimpleNamespace(beta=beta, dist=validate_distribution(mapping)))
    body = {"beta": beta, "gamma": draw(st.sampled_from(GAMMAS[utility])),
            "utility": utility, "distribution": mapping,
            "x_max": max(0, math.ceil(bound - 1e-9) + draw(st.integers(-1, 2))),
            "depth": draw(st.integers(1, 1200) if beta == 0.5 and utility in SOLVES_DEEP
                          else st.integers(1, 3)),
            "s_grid_points": draw(st.integers(2, 8))}
    command = draw(st.sampled_from(SOLVES[utility] + ("oracle-check", "simulate"))
                   | st.sampled_from(cli.SUBCOMMANDS))
    flags = []
    if command == "oracle-check":
        flags = ["--horizon", str(draw(st.integers(1, 3))),
                 "--x0", str(draw(st.sampled_from([0, 1, 3, body["x_max"] + 1])))]
    elif command == "simulate":
        flags = ["--paths", "8", "--max-steps", "20"]
    return command, body, flags


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@example(run=("bands", {"beta": 0.5, "gamma": -1.0, "utility": "exponential",
                        "distribution": {1: 0.7, -1: 0.3}, "x_max": 3,
                        "depth": 1100}, []))
@example(run=("howard", {"beta": 0.5, "gamma": -1.0, "utility": "exponential",
                         "distribution": {1: 0.7, -1: 0.3}, "x_max": 3,
                         "depth": 1074}, []))
@example(run=("solve-power", {"beta": 0.5, "gamma": 0.5, "utility": "power",
                              "distribution": {1: 0.5, -1: 0.5}, "x_max": 1,
                              "depth": 1100, "s_grid_points": 4}, []))
@example(run=("oracle-check", {"beta": 0.5, "gamma": 0.0, "utility": "logarithmic",
                               "distribution": {2: 0.5, -1: 0.5}, "x_max": 4,
                               "depth": 2, "s_grid_points": 8}, ["--horizon", "1"]))
@example(run=("simulate", {"beta": 0.9, "gamma": 0.0, "utility": "risk_neutral",
                           "distribution": {1: 0.6, -2: 0.4}, "x_max": 54,
                           "depth": 1}, ["--paths", "8", "--max-steps", "20"]))
@example(run=("solve-log", {"beta": 0.5, "gamma": math.nan, "utility": "logarithmic",
                            "distribution": {1: 0.5, -1: 0.5}, "x_max": 4,
                            "depth": 1, "s_grid_points": 8}, []))
@example(run=("solve-neutral", {"beta": 0.5, "gamma": math.nan, "utility": "risk_neutral",
                                "distribution": {1: 0.6, -1: 0.4}, "x_max": 2,
                                "depth": 1}, []))
@example(run=("solve-exp", {"beta": 0.5, "gamma": -1.0, "utility": "exponential",
                            "distribution": {1: 0.7, -1: 0.3}, "x_max": 3,
                            "depth": 3, "tail_eps": math.inf}, []))
@example(run=("simulate", {"beta": 0.5, "gamma": -1.0, "utility": "exponential",
                           "distribution": {1: 0.7, -1: 0.3}, "x_max": 3,
                           "depth": 3}, ["--paths", "1", "--max-steps", "20"]))
@given(run=cli_runs())
def test_every_run_exits_cleanly(run):
    command, body, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), {**body, "output_dir": str(Path(tmp) / "out")})
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), *flags])
        summary = Path(tmp) / "out" / "summary.json"
        if summary.exists():  # RFC 8259 JSON: no NaN or Infinity tokens
            json.loads(summary.read_text(), parse_constant=_reject_constant)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


def _reject_constant(token):
    raise ValueError(f"summary.json holds the non-JSON token {token}")
