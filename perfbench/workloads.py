"""Seeded job lists for the three benchmark workloads.

A job is one ``divbands`` CLI invocation: a subcommand, a generated YAML
config and extra flags.  Seed 0 yields the fixed instances recorded in
NOTES.md; any other seed draws a nearby instance of each: one probability
mass moved by 0.01 between a positive and a negative income, the exp
configs re-sized to the sizing rule (x_max = required_cap, depth =
suggest_depth), the power configs to the barrier bound, and the config
``seed`` key (which keys the simulation stream) drawn from the seed.

The simulate job is the exception: it keeps the seed-0 bandy instance and
varies only its stream key.  Its work is the batches' longest ruin times,
which move by about 15% when bandy's P(+1) moves by 0.01 either way, and
that would swamp the verify workload's timing with a two-valued draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from types import SimpleNamespace

WORKLOADS = ("exp-solve", "power-solve", "verify")

# base instances: name -> (distribution in hundredths, beta, gamma)
EXP_BASES = {
    "readme": ({1: 60, -1: 40}, 0.9, -1.0),
    "bandy": ({-1: 30, 1: 70}, 0.95, -0.05),
    "fourpoint": ({1: 50, 2: 10, -1: 30, -2: 10}, 0.95, -0.05),
    "threeband": ({1: 55, -2: 45}, 0.9, -0.5),
}
# seed-0 sizes (x_max, depth), the fixed point of the sizing rule
SEED0_EXP_SIZES = {
    "readme": (44, 213),
    "bandy": (228, 408),
    "fourpoint": (236, 409),
    "threeband": (40, 205),
}
POWER_BASE = ({1: 60, -1: 40}, 0.9, 0.5)
SEED0_POWER_CAP = 54  # seed-0 x_max of power, log and neutral: ceil(xi_star_bound)
POWER_DEPTH = 5
LOG_DEPTH = 3
S_GRID_POINTS = 512
SIM_PATHS = 100_000
ORACLE_X0 = 4
ORACLE_HORIZON = 7


@dataclass(frozen=True)
class Job:
    """One CLI call; ``config`` becomes the YAML body (output_dir added)."""

    job_id: str
    command: str
    config: dict
    args: tuple[str, ...] = ()


def _perturb(hundredths: dict[int, int], rng: random.Random) -> dict[int, int]:
    """Move 0.01 of mass between a positive and a negative income."""
    out = dict(hundredths)
    pos = rng.choice(sorted(k for k in out if k > 0))
    neg = rng.choice(sorted(k for k in out if k < 0))
    step = rng.choice((-1, 1))
    out[pos] += step
    out[neg] -= step
    return out


def _distribution(hundredths: dict[int, int]) -> dict[int, float]:
    return {k: v / 100 for k, v in sorted(hundredths.items())}


def _exp_size(dist: dict[int, float], beta: float, gamma: float,
              tail_eps: float = 1e-8) -> tuple[int, int]:
    """Fixed point of x_max = required_cap(depth), depth = suggest_depth(x_max)."""
    from divbands.exp_solver import required_cap, suggest_depth
    from divbands.model import validate_distribution

    d = validate_distribution(dist)
    x_max, depth = 0, 1
    for _ in range(50):
        depth = suggest_depth(SimpleNamespace(dist=d, beta=beta, gamma=gamma,
                                              tail_eps=tail_eps, x_max=x_max))
        cap = required_cap(SimpleNamespace(dist=d, beta=beta, gamma=gamma,
                                           tail_eps=tail_eps, depth=depth))
        if cap == x_max:
            return x_max, depth
        x_max = cap
    raise RuntimeError(f"sizing rule has no fixed point for {dist}, beta={beta}")


def _power_cap(dist: dict[int, float], beta: float) -> int:
    from divbands.model import validate_distribution
    from divbands.power_solver import xi_star_bound

    d = validate_distribution(dist)
    return math.ceil(xi_star_bound(SimpleNamespace(dist=d, beta=beta)) - 1e-9)


def instances(seed: int) -> dict[str, dict]:
    """Config bodies (without output_dir) for every instance at ``seed``."""
    rng = random.Random(seed)
    out: dict[str, dict] = {}
    for name, (mass, beta, gamma) in EXP_BASES.items():
        if seed == 0:
            dist = _distribution(mass)
            x_max, depth = SEED0_EXP_SIZES[name]
        else:
            dist = _distribution(_perturb(mass, rng))
            x_max, depth = _exp_size(dist, beta, gamma)
        out[name] = {"beta": beta, "gamma": gamma, "utility": "exponential",
                     "distribution": dist, "x_max": x_max, "depth": depth}
    mass, beta, gamma = POWER_BASE
    dist = _distribution(mass if seed == 0 else _perturb(mass, rng))
    cap = SEED0_POWER_CAP if seed == 0 else _power_cap(dist, beta)
    common = {"beta": beta, "gamma": gamma, "distribution": dist,
              "x_max": cap, "s_grid_points": S_GRID_POINTS}
    out["power"] = {**common, "utility": "power", "depth": POWER_DEPTH}
    out["log"] = {**common, "utility": "logarithmic", "depth": LOG_DEPTH}
    readme = out["readme"]
    out["neutral"] = {
        "beta": readme["beta"], "gamma": 0.0, "utility": "risk_neutral",
        "distribution": readme["distribution"], "depth": 1,
        "x_max": (SEED0_POWER_CAP if seed == 0
                  else _power_cap(readme["distribution"], readme["beta"])),
    }
    mass, beta, gamma = EXP_BASES["bandy"]
    out["simulate"] = {
        "beta": beta, "gamma": gamma, "utility": "exponential",
        "distribution": _distribution(mass), "x_max": SEED0_EXP_SIZES["bandy"][0],
        "depth": SEED0_EXP_SIZES["bandy"][1],
        "seed": 0 if seed == 0 else rng.randrange(2**31),
    }
    return out


def jobs(workload: str, seed: int, threads: int) -> list[Job]:
    """The job list of one workload; every job passes ``--threads``."""
    inst = instances(seed)
    t = ("--threads", str(threads))
    if workload == "exp-solve":
        return [Job(f"solve-exp.{name}", "solve-exp", inst[name], t)
                for name in EXP_BASES]
    if workload == "power-solve":
        return [Job("solve-power.power", "solve-power", inst["power"], t),
                Job("solve-log.log", "solve-log", inst["log"], t)]
    if workload == "verify":
        oracle = ("--x0", str(ORACLE_X0), "--horizon", str(ORACLE_HORIZON))
        return [
            Job("howard.readme", "howard", inst["readme"], t),
            Job("howard.threeband", "howard", inst["threeband"], t),
            Job("oracle-check.readme", "oracle-check", inst["readme"], t + oracle),
            Job("oracle-check.threeband", "oracle-check", inst["threeband"], t + oracle),
            Job("simulate.bandy", "simulate", inst["simulate"],
                t + ("--paths", str(SIM_PATHS))),
            Job("solve-neutral.neutral", "solve-neutral", inst["neutral"], t),
            Job("bands.threeband", "bands", inst["threeband"], t),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
