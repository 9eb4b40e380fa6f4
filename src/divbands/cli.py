"""Command line front end.

Every subcommand reads one YAML config, whose absent optional keys take
``ProblemConfig``'s defaults, and writes fixed-name files under its
``output_dir``: values.csv, policy.csv, bands.csv and summary.json (each
command writes the subset that makes sense for it; every summary.json
echoes the config it ran under "config").  Emission is
deterministic.  CSVs are formatted a column at a time and streamed one
block of rows at a time (a depth, or one (d, x) row over the s-grid):
array columns go through ``tolist()`` with repr for floats (shortest
round-trip form) and str for integers, while labels and per-block
constants are formatted once; the bytes equal a per-cell rendering.
JSON keys are sorted, newlines are always "\\n", and the solvers are
fixed-order numpy code, so re-running a command reproduces its files
byte for byte.

``--threads N`` splits the two costs that parallelize over this process
and up to N - 1 forked children (``divbands.parallel``), N clamped to
the usable CPUs: a CSV of at least ``SPLIT_CELLS`` cells (the values and
policy tables of large ``solve-exp``, ``howard``, ``solve-power`` and
``solve-log`` runs) is formatted in contiguous runs of blocks, and
``simulate`` runs its batches of paths in contiguous runs.  The files
are byte-identical for every N; N = 1 forks nothing.

Exit codes: 0 on success, 2 for rejected inputs (bad config, bad flag
values, unknown subcommand, sizes beyond memory or numpy's index range),
3 when a certified invariant fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
import tempfile
from contextlib import ExitStack
from itertools import repeat
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigParse, InvariantViolation, UnknownSubcommand, ValidationError
from .exp_solver import BandFunction, extract_bands, solve_exp, solve_neutral
from .howard import howard_solve
from .model import (ProblemConfig, Utility, certainty_equivalent, check_y0,
                    validate_distribution)
from .oracle import exact_optimal
from .parallel import fork_parts, split_runs
from .power_solver import barrier_diagnostics, solve_log, solve_power
from .simulate import simulate_paths

# Smallest CSV, in rows x columns, whose emission is split over processes.
# A two-way split costs about 4 ms on a 2-vCPU Xeon VM (a fork and reap of
# the 35 MB process takes 2.2-3.2 ms, median of 30; a temp file and the
# append add the rest), while formatting costs 120 ns (integer-only
# policy.csv) to 350 ns (values.csv, with float columns) per cell.  Split
# in two, values.csv broke even at about 40,000 cells (solve-exp) and
# 65,000 (howard), policy.csv at about 110,000; below the gate, files are
# cheaper to write here alone.
SPLIT_CELLS = 100_000

# How numpy's ValueError begins when a shape (a size, a dimension, or their
# product in bytes) is beyond its index range; it is raised before allocating.
INDEX_OVERFLOW = ("Maximum allowed size exceeded", "Maximum allowed dimension exceeded",
                  "array is too big")


# -- config ingestion -------------------------------------------------------

def _as_int(raw, key: str) -> int:
    # bool is an int subclass; "depth: true" must not slip through
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigParse(f"{key} must be an integer, got {raw!r}")
    return raw


def _as_float(raw, key: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigParse(f"{key} must be a number, got {raw!r}")
    return float(raw)


# Numeric config keys and their parsers; an absent key takes ProblemConfig's default.
_NUMERIC_KEYS = {
    "beta": _as_float, "gamma": _as_float, "x_max": _as_int, "depth": _as_int,
    "tail_eps": _as_float, "s_grid_points": _as_int, "seed": _as_int,
}
CONFIG_KEYS = {*_NUMERIC_KEYS, "utility", "distribution", "distribution_preset",
               "output_dir"}
REQUIRED_KEYS = {"beta", "gamma", "utility", "x_max", "depth"}


def _parse_distribution(raw) -> dict[int, float]:
    if not isinstance(raw, dict) or not raw:
        raise ConfigParse("distribution must be a non-empty mapping of integer offsets to probabilities")
    out: dict[int, float] = {}
    for k, v in raw.items():
        if isinstance(k, bool) or not isinstance(k, int):
            raise ConfigParse(f"distribution offset {k!r} is not an integer")
        out[k] = _as_float(v, f"distribution[{k}]")
    return out


def _parse_preset(raw) -> dict[int, float]:
    if not isinstance(raw, dict) or set(raw) != {"p", "n"}:
        raise ConfigParse("distribution_preset must be a mapping with exactly the keys p and n")
    p = _as_float(raw["p"], "distribution_preset.p")
    n = _as_int(raw["n"], "distribution_preset.n")
    if not 0.0 < p < 1.0:
        raise ConfigParse(f"distribution_preset.p must be in (0,1), got {p}")
    if n < 1:
        raise ConfigParse(f"distribution_preset.n must be a positive integer, got {n}")
    return {1: p, -n: 1.0 - p}


def load_config(path: str | Path) -> tuple[ProblemConfig, Path]:
    """Read a YAML run config; returns the validated config and output dir."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}")
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigParse(f"invalid YAML in {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigParse(f"config {path} must be a YAML mapping")

    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ConfigParse(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(REQUIRED_KEYS - set(raw))
    if missing:
        raise ConfigParse(f"missing config keys: {', '.join(missing)}")

    has_map = "distribution" in raw
    has_preset = "distribution_preset" in raw
    if has_map == has_preset:
        raise ConfigParse("config needs exactly one of distribution, distribution_preset")
    mapping = _parse_distribution(raw["distribution"]) if has_map \
        else _parse_preset(raw["distribution_preset"])

    utility = raw["utility"]
    if not isinstance(utility, str):
        raise ConfigParse(f"utility must be a string, got {utility!r}")

    numbers = {key: parse(raw[key], key) for key, parse in _NUMERIC_KEYS.items()
               if key in raw}
    config = ProblemConfig(utility=Utility.parse(utility),
                           dist=validate_distribution(mapping), **numbers)
    outdir = raw.get("output_dir", "out")
    if not isinstance(outdir, str):
        raise ConfigParse(f"output_dir must be a string, got {outdir!r}")
    return config, Path(outdir)


# -- deterministic emission -------------------------------------------------

def _cells(column):
    """Cells of an array, or of a list of strings; a scalar gives one string."""
    if isinstance(column, np.ndarray) and column.ndim:
        return list(map(repr if column.dtype.kind == "f" else str, column.tolist()))
    if isinstance(column, list):
        return column
    return repr(float(column)) if isinstance(column, float) else str(column)


def _rows(block) -> int:
    """Rows of a block, read off its first list or array column."""
    for column in block:
        if isinstance(column, list) or isinstance(column, np.ndarray) and column.ndim:
            return len(column)
    return 1


def _write_blocks(fh, name: str, blocks) -> None:
    """Format each block of rows and write it as soon as it is formatted."""
    for block in blocks:
        cols = [_cells(v) for v in block]
        sizes = {len(c) for c in cols if not isinstance(c, str)} or {1}
        if len(sizes) > 1:
            raise ValueError(f"ragged block in {name}: column sizes {sorted(sizes)}")
        rows = sizes.pop()
        if rows:
            cols = [repeat(c, rows) if isinstance(c, str) else c for c in cols]
            fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


def _write_csv(path: Path, header: list[str], blocks, threads: int) -> None:
    """Write the header, then the blocks of rows in order.

    A block has one entry per column (see ``_cells``); a scalar repeats
    down the block, so a block of scalars only is one row.  A file of at
    least ``SPLIT_CELLS`` cells is cut into up to ``threads`` contiguous
    runs of blocks (``parallel.split_runs``): this process writes run 0
    straight to the file while forked children format the others into
    unlinked temp files beside it, which are then appended in order.
    """
    blocks = list(blocks)
    cells = len(header) * sum(map(_rows, blocks))
    runs = split_runs(threads if cells >= SPLIT_CELLS else 1, blocks)
    with open(path, "w", newline="") as fh, ExitStack() as temps:
        outs = [fh] + [temps.enter_context(tempfile.TemporaryFile(
            "w+", dir=path.parent, newline="")) for _ in runs[1:]]
        fh.write(",".join(header) + "\n")

        def part(i: int) -> None:
            _write_blocks(outs[i], path.name, runs[i])
            outs[i].flush()

        for i in fork_parts(len(runs), part):
            outs[i].seek(0)
            outs[i].truncate()
            part(i)
        for out in outs[1:]:
            out.seek(0)
            shutil.copyfileobj(out, fh)


def _write_bands(outdir: Path, policy) -> list[str]:
    """Write bands.csv for an exponential policy; returns each depth's cuts."""
    cuts = [b.cut_string() for b in extract_bands(policy)]
    _write_csv(outdir / "bands.csv", ["n", "xi", "band_cuts"],
               [(np.arange(len(cuts)), policy.xi, cuts)], 1)
    return cuts


def _write_exp_rule(outdir: Path, policy, xs: list[str], threads: int) -> list[str]:
    """Write bands.csv, then policy.csv, of an exponential policy; returns the cuts."""
    cuts = _write_bands(outdir, policy)
    _write_csv(outdir / "policy.csv", ["n", "x", "action"],
               ((n, xs, row) for n, row in enumerate(policy.action)), threads)
    return cuts


def _write_neutral_band(outdir: Path, sol) -> BandFunction:
    """Write the one-row bands.csv of a risk-neutral solution; returns its band."""
    band = sol.band()
    _write_csv(outdir / "bands.csv", ["xi", "band_cuts"],
               [(band.c[0], band.cut_string())], 1)
    return band


def _write_summary(outdir: Path, config: ProblemConfig, fields: dict) -> None:
    """Write summary.json: a command's fields beside the echo of its config."""
    echo = {**{key: getattr(config, key) for key in _NUMERIC_KEYS},
            "utility": config.utility.value,
            "distribution": {str(k): p for k, p in config.dist.items()}}
    with open(outdir / "summary.json", "w", newline="") as fh:
        json.dump({"config": echo, **fields}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solve(config: ProblemConfig, **kw):
    """(table, policy) for the config's utility; a risk-neutral solution is both.

    Reads the solvers off the module at call time, so wrappers apply.
    """
    if config.utility is Utility.RISK_NEUTRAL:
        sol = solve_neutral(config, **kw)
        return sol, sol
    return {Utility.EXPONENTIAL: solve_exp, Utility.POWER: solve_power,
            Utility.LOGARITHMIC: solve_log}[config.utility](config, **kw)


# -- subcommands ------------------------------------------------------------

def _cmd_solve_exp(config: ProblemConfig, outdir: Path, args) -> int:
    table, policy = solve_exp(config)
    sched = config.schedule
    xs = _cells(np.arange(config.x_max + 1))
    cuts = _write_exp_rule(outdir, policy, xs, args.threads)
    _write_csv(outdir / "values.csv",
               ["n", "theta", "x", "j_lo", "j_hi", "action", "xi", "band_cuts"],
               ((n, sched.thetas[n], xs, table.lo[n], table.hi[n],
                 policy.action[n], policy.xi[n], cuts[n])
                for n in range(config.depth)), args.threads)

    gamma = config.gamma
    values = []
    for x in range(config.x_max + 1):
        lo, hi = table.value_bracket(0, x)
        values.append({
            "x": x,
            "j_lo": lo,
            "j_hi": hi,
            "expected_utility_lo": hi / gamma,
            "expected_utility_hi": lo / gamma,
            "certainty_equivalent": certainty_equivalent(config.utility, gamma,
                                                         hi / gamma),
        })
    _write_summary(outdir, config, {
        "s_star": sched.s_star,
        "required_cap": sched.cap,
        "max_depth0_width": float(np.max(table.hi[0] - table.lo[0])),
        "values": values,
    })
    return 0


def _cmd_howard(config: ProblemConfig, outdir: Path, args) -> int:
    result = howard_solve(config)

    xs = _cells(np.arange(config.x_max + 1))
    _write_csv(outdir / "values.csv", ["iteration", "n", "x", "action", "j_hi"],
               ((i, n, xs, it.rule[n], it.j_hi[n])
                for i, it in enumerate(result.history) for n in range(config.depth)),
               args.threads)
    _write_exp_rule(outdir, result.policy, xs, args.threads)
    _write_summary(outdir, config, {
        "iterations": result.iterations,
        "final_gap": result.final_gap,
    })
    return 0


def _cmd_solve_power(config: ProblemConfig, outdir: Path, args) -> int:
    """solve-power and solve-log; reads the solver off the module, so wrappers apply."""
    s0 = check_y0(config.utility, getattr(args, "y0", None))
    table, policy = (solve_log if args.command == "solve-log" else solve_power)(config)
    report = barrier_diagnostics(policy)
    ss = _cells(table.grid.points)
    xi = [_cells(row) for row in report.xi]
    dxs = [(d, x) for d in range(config.depth) for x in range(config.x_max + 1)]
    _write_csv(outdir / "values.csv",
               ["d", "x", "s", "w_lo", "w_hi", "action", "xi_of_s"],
               ((d, x, ss, table.lo[d, x], table.hi[d, x],
                 policy.action[d, x], xi[d]) for d, x in dxs), args.threads)
    _write_csv(outdir / "policy.csv", ["d", "x", "s", "action"],
               ((d, x, ss, policy.action[d, x]) for d, x in dxs), args.threads)
    _write_csv(outdir / "bands.csv", ["d", "s", "xi_of_s"],
               ((d, ss, xi[d]) for d in range(config.depth)), args.threads)

    gamma = config.gamma
    values = []
    for x in range(config.x_max + 1):
        lo, hi = table.value_bracket(0, x, s0)
        values.append({"x": x, "j_hat_lo": lo, "j_hat_hi": hi,
                       "certainty_equivalent": certainty_equivalent(
                           config.utility, gamma, lo)})
    _write_summary(outdir, config, {
        "barrier_bound": report.bound,
        "initial_payout_level": s0,
        "values": values,
    })
    return 0


def _cmd_solve_neutral(config: ProblemConfig, outdir: Path, args) -> int:
    sol = solve_neutral(config)
    xs = _cells(np.arange(config.x_max + 1))
    _write_csv(outdir / "values.csv", ["x", "value"], [(xs, sol.values)], 1)
    _write_csv(outdir / "policy.csv", ["x", "action"], [(xs, sol.action)], 1)
    band = _write_neutral_band(outdir, sol)
    _write_summary(outdir, config, {
        "iterations": sol.iterations,
        "band_cuts": band.cut_string(),
        "values": [{"x": x, "value": float(sol.values[x]),
                    "certainty_equivalent": certainty_equivalent(
                        config.utility, config.gamma, float(sol.values[x]))}
                   for x in range(config.x_max + 1)],
    })
    return 0


def _cmd_bands(config: ProblemConfig, outdir: Path, args) -> int:
    if config.utility not in (Utility.EXPONENTIAL, Utility.RISK_NEUTRAL):
        raise ValidationError(
            "bands requires the exponential or risk_neutral utility; "
            "power/log barriers live in the solve-power and solve-log outputs")
    _, policy = _solve(config)
    if config.utility is Utility.EXPONENTIAL:
        cuts = _write_bands(outdir, policy)
        bands = [{"n": n, "xi": int(policy.xi[n]), "band_cuts": cuts[n]}
                 for n in range(config.depth)]
    else:
        band = _write_neutral_band(outdir, policy)
        bands = [{"xi": band.c[0], "band_cuts": band.cut_string()}]
    _write_summary(outdir, config, {"bands": bands})
    return 0


def _check_x0(x0: int, config: ProblemConfig) -> int:
    if not 0 <= x0 <= config.x_max:
        raise ValidationError(f"--x0 must be in [0, {config.x_max}], got {x0}")
    return x0


def _cmd_oracle_check(config: ProblemConfig, outdir: Path, args) -> int:
    utility = config.utility
    if args.y0 is not None and utility in (Utility.EXPONENTIAL, Utility.RISK_NEUTRAL):
        raise ValidationError(f"--y0 does not apply to {utility.value} utility")
    # power and log: the pay-everything terminal equals one extra oracle
    # decision stage, so their tables are solved at depth horizon - 1
    stages = 1 if utility in (Utility.POWER, Utility.LOGARITHMIC) else 0
    horizon = args.horizon if args.horizon is not None else config.depth + stages
    if horizon < 1 + stages:
        raise ValidationError(
            f"--horizon must be >= {1 + stages} for {utility.value} utility, got {horizon}")
    x0s = ([_check_x0(args.x0, config)] if args.x0 is not None
           else range(config.x_max + 1))
    y0 = check_y0(utility, args.y0)

    two_sided, tol, kw = True, 1e-9, {}
    if utility is Utility.RISK_NEUTRAL:
        run = config
        bracket = lambda sol, x0: (float(sol.values[x0]) - config.tail_eps,
                                   float(sol.values[x0]))
        two_sided = False  # finite horizons underestimate; only the upper edge is sharp
    elif utility is Utility.EXPONENTIAL:
        # unit terminal makes the solver row 0 the exact horizon optimum
        run, tol, kw = dataclasses.replace(config, depth=horizon), 1e-8, {"terminal": "unit"}
        bracket = lambda table, x0: table.value_bracket(0, x0)
    else:
        run = dataclasses.replace(config, depth=horizon - 1)
        bracket = lambda table, x0: table.value_bracket(0, x0, y0)
    table, _ = _solve(run, **kw)
    checks = []
    for x0 in x0s:
        val, _ = exact_optimal(run, x0, horizon, y0=y0)
        lo, hi = bracket(table, x0)
        gap = max(lo - val if two_sided else 0.0, val - hi, 0.0)
        checks.append({"x0": x0, "oracle": val, "solver_lo": lo,
                       "solver_hi": hi, "gap": gap, "pass": bool(gap <= tol)})

    ok = all(c["pass"] for c in checks)
    _write_summary(outdir, config, {
        "horizon": horizon,
        "checks": checks,
        "pass": ok,
    })
    if not ok:
        worst = max(c["gap"] for c in checks)
        raise InvariantViolation(
            f"oracle disagrees with solver, worst gap {worst:.3e} "
            f"(see {outdir / 'summary.json'})")
    return 0


def _cmd_simulate(config: ProblemConfig, outdir: Path, args) -> int:
    x0 = _check_x0(args.x0 if args.x0 is not None else config.x_max, config)
    if args.paths < 1:
        raise ValidationError(f"--paths must be positive, got {args.paths}")
    if args.max_steps < 1:
        raise ValidationError(f"--max-steps must be positive, got {args.max_steps}")
    y0 = check_y0(config.utility, args.y0)  # reject a bad --y0 before solving
    _, policy = _solve(config)
    result = simulate_paths(config, policy, x0, args.paths,
                            max_steps=args.max_steps, y0=y0, workers=args.threads)
    _write_summary(outdir, config, result.summary())
    return 0


# -- driver -----------------------------------------------------------------

_HANDLERS = {
    "solve-exp": _cmd_solve_exp,
    "solve-power": _cmd_solve_power,
    "solve-log": _cmd_solve_power,
    "solve-neutral": _cmd_solve_neutral,
    "howard": _cmd_howard,
    "oracle-check": _cmd_oracle_check,
    "simulate": _cmd_simulate,
    "bands": _cmd_bands,
}
SUBCOMMANDS = tuple(_HANDLERS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divbands",
        description="Certified solvers for the discrete dividend payout problem.")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="YAML run configuration")
        p.add_argument("--threads", type=int, default=1,
                       help="processes for CSV emission and simulation batches "
                            "(clamped to the usable CPUs; outputs are identical "
                            "for every value)")
        if name == "solve-log":
            p.add_argument("--y0", type=float, default=None,
                           help="initial wealth entering the logarithm (default 1.0)")
        if name == "oracle-check":
            p.add_argument("--x0", type=int, default=None,
                           help="single start surplus (default: all)")
            p.add_argument("--horizon", type=int, default=None,
                           help="oracle tree depth (default: config depth)")
            p.add_argument("--y0", type=float, default=None,
                           help="initial wealth for power (default 0.0) and log (1.0)")
        if name == "simulate":
            p.add_argument("--x0", type=int, default=None,
                           help="start surplus (default: x_max)")
            p.add_argument("--paths", type=int, default=10_000)
            p.add_argument("--max-steps", type=int, default=10_000)
            p.add_argument("--y0", type=float, default=None,
                           help="initial wealth (log utility default 1.0)")
    return parser


def run(argv: list[str]) -> int:
    """Parse arguments, dispatch, and write outputs; raises on bad input."""
    if argv and not argv[0].startswith("-") and argv[0] not in SUBCOMMANDS:
        raise UnknownSubcommand(
            f"unknown subcommand {argv[0]!r}; expected one of {', '.join(SUBCOMMANDS)}")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        raise ValidationError("a subcommand is required")
    if args.threads < 1:
        raise ValidationError(f"--threads must be positive, got {args.threads}")
    config, outdir = load_config(args.config)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output_dir {outdir}: {exc.strerror or exc}")
    return _HANDLERS[args.command](config, outdir, args)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an allocation's MemoryError often carries no text
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except ValueError as exc:
        if not str(exc).startswith(INDEX_OVERFLOW):
            raise  # any other ValueError is a fault of the program, not of its input
        print(f"error: too large to index: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
