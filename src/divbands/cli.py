"""Command line front end.

Every subcommand reads one YAML config, whose absent optional keys take
``ProblemConfig``'s defaults, and writes fixed-name files under its
``output_dir``: values.csv, policy.csv, bands.csv and summary.json (each
command writes the subset that makes sense for it; every summary.json
echoes the config it ran under "config").  Emission is
deterministic.  CSVs are built from blocks of rows (a depth, or one
(d, x) row over the s-grid), streamed in chunks of whole blocks of at
least ``CHUNK_ROWS`` rows, and each chunk is formatted a column at a
time: array cells read as repr writes floats (shortest round-trip form)
and str writes integers, and labels are formatted once.  A column that
is a scalar in every block of a chunk (solve-exp's n, theta, xi and
band_cuts; solve-power's d and x) is formatted once per block and glued
to the separators on both sides, so a file's row is a fixed run of glue
and cell slots; a chunk of a file is one flat list, filled a slot at a
time by strided slice assignment, and one join.  The bytes equal a
per-cell rendering.  A
``policy.csv`` whose columns are all in its ``values.csv`` (solve-exp,
solve-power, solve-log) is a projection written in the same pass, from
the same cells.  An array column must be
1-D float64 or integer, and is written in one orjson call, which gives
those same bytes except for floats repr puts in exponent form (nonzero
|v| < 1e-4, or |v| >= 1e16) and nan/inf; those few go through repr.
Any other array is refused with TypeError.  summary.json is
``json.dumps(doc, indent=2, sort_keys=True)`` byte for byte, but its
lists of flat records (the per-x ``values`` of solve-exp, solve-power,
solve-log and solve-neutral, the ``bands`` of bands, the ``checks`` of
oracle-check) come as columns and are written a column at a time like a
CSV chunk: numeric columns through the same cells (with json's NaN and
Infinity), every other cell through ``json.dumps``, the keys and their
indentation as glue between them, and one join.  JSON keys are sorted,
newlines are always "\\n", and the solvers are fixed-order numpy code,
so re-running a command reproduces its files byte for byte.

``--threads N`` splits the three costs that parallelize over this
process and up to N - 1 forked children (``divbands.parallel``), N
clamped to the usable CPUs: a CSV write of at least ``SPLIT_CELLS``
cells over its files (the values and policy tables of large
``solve-exp``, ``howard``, ``solve-power`` and ``solve-log`` runs) is
formatted in contiguous runs of blocks, ``simulate`` runs its batches of
paths in contiguous runs, and ``solve-power``/``solve-log`` of at least
``power_solver.SPLIT_WORK`` induct their upper table in one child while
this process inducts the lower table and the rule (at most 2
processes).  The files are byte-identical for every N; N = 1 forks
nothing.

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
from functools import cache
from itertools import chain, repeat
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

# Fewest cells, rows x columns summed over the files of one ``_write_csv``
# call, whose emission is split over processes: the serial/split crossing.
# A two-way split costs about 5 ms on a 2-vCPU Xeon VM (a fork and reap,
# the temp files and the appends), while the glued chunk writer costs about
# 55-70 ns per cell written to files (37-38 ns of it formatting and
# joining) and 120 ns on howard's values.csv.  Split in two (three rounds
# of medians of 41-61 alternating runs on that VM, bandy's solve-exp tables
# and the seed-0 power tables, values.csv with its policy.csv, cut to their
# first blocks), the split lost 0.9-4.1 ms at 300,000 cells in 5 of 6
# medians, was mixed at 450,000 and 500,000, and won at 600,000 in 5 of 6
# and at 800,000 in 4 of 4.  No benchmark job writes between 240,000 and
# 920,000 cells.
SPLIT_CELLS = 500_000

# Fewest rows formatted together: consecutive blocks are gathered into
# chunks of at least this many rows, so a column's fixed cost (about 7 us
# for the orjson call and the exponent-form mask) is paid once a chunk
# rather than once a block of 41-45 rows.
CHUNK_ROWS = 2_048

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
        # libyaml's parser where PyYAML has it, with the same safe constructor
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigParse(f"invalid YAML in {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigParse(f"config {path} must be a YAML mapping")

    unknown = sorted(map(str, set(raw) - CONFIG_KEYS))  # keys may be ints, bools, ...
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

def _numeric_cells(column: np.ndarray) -> list[str]:
    """``repr`` of each float, or ``str`` of each integer, of a 1-D native array.

    One orjson call writes the column: integers as ``str`` does, floats
    with ``repr``'s shortest round-trip digits and, wherever
    1e-4 <= |v| < 1e16 or v is +-0.0, in ``repr``'s layout.  The other
    floats (``repr``'s exponent form; nan and +-inf, which orjson writes
    as null) go through ``repr``.  tests/test_golden.py holds the two
    equal, so an orjson upgrade that changes its layout fails there.
    """
    import orjson  # here, so commands that write no CSV do not load it
    text = orjson.dumps(np.ascontiguousarray(column), option=orjson.OPT_SERIALIZE_NUMPY)
    cells = text[1:-1].decode().split(",") if len(column) else []
    if column.dtype.kind == "f":
        mag = np.abs(column)
        odd = np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16)) & (mag != 0))
        for i, v in zip(odd.tolist(), column[odd].tolist()):
            cells[i] = repr(v)
    return cells


def _cells(column):
    """Cells of an array, or of a list of strings; a scalar gives one string.

    An array must be a 1-D native float64 or integer column, whose floats
    read as ``repr`` writes them and integers as ``str`` (``_numeric_cells``);
    any other array (bool, float32, non-native, n-d) raises TypeError.
    """
    if isinstance(column, np.ndarray) and column.ndim:
        if column.ndim == 1 and column.dtype.isnative and (
                column.dtype.kind in "iu" or column.dtype == np.float64):
            return _numeric_cells(column)
        raise TypeError(f"no CSV cells for a {column.dtype} array of shape {column.shape}")
    if isinstance(column, list):
        return column
    return repr(float(column)) if isinstance(column, float) else str(column)


def _sized(entry) -> bool:
    """Whether a block's entry holds one cell per row (a list or an array)."""
    return isinstance(entry, list) or isinstance(entry, np.ndarray) and entry.ndim > 0


def _block_rows(name: str, block) -> int:
    """Rows of a block: its list and array columns' common length, else 1."""
    sizes = {len(c) for c in block if _sized(c)} or {1}
    if len(sizes) > 1:
        raise ValueError(f"ragged block in {name}: column sizes {sorted(sizes)}")
    return sizes.pop()


def _chunks(items):
    """Consecutive (block, rows) items in runs of at least ``CHUNK_ROWS`` rows."""
    chunk, total = [], 0
    for item in items:
        chunk.append(item)
        total += item[1]
        if total >= CHUNK_ROWS:
            yield chunk
            chunk, total = [], 0
    if chunk:
        yield chunk


def _column(entries, rows) -> list[str]:
    """Cells of one column down a chunk of blocks with the given row counts:
    arrays of one dtype in one ``_cells`` call, else entry by entry, a
    scalar formatted once and repeated down its block."""
    if all(isinstance(e, np.ndarray) and e.ndim for e in entries) and \
            len({e.dtype for e in entries}) == 1:
        return _cells(np.concatenate(entries))
    cells = []
    for entry, n in zip(entries, rows):
        c = _cells(entry)
        cells += [c] * n if isinstance(c, str) else c
    return cells


def _row_slots(cols, glued, keep, nblocks: int) -> list[tuple[bool, list[str]]]:
    """One file's row as (is_glue, strings) slots in order: cell columns,
    and between them glue, one string a block, that merges the glued
    (scalar) columns with the separators on both sides; the last glue ends
    the row."""
    slots, glue = [], [""] * nblocks
    for i, j in enumerate(keep):
        if i:
            glue = [g + "," for g in glue]
        if glued[j]:
            glue = [g + c for g, c in zip(glue, cols[j])]
            continue
        if i:
            slots.append((True, glue))
        slots.append((False, cols[j]))
        glue = [""] * nblocks
    slots.append((True, [g + "\n" for g in glue]))
    return slots


def _write_blocks(outs, columns, items) -> None:
    """Format (block, rows) items a chunk at a time and write each chunk's
    rows to every file, ``outs[k]`` getting the columns ``columns[k]``.

    A column that is a scalar in every block of the chunk is formatted
    once a block and glued to its separators (``_row_slots``); each file's
    rows are one flat list, filled a slot at a time by strided slice
    assignment, a glue string repeated down its block, and joined once.
    """
    for chunk in _chunks(items):
        blocks, rows = zip(*chunk)
        total = sum(rows)
        if not total:
            continue
        cols, glued = [], []
        for entries in zip(*blocks):
            glued.append(not any(map(_sized, entries)))
            cols.append(list(map(_cells, entries)) if glued[-1] else _column(entries, rows))
        for out, keep in zip(outs, columns):
            slots = _row_slots(cols, glued, keep, len(blocks))
            width = len(slots)
            flat = [""] * (width * total)
            for k, (is_glue, strings) in enumerate(slots):
                if not is_glue:
                    flat[k::width] = strings
                elif strings.count(strings[0]) == len(strings):  # the same in every block
                    flat[k::width] = [strings[0]] * total
                else:
                    flat[k::width] = list(chain.from_iterable(map(repeat, strings, rows)))
            out.write("".join(flat))


def _write_csv(path: Path, header: list[str], blocks, threads: int,
               also: tuple[tuple[Path, list[str]], ...] = ()) -> None:
    """Write the header, then the blocks of rows in order; each (path,
    header) of ``also`` gets the same rows cut to its columns, which must
    be a subset of ``header``.

    A block has one entry per column (see ``_cells``); a scalar repeats
    down the block, so a block of scalars only is one row.  Consecutive
    blocks are formatted together in chunks of at least ``CHUNK_ROWS``
    rows, and each cell once for all the files.  When all the files hold
    at least ``SPLIT_CELLS`` cells between them, the blocks are cut into
    up to ``threads`` contiguous runs (``parallel.split_runs``): this
    process writes run 0 straight to the files while forked children
    format the others into unlinked temp files beside them, which are
    then appended in order.
    """
    files = [(path, header), *also]
    columns = [[header.index(h) for h in head] for _, head in files]
    items = [(block, _block_rows(path.name, block)) for block in blocks]
    cells = sum(map(len, columns)) * sum(rows for _, rows in items)
    runs = split_runs(threads if cells >= SPLIT_CELLS else 1, items)
    with ExitStack() as stack:
        outs = [[stack.enter_context(open(p, "w", newline="")) for p, _ in files]]
        outs += [[stack.enter_context(tempfile.TemporaryFile("w+", dir=path.parent, newline=""))
                  for _ in files] for _ in runs[1:]]
        for fh, (_, head) in zip(outs[0], files):
            fh.write(",".join(head) + "\n")

        def part(i: int) -> None:
            for out in outs[i] if i else ():  # a re-run starts over what a failed child wrote
                out.seek(0)
                out.truncate()
            _write_blocks(outs[i], columns, runs[i])
            for out in outs[i]:
                out.flush()

        fork_parts(len(runs), part)
        # appended as bytes, past the text layers: decoding and re-encoding
        # cost about 0.2 ms more per MB (3.7 MB: 2.3 ms as text, 1.5 ms as
        # bytes on a 2-vCPU Xeon VM), some 10 MB per power job
        for fh in outs[0]:
            fh.flush()
        for temps in outs[1:]:
            for fh, out in zip(outs[0], temps):
                out.seek(0)
                shutil.copyfileobj(out.buffer, fh.buffer)


def _write_bands(outdir: Path, policy) -> list[str]:
    """Write bands.csv for an exponential policy; returns each depth's cuts."""
    cuts = [b.cut_string() for b in extract_bands(policy)]
    _write_csv(outdir / "bands.csv", ["n", "xi", "band_cuts"],
               [(np.arange(len(cuts)), policy.xi, cuts)], 1)
    return cuts


def _write_neutral_band(outdir: Path, sol) -> BandFunction:
    """Write the one-row bands.csv of a risk-neutral solution; returns its band."""
    band = sol.band()
    _write_csv(outdir / "bands.csv", ["xi", "band_cuts"],
               [(band.c[0], band.cut_string())], 1)
    return band


# json's spelling of the floats repr writes as nan, inf and -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cells(column) -> list[str]:
    """Each entry of a record column as ``json.dumps`` writes it: a 1-D
    float64 or integer array through ``_cells`` (repr-exact, with json's
    spelling of nan and +-inf), any other sequence entry by entry."""
    if not isinstance(column, np.ndarray):
        return list(map(json.dumps, column))
    cells = _cells(column)
    if column.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            cells[i] = _JSON_NONFINITE[cells[i]]
    return cells


def _json_records(columns: dict) -> str:
    """A top-level field's list of flat records, given as equal-length
    columns keyed by field (at least one), as ``json.dumps(..., indent=2,
    sort_keys=True)`` writes it inside the top-level object.

    Like a CSV chunk, the records are one flat list of glue (the keys with
    their indentation and separators, the same in every record) and cells,
    filled a column at a time by strided slice assignment, and one join.
    """
    keys = sorted(columns)
    cells = [_json_cells(columns[key]) for key in keys]
    rows, width = len(cells[0]), 2 * len(keys)
    if not rows:
        return "[]"
    flat = [""] * (width * rows)
    for i, (key, col) in enumerate(zip(keys, cells)):
        lead = ",\n      " if i else "\n    },\n    {\n      "
        flat[2 * i::width] = [f"{lead}{json.dumps(key)}: "] * rows
        flat[2 * i + 1::width] = col
    flat[0] = flat[0].removeprefix("\n    },")  # the first record opens the list
    return "[" + "".join(flat) + "\n    }\n  ]"


def _write_summary(outdir: Path, config: ProblemConfig, fields: dict,
                   records: dict | None = None) -> None:
    """Write summary.json: a command's fields beside the echo of its config.

    ``records`` maps a field to its list of flat records, given as columns
    (``_json_records``).  The file is ``json.dumps(doc, indent=2,
    sort_keys=True)`` of the whole document; each other top-level field is
    dumped on its own and re-indented.
    """
    echo = {**{key: getattr(config, key) for key in _NUMERIC_KEYS},
            "utility": config.utility.value,
            "distribution": {str(k): p for k, p in config.dist.items()}}
    parts = {key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
             for key, value in {"config": echo, **fields}.items()}
    parts.update((key, _json_records(columns)) for key, columns in (records or {}).items())
    body = ",\n".join(f"  {json.dumps(key)}: {parts[key]}" for key in sorted(parts))
    with open(outdir / "summary.json", "w", newline="") as fh:
        fh.write("{\n" + body + "\n}\n")


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
    cuts = _write_bands(outdir, policy)
    _write_csv(outdir / "values.csv",
               ["n", "theta", "x", "j_lo", "j_hi", "action", "xi", "band_cuts"],
               ((n, sched.thetas[n], xs, table.lo[n], table.hi[n],
                 policy.action[n], policy.xi[n], cuts[n])
                for n in range(config.depth)), args.threads,
               also=((outdir / "policy.csv", ["n", "x", "action"]),))

    gamma, lo, hi = config.gamma, table.lo[0], table.hi[0]
    utility_lo = hi / gamma
    _write_summary(outdir, config, {
        "s_star": sched.s_star,
        "required_cap": sched.cap,
        "max_depth0_width": float(np.max(hi - lo)),
    }, records={"values": {
        "x": np.arange(config.x_max + 1),
        "j_lo": lo,
        "j_hi": hi,
        "expected_utility_lo": utility_lo,
        "expected_utility_hi": lo / gamma,
        "certainty_equivalent": np.array([certainty_equivalent(config.utility, gamma, u)
                                          for u in utility_lo.tolist()]),
    }})
    return 0


def _cmd_howard(config: ProblemConfig, outdir: Path, args) -> int:
    result = howard_solve(config)

    xs = _cells(np.arange(config.x_max + 1))
    _write_csv(outdir / "values.csv", ["iteration", "n", "x", "action", "j_hi"],
               ((i, n, xs, it.rule[n], it.j_hi[n])
                for i, it in enumerate(result.history) for n in range(config.depth)),
               args.threads)
    _write_bands(outdir, result.policy)
    _write_csv(outdir / "policy.csv", ["n", "x", "action"],
               ((n, xs, row) for n, row in enumerate(result.policy.action)), args.threads)
    _write_summary(outdir, config, {
        "iterations": result.iterations,
        "final_gap": result.final_gap,
    })
    return 0


def _cmd_solve_power(config: ProblemConfig, outdir: Path, args) -> int:
    """solve-power and solve-log; reads the solver off the module, so wrappers apply."""
    s0 = check_y0(config.utility, getattr(args, "y0", None))
    table, policy = (solve_log if args.command == "solve-log" else solve_power)(
        config, workers=args.threads)
    report = barrier_diagnostics(policy)
    ss = _cells(table.grid.points)
    xi = [_cells(row) for row in report.xi]
    dxs = [(d, x) for d in range(config.depth) for x in range(config.x_max + 1)]
    _write_csv(outdir / "values.csv",
               ["d", "x", "s", "w_lo", "w_hi", "action", "xi_of_s"],
               ((d, x, ss, table.lo[d, x], table.hi[d, x],
                 policy.action[d, x], xi[d]) for d, x in dxs), args.threads,
               also=((outdir / "policy.csv", ["d", "x", "s", "action"]),))
    _write_csv(outdir / "bands.csv", ["d", "s", "xi_of_s"],
               ((d, ss, xi[d]) for d in range(config.depth)), args.threads)

    lo, hi = table.surplus_brackets(0, s0)
    _write_summary(outdir, config, {
        "barrier_bound": report.bound,
        "initial_payout_level": s0,
    }, records={"values": {
        "x": np.arange(config.x_max + 1), "j_hat_lo": lo, "j_hat_hi": hi,
        "certainty_equivalent": np.array([certainty_equivalent(config.utility, config.gamma, v)
                                          for v in lo.tolist()]),
    }})
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
    }, records={"values": {
        "x": np.arange(config.x_max + 1), "value": sol.values,
        "certainty_equivalent": np.array([certainty_equivalent(config.utility, config.gamma, v)
                                          for v in sol.values.tolist()]),
    }})
    return 0


def _cmd_bands(config: ProblemConfig, outdir: Path, args) -> int:
    if config.utility not in (Utility.EXPONENTIAL, Utility.RISK_NEUTRAL):
        raise ValidationError(
            "bands requires the exponential or risk_neutral utility; "
            "power/log barriers live in the solve-power and solve-log outputs")
    _, policy = _solve(config)
    if config.utility is Utility.EXPONENTIAL:
        cuts = _write_bands(outdir, policy)
        bands = {"n": np.arange(config.depth), "xi": policy.xi, "band_cuts": cuts}
    else:
        band = _write_neutral_band(outdir, policy)
        bands = {"xi": [band.c[0]], "band_cuts": [band.cut_string()]}
    _write_summary(outdir, config, {}, records={"bands": bands})
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
    checks = {key: [] for key in ("x0", "oracle", "solver_lo", "solver_hi", "gap", "pass")}
    for x0 in x0s:
        val, _ = exact_optimal(run, x0, horizon, y0=y0)
        lo, hi = bracket(table, x0)
        gap = max(lo - val if two_sided else 0.0, val - hi, 0.0)
        for key, value in zip(checks, (x0, val, lo, hi, gap, bool(gap <= tol))):
            checks[key].append(value)

    ok = all(checks["pass"])
    _write_summary(outdir, config, {
        "horizon": horizon,
        "pass": ok,
    }, records={"checks": checks})
    if not ok:
        worst = max(checks["gap"])
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


@cache  # built once per process; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divbands",
        description="Certified solvers for the discrete dividend payout problem.")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="YAML run configuration")
        p.add_argument("--threads", type=int, default=1,
                       help="processes for CSV emission, simulation batches and "
                            "the power/log solve (clamped to the usable CPUs; "
                            "outputs are identical for every value)")
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
