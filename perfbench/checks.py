"""Output checks for benchmark jobs.

Every job's output directory is reduced to its *facts*: the headline
brackets it reports, its band cut strings per depth, the oracle pass
flags and the simulation summary.  Facts are checked twice:

* invariants that hold for any seed: the job exited 0, lo <= hi in every
  bracket the job writes (tables included), the cut strings agree across
  the files that repeat them, and oracle-check reports ``pass: true``;
* for seed 0, agreement with ``reference/seed0.json``: brackets and
  simulation statistics within ``REL_TOL`` relative, band cuts and pass
  flags identical.

CSV tables are streamed row by row, so checking a 20 MB power table
holds no more than one row in memory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Relative tolerance for brackets and simulation statistics against the
# reference: loose enough for last-ulp changes in the solvers, tight
# enough that any change of a reported digit that matters fails.
REL_TOL = 1e-9

SIM_KEYS = ("n_paths", "mean_utility", "std_err", "ruin_fraction",
            "mean_ruin_time", "truncated_fraction")


def rle(items: list[str]) -> list[list]:
    """Run-length encode a list of strings as [[value, count], ...]."""
    out: list[list] = []
    for item in items:
        if out and out[-1][0] == item:
            out[-1][1] += 1
        else:
            out.append([item, 1])
    return out


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _bands_csv(path: Path) -> list[str]:
    with open(path, newline="") as fh:
        return [row["band_cuts"] for row in csv.DictReader(fh)]


def _scan_table(path: Path, lo_key: str, hi_key: str, cut_col: bool,
                problems: list[str]) -> list[str]:
    """Stream a values table: lo <= hi on every row; returns per-depth cuts."""
    cuts: list[str] = []
    bad = 0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if not float(row[lo_key]) <= float(row[hi_key]):
                bad += 1
            if cut_col and row["x"] == "0":
                cuts.append(row["band_cuts"])
    if bad:
        problems.append(f"{path.name}: {bad} rows with {lo_key} > {hi_key}")
    return cuts


def extract(command: str, outdir: Path) -> tuple[dict, list[str]]:
    """Facts of one job's outputs, plus invariant violations found."""
    problems: list[str] = []
    facts: dict = {}
    if command == "solve-exp":
        table_cuts = _scan_table(outdir / "values.csv", "j_lo", "j_hi", True, problems)
        facts["cuts"] = _bands_csv(outdir / "bands.csv")
        if table_cuts != facts["cuts"]:
            problems.append("values.csv band_cuts differ from bands.csv")
        summary = _read_json(outdir / "summary.json")
        facts["brackets"] = [[v["j_lo"], v["j_hi"]] for v in summary["values"]]
    elif command in ("solve-power", "solve-log"):
        _scan_table(outdir / "values.csv", "w_lo", "w_hi", False, problems)
        summary = _read_json(outdir / "summary.json")
        facts["brackets"] = [[v["j_hat_lo"], v["j_hat_hi"]] for v in summary["values"]]
    elif command == "howard":
        facts["cuts"] = _bands_csv(outdir / "bands.csv")
    elif command == "oracle-check":
        summary = _read_json(outdir / "summary.json")
        checks = summary["checks"]
        facts["brackets"] = [[c["solver_lo"], c["solver_hi"]] for c in checks]
        facts["oracle"] = [c["oracle"] for c in checks]
        facts["pass"] = [bool(c["pass"]) for c in checks] + [bool(summary["pass"])]
        if not all(facts["pass"]):
            problems.append("oracle-check reports pass: false")
    elif command == "simulate":
        summary = _read_json(outdir / "summary.json")
        facts["simulate"] = {k: summary[k] for k in SIM_KEYS}
        if not 0.0 <= summary["ruin_fraction"] <= 1.0 \
                or not math.isfinite(summary["mean_utility"]):
            problems.append(f"implausible simulation summary {summary}")
    elif command == "solve-neutral":
        summary = _read_json(outdir / "summary.json")
        facts["cuts"] = [summary["band_cuts"]]
        facts["values"] = [v["value"] for v in summary["values"]]
        if _bands_csv(outdir / "bands.csv") != facts["cuts"]:
            problems.append("bands.csv differs from summary band_cuts")
    elif command == "bands":
        facts["cuts"] = _bands_csv(outdir / "bands.csv")
        summary_cuts = [b["band_cuts"] for b in _read_json(outdir / "summary.json")["bands"]]
        if summary_cuts != facts["cuts"]:
            problems.append("bands.csv differs from summary bands")
    else:
        raise ValueError(f"no output check for subcommand {command!r}")

    for lo, hi in facts.get("brackets", ()):
        if not lo <= hi:
            problems.append(f"headline bracket [{lo!r}, {hi!r}] has lo > hi")
            break
    if "cuts" in facts:
        facts["cuts"] = rle(facts["cuts"])
    return facts, problems


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def compare(facts: dict, ref: dict) -> list[str]:
    """Differences between a job's facts and its reference facts."""
    problems: list[str] = []
    if set(facts) != set(ref):
        return [f"fact keys {sorted(facts)} != reference {sorted(ref)}"]
    if "brackets" in ref:
        got, want = facts["brackets"], ref["brackets"]
        if len(got) != len(want):
            problems.append(f"{len(got)} brackets, reference has {len(want)}")
        for i, ((lo, hi), (rlo, rhi)) in enumerate(zip(got, want)):
            if not (_close(lo, rlo) and _close(hi, rhi)):
                problems.append(f"bracket {i} [{lo!r}, {hi!r}] != "
                                f"reference [{rlo!r}, {rhi!r}]")
                break
    for key in ("oracle", "values"):
        if key in ref and (len(facts[key]) != len(ref[key]) or not all(
                _close(a, b) for a, b in zip(facts[key], ref[key]))):
            problems.append(f"{key} differ from reference")
    for key in ("cuts", "pass"):
        if key in ref and facts[key] != ref[key]:
            problems.append(f"{key} differ from reference")
    if "simulate" in ref:
        for k in SIM_KEYS:
            if not _close(facts["simulate"][k], ref["simulate"][k]):
                problems.append(f"simulate {k} {facts['simulate'][k]!r} != "
                                f"reference {ref['simulate'][k]!r}")
    return problems


def rel_width_max(facts: dict) -> float:
    """Largest (hi - lo) / max(|lo|, |hi|) over the job's headline brackets."""
    worst = 0.0
    for lo, hi in facts.get("brackets", ()):
        scale = max(abs(lo), abs(hi))
        if scale > 0 and math.isfinite(scale):
            worst = max(worst, (hi - lo) / scale)
    return worst


def digest(outdir: Path) -> str:
    """Hash of every file in an output directory, names included."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()
