"""CLI fuzz: every drawn config either runs or exits 2 or 3 with a message.

A ``hypothesis`` test draws a subcommand and a config in and around the
valid region: beta up to 1 - 1e-3 and a few values outside (0, 1), |gamma|
from 1e-3 to 1e3 with either sign, supports of 1 to 5 points with masses
down to 1e-12 (some unnormalized, some without a negative income), x_max
at, near or far above the cap the config's utility needs, and depth up to
1e4.  Each draw runs ``divbands`` in a child process that caps its own
address space (``CHILD_CAP``), under ``TIMEOUT`` seconds, one child at a
time.  The draws are held to a work cap per subcommand (``_CELLS``,
``_POWER_WORK``), so that a valid run ends in seconds.  A run must exit
0, 2 or 3, print no traceback, print a message on exits 2 and 3, and, on
exit 0, have lo <= hi in every row of its values.csv.

``FUZZ_EXAMPLES`` examples run by default; ``DIVBANDS_FUZZ=1`` runs
``FUZZ_EXAMPLES_HEAVY``.
"""

import csv
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from divbands import cli
from divbands.errors import CapTooSmall, ValidationError
from divbands.model import ProblemConfig, Utility, validate_distribution

FUZZ_EXAMPLES = 8
FUZZ_EXAMPLES_HEAVY = 150
HEAVY = os.environ.get("DIVBANDS_FUZZ") == "1"
CHILD_CAP = 2 << 30  # bytes of address space a child may map
TIMEOUT = 120  # seconds a child may run

SRC = str(Path(cli.__file__).resolve().parents[1])
CHILD = ("import resource, sys; cap = int(sys.argv[1]); "
         "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
         "cap = cap if hard == resource.RLIM_INFINITY else min(cap, hard); "
         "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
         "sys.path.insert(0, sys.argv[2]); from divbands import cli; "
         "sys.exit(cli.main(sys.argv[3:]))")

# the work cap of a draw: the most (x_max + 1) * depth it solves, by
# subcommand, and for power and log, whose backup prices x_max + 1 actions a
# depth, each over (x_max + 1) * M cells plus a fixed cost of about 1,000
# cells, the most depth * (x_max + 1) * ((x_max + 1) * M + 1000)
_CELLS = {"howard": 20_000, "oracle-check": 20_000, "simulate": 100_000}
_DEFAULT_CELLS = 300_000
_POWER_WORK = 20_000_000
_X_MAX = 50_000  # the risk-neutral value iteration's cost grows with x_max, not depth
RARELY = st.sampled_from([False] * 9 + [True])  # a draw outside the valid region
_UTILITY = {"solve-exp": ["exponential"], "howard": ["exponential"],
            "solve-power": ["power"], "solve-log": ["logarithmic"],
            "solve-neutral": ["risk_neutral"],
            "bands": ["exponential", "risk_neutral"]}
_ALL = ["exponential", "power", "logarithmic", "risk_neutral"]


def _needed_cap(body: dict) -> int | None:
    """The x_max the config's validation asks for, or None when the config
    is refused before the cap is checked (or needs no more than 0)."""
    try:
        ProblemConfig(utility=Utility.parse(body["utility"]),
                      dist=validate_distribution(body["distribution"]),
                      **{k: body[k] for k in ("beta", "gamma", "depth")}, x_max=0)
    except CapTooSmall as exc:
        return int(re.search(r"bound (\d+)", str(exc)).group(1))
    except ValidationError:  # refused otherwise; the child reports how
        return None
    return None


def _masses(draw, support: list[int]) -> dict[int, float]:
    weights = [draw(st.one_of(st.floats(1e-12, 1.0), st.sampled_from([1e-12, 0.5, 1.0])))
               for _ in support]
    total = math.fsum(weights)
    masses = {k: w / total for k, w in zip(support, weights)}
    if draw(RARELY):  # unnormalized, or a negative or zero mass
        k = support[0]
        masses[k] = draw(st.sampled_from([masses[k] * 2, -masses[k], 0.0]))
    return masses


@st.composite
def runs(draw):
    """(subcommand, config body, flags) of one CLI run."""
    command = draw(st.sampled_from(cli.SUBCOMMANDS))
    utility = draw(st.sampled_from(_UTILITY.get(command, _ALL)))
    if draw(RARELY) and draw(RARELY):
        utility = "cubic"
    beta = draw(st.one_of(st.floats(0.05, 0.95), st.sampled_from([0.5, 0.9, 0.99, 0.999])))
    if draw(RARELY):
        beta = draw(st.sampled_from([0.0, 1.0, 1.5, -0.5, math.nan]))
    magnitude = 10.0 ** draw(st.floats(-3.0, 3.0))
    gamma = {"exponential": -magnitude, "power": draw(st.floats(0.01, 0.99))}.get(utility, 0.0)
    if draw(RARELY):  # outside the utility's range
        gamma = draw(st.sampled_from([magnitude, -magnitude, 0.0, 1.0, math.inf]))
    support = draw(st.lists(st.integers(-25, 25), min_size=1, max_size=5, unique=True))
    if not draw(RARELY) and min(support) >= 0:
        support[0] = -1 - support[0]  # most draws can be ruined
    body = {"utility": utility, "beta": beta, "gamma": gamma,
            "distribution": _masses(draw, sorted(support)),
            "depth": draw(st.one_of(st.integers(1, 50), st.integers(-1, 10_000)))}

    power = utility in ("power", "logarithmic")
    if power:
        body["s_grid_points"] = 1 if draw(RARELY) else draw(st.sampled_from([2, 3, 16, 64]))
    need = _needed_cap(body)
    if need is None:
        x_max = draw(st.integers(-1, 60))
    else:
        x_max = draw(st.one_of(st.integers(need - 2, need + 2), st.integers(need, 10 * need)))
    x_max = min(x_max, _X_MAX)
    if power:
        m = max(body["s_grid_points"], 1)
        x_max = min(x_max, math.isqrt(_POWER_WORK // m) - 1)
        most = _POWER_WORK // ((max(x_max, 0) + 1) * ((max(x_max, 0) + 1) * m + 1000))
    else:
        most = _CELLS.get(command, _DEFAULT_CELLS) // (max(x_max, 0) + 1)
    body["x_max"] = x_max
    body["depth"] = min(body["depth"], max(most, 1))
    if draw(RARELY):
        body["tail_eps"] = draw(st.sampled_from([1e-12, 1e-3, 0.5, 0.0, -1.0]))
    if draw(RARELY):
        body["seed"] = draw(st.sampled_from([1, 2 ** 64, 2 ** 128, -1]))

    flags = ["--threads", str(draw(st.sampled_from([1, 2])))]
    if (command in ("solve-log", "oracle-check", "simulate")
            and (power and draw(st.booleans()) or draw(RARELY))):
        y0s = [0.0, -1.0] if draw(RARELY) else [0.5, 1.0, 10.0]  # 0.0 is refused for log
        flags += ["--y0", repr(draw(st.sampled_from(y0s)))]
    top = max(x_max, 0) + (1 if draw(RARELY) else 0)  # x0 may lie above x_max
    if command == "oracle-check":
        flags += ["--x0", str(draw(st.integers(0, min(top, 6)))),
                  "--horizon", str(draw(st.integers(0, 4)))]
    if command == "simulate":
        flags += ["--paths", str(0 if draw(RARELY) else draw(st.integers(1, 3_000))),
                  "--max-steps", str(0 if draw(RARELY) else draw(st.integers(1, 3_000))),
                  "--x0", str(draw(st.integers(0, top)))]
    return command, body, flags


def _lo_hi_rows(path: Path):
    """Each row's (lo, hi) pairs of a values.csv: columns named *_lo, *_hi."""
    with open(path, newline="") as f:
        rows = csv.reader(f)
        header = next(rows)
        pairs = [(header.index(name), header.index(name[:-3] + "_hi"))
                 for name in header if name.endswith("_lo") and name[:-3] + "_hi" in header]
        for row in rows:
            yield [(float(row[i]), float(row[j])) for i, j in pairs]


@settings(max_examples=FUZZ_EXAMPLES_HEAVY if HEAVY else FUZZ_EXAMPLES, deadline=None,
          derandomize=not HEAVY, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_cli_exits_cleanly_on_drawn_configs(run):
    command, body, flags = run
    with tempfile.TemporaryDirectory() as where:
        where = Path(where)
        (where / "config.yaml").write_text(yaml.safe_dump(dict(body, output_dir="out")))
        done = subprocess.run([sys.executable, "-c", CHILD, str(CHILD_CAP), SRC, command,
                               "config.yaml", *flags],
                              cwd=where, capture_output=True, text=True, timeout=TIMEOUT)
        assert "Traceback" not in done.stderr, done.stderr
        assert done.returncode in (0, 2, 3), done.stderr
        if done.returncode:
            assert done.stderr.strip(), f"exit {done.returncode} without a message"
            return
        values = where / "out" / "values.csv"
        if values.exists():
            for pairs in _lo_hi_rows(values):
                assert all(lo <= hi for lo, hi in pairs), pairs
