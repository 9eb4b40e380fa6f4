"""The ledger of the North star's corners: one row per corner.

Each row runs one CLI subcommand (``--threads 2``) on one corner config and
pins today's outcome: the exit code and the class of the error that ended
the run (None on exit 0), so that a row moving from one refusal to another
shows.  Where ROADMAP item 1's gates want exit 0 and the row does not exit
0 today, a strict xfail asserts exit 0 as well; the change that mends the
row drops its marker and updates its outcome.

Rows under about 2 s and 500 MB run in this process.  The heavy rows run
only with DIVBANDS_CORNERS=1, each in a child process under a 4 GiB
address-space cap set in that child alone, and are held to loose ceilings
on CPU seconds and peak RSS read from the child's own rusage.  Every row
writes to a temporary directory that is deleted after it.

Law R is the README income law {1: 0.6, -1: 0.4}.  The power and log caps
are ``xi_star_bound``; every other size is perfbench's sizing rule.
"""

import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import pytest
import yaml

from divbands import cli

R = {1: 0.6, -1: 0.4}
WIDE = {-30: 0.3, 50: 0.7}
CHILD_CAP = 4 << 30  # bytes of address space a heavy row's child may map
HEAVY = os.environ.get("DIVBANDS_CORNERS") == "1"

UNDERFLOW = ("gamma * x_max + ln h_lower(gamma) is below ln(DBL_MIN): ROADMAP item 1 "
             "holds the certainty equivalent instead of J, so the gate goes")
TIE = ("tie artifact, not a broken invariant: ROADMAP item 1 compares ties in "
       "payout units")


def exp(beta, gamma, x_max, depth, dist=R):
    return dict(utility="exponential", beta=beta, gamma=gamma, x_max=x_max,
                depth=depth, distribution=dist)


@dataclass(frozen=True)
class Corner:
    name: str
    command: str
    config: dict
    exit: int  # today's exit code
    error: str | None  # today's error class, None on exit 0
    wanted: str | None = None  # why exit 0 is wanted, where today's exit is not 0
    ceiling: tuple[float, float] | None = None  # heavy rows: (CPU s, peak RSS MB)
    skip: str | None = None  # why the row is listed but not run


LIGHT = [
    Corner("defect-b", "solve-exp", exp(0.9, -3.0, 300, 60), 2, "ValueUnderflow",
           UNDERFLOW),
    Corner("gamma-20", "solve-exp", exp(0.9, -20.0, 44, 241), 2, "ValueUnderflow",
           UNDERFLOW),
    Corner("beta-0.995", "solve-exp", exp(0.995, -1.0, 23_586, 5_685), 2,
           "ValueUnderflow", UNDERFLOW),
    Corner("beta-0.99-bands", "bands", exp(0.99, -1.0, 5_794, 2_696), 2,
           "ValueUnderflow", UNDERFLOW),
    Corner("beta-0.99-howard", "howard", exp(0.99, -1.0, 5_794, 2_696), 2,
           "ValueUnderflow", UNDERFLOW),
    Corner("gamma-1000", "solve-exp", exp(0.999, -1000.0, 10, 5), 2, "ValueUnderflow",
           "h_lower(gamma) underflows to 0 in ThetaSchedule.build: "
           "ROADMAP item 1 keeps ln h_lower in logs"),
    Corner("cap-far-solve-exp", "solve-exp", exp(0.9, -1.0, 3_000, 213), 2,
           "ValueUnderflow", UNDERFLOW),
    Corner("cap-far-howard", "howard", exp(0.9, -1.0, 3_000, 213), 2, "ValueUnderflow",
           UNDERFLOW),
    Corner("depth-280-bands", "bands", exp(0.9, -1.0, 138, 280, {-1: 0.25, 2: 0.75}), 3,
           "NotABand", TIE),
    Corner("readme-howard-250", "howard", exp(0.9, -1.0, 44, 250), 3,
           "InvariantViolation",
           "policy iteration's own rule pays again after paying: ROADMAP item 1"),
    Corner("beta-0.99-gamma-0.1-bands-1440", "bands", exp(0.99, -0.1, 5_794, 1_440), 0,
           None),
    Corner("beta-0.99-gamma-0.1-bands-2467", "bands", exp(0.99, -0.1, 5_794, 2_467), 3,
           "NotABand", TIE),
    Corner("rare-ruin-solve-exp", "solve-exp",
           exp(0.9, -1.0, 90, 219, {1: 0.999999, -1: 1e-6}), 0, None),
    Corner("rare-ruin-bands", "bands", exp(0.9, -1.0, 28, 210, {1: 0.999, -1: 0.001}), 0,
           None),
    Corner("wide-solve-exp", "solve-exp", exp(0.9, -0.05, 2_485, 222, WIDE), 0, None),
    Corner("wide-bands", "bands", exp(0.9, -0.05, 2_485, 222, WIDE), 0, None),
    Corner("log-rare-ruin", "solve-log",
           dict(utility="logarithmic", beta=0.9, gamma=0.0, x_max=90, depth=3,
                distribution={1: 0.999, -1: 0.001}, s_grid_points=256), 0, None),
]

HEAVY_ROWS = [
    Corner("beta-0.99-gamma-0.1-solve-exp", "solve-exp", exp(0.99, -0.1, 5_794, 1_440), 0,
           None, ceiling=(60.0, 1_000.0)),
    Corner("beta-0.99-gamma-0.1-howard", "howard", exp(0.99, -0.1, 5_794, 1_440), 0,
           None, ceiling=(400.0, 3_500.0)),
    Corner("wide-power", "solve-power",
           dict(utility="power", beta=0.9, gamma=0.5, x_max=3_150, depth=3,
                distribution=WIDE, s_grid_points=128), 0, None, ceiling=(300.0, 1_000.0)),
    Corner("power-beta-0.99", "solve-power",
           dict(utility="power", beta=0.99, gamma=0.5, x_max=5_940, depth=5,
                distribution=R, s_grid_points=256), 0, None,
           skip="gives no result in 300 s (ROADMAP items 15 and 22)"),
]


def _argv(row: Corner, where: Path) -> list[str]:
    """Write the row's config, its output going under ``where``."""
    path = where / "config.yaml"
    path.write_text(yaml.safe_dump(dict(row.config, output_dir=str(where / "out"))))
    return [row.command, str(path), "--threads", "2"]


def outcome(argv: list[str]) -> tuple[int, str | None]:
    """(exit code, class of the error that ended the run or None) of one
    CLI run in this process."""
    ended = []
    run = cli.run

    def watched(args):
        try:
            return run(args)
        except Exception as exc:
            ended.append(type(exc).__name__)
            raise

    cli.run = watched
    try:
        code = cli.main(argv)
    finally:
        cli.run = run
    return code, (ended or [None])[0]


def child(argv: list[str]) -> None:
    """A heavy row's child: cap its own address space, run, print the outcome."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = CHILD_CAP if hard == resource.RLIM_INFINITY else min(CHILD_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    print(*outcome(argv))


def _run_light(row: Corner) -> tuple[int, str | None]:
    with tempfile.TemporaryDirectory() as where:
        return outcome(_argv(row, Path(where)))


def _row_id(row: Corner) -> str:
    return row.name


@pytest.mark.parametrize("row", LIGHT, ids=_row_id)
def test_corner_outcome(row):
    assert _run_light(row) == (row.exit, row.error)


@pytest.mark.parametrize("row", [
    pytest.param(row, marks=pytest.mark.xfail(strict=True, reason=row.wanted))
    for row in LIGHT if row.wanted], ids=_row_id)
def test_corner_exits_zero(row):
    assert _run_light(row)[0] == 0


@pytest.mark.skipif(not HEAVY, reason="heavy corners run with DIVBANDS_CORNERS=1")
@pytest.mark.parametrize("row", [
    pytest.param(row, marks=pytest.mark.skip(reason=row.skip)) if row.skip else row
    for row in HEAVY_ROWS], ids=_row_id)
def test_heavy_corner_outcome(row):
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import test_corners; "
            "test_corners.child(sys.argv[3:])")
    with tempfile.TemporaryDirectory() as where:
        where = Path(where)
        argv = _argv(row, where)
        with open(where / "stdout", "w") as out, open(where / "stderr", "w") as err:
            proc = subprocess.Popen([sys.executable, "-c", code, src,
                                     str(Path(__file__).parent), *argv],
                                    cwd=where, stdout=out, stderr=err)
            start = time.monotonic()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - start
        printed = (where / "stdout").read_text().split()
        stderr = (where / "stderr").read_text()
    assert proc.returncode == 0, stderr  # the child ran; the CLI's exit code is printed
    assert "Traceback" not in stderr
    assert printed[-2:] == [str(row.exit), str(row.error)], stderr
    seconds, megabytes = row.ceiling
    cpu = usage.ru_utime + usage.ru_stime
    assert cpu < seconds, f"{cpu:.1f} CPU s ({wall:.1f} s wall)"
    assert usage.ru_maxrss / 1024 < megabytes  # ru_maxrss is in KiB on Linux
