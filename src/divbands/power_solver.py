"""Power- and log-utility dividend solvers on accumulated-dividend grids.

The natural recursion for wealth-based utilities carries the running
discounted payout along with the surplus.  Instead of the exploding
current-time wealth coordinate, the tables here use

    s = sum of beta^m * a_m paid so far,

which stays inside [0, s_max], so one fixed grid serves every depth.
``W_d(x, s)`` is the best expected utility of s plus everything paid from
depth d on, with the infinite tail closed at depth N by the rigorous
envelope

    cash(s + beta^N x)  <=  W_N(x, s)  <=  cash(s + beta^N (x + C)),

where cash is ``model.cash``, the bare utility t^gamma or log t, and
C = beta EZ+/(1-beta).  ``_closure`` is the one place that credits a
surplus with x (below) and x + C (above): the depth-N rows, the pay-all
envelopes of every backup and ``value_bracket`` all read it.
Ruined states are worth exactly cash(s) at any depth.

Off-grid evaluations never assume smoothness that is not proven: a query
between gridpoints is bracketed by the lower neighbor (monotonicity), the
upper neighbor corrected by the concave increment cash(b) - cash(a) (a
modulus valid for the true value), and the envelope above, taking the best
of each side; a missing candidate is NaN and the best of the rest is
taken.  Queries that hit a gridpoint exactly, which is every reachable
point when beta is dyadic and the lattice is in the grid, pass through
untouched; on such grids the lo channel is the exact value of the
(N+1)-step problem and the policy invariants below hold with equality.

The lo and hi tables are two independent backward inductions: lo[d]
reads only lo[d+1], hi[d] only hi[d+1], and the rule, a choice among the
lo continuations, reads lo only.  ``workers`` > 1 therefore inducts hi in
one forked child, writing into a shared mapping, while the caller inducts
lo and the rule (``parallel.fork_parts``), once the solve's work reaches
``SPLIT_WORK``; one process does both when it is 1 or the solve is
smaller.  Either way each side starts by resetting the rows it owns, so
a side whose child failed is re-run cleanly by the caller.

Each depth is one pass over the actions a = 0..x_max.  For action a,
F_a(u) = E W_{d+1}(u + Z, s + beta^d a) over u = 0..x_max - a reads the
next-depth surplus rows up to x_max - a + z+ only, z+ = max(support_max, 0),
and only those are queried, at the levels s + beta^d a: rows
0..min(x_max, x_max - a + z+) in one call and, while a < z+, the overflow
rows x_max + 1..x_max + z+ - a above the cap in a second (a = 0 queries
the gridpoints themselves, so its rows are read as stored).  Where the
queries sit on the grid (``_Queries``) is found once per action and read
by the lower and the upper rule of whichever sides this process owns;
cash at the gridpoints is formed once per solve.  On a grid the payout
lattice was not merged into, the row queries of an action a > 0 are
normally one shift of the knots, each k gridpoints up or past the last,
and the rules then read their neighbors as slices of the next-step rows
and of that cash.
Queries that hit a gridpoint (dyadic beta, lattice merged), the 2-D
overflow rows and ``value_bracket``'s single query gather by index.
F_a then raises the running best of every x = a + u in place.  The policy records the
largest action whose lo continuation lies within relative TIE_RTOL of the
running best: best is updated before the comparison and actions ascend, so
the last action to qualify is the largest that ties the final maximum.

Barrier structure: at any depth and any s, paying nothing is optimal only
below beta EZ+/(1-beta)^2; ``barrier_diagnostics`` re-derives the barriers
from a solved policy and fails loudly if that bound ever breaks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BarrierViolation, DomainError, ValidationError
from .model import (TIE_RTOL, ProblemConfig, Utility, cash, expect_income, policy_lookup,
                    tail_income, xi_star_bound)
from .parallel import fork_parts, shared_arrays, split_runs

LATTICE_LIMIT = 50_000  # max exact payout-lattice size merged into the grid

# Smallest solve, in depth x (x_max+1)^2 x gridpoints, whose upper table
# is inducted in a forked child.  The fork, the shared mapping and the
# reap cost about 4 ms on a 2-vCPU Xeon VM.  Timed there at workers 1 and
# 2 (medians of 15-21 alternating runs), solves of 10k-43k took 3-6 ms
# alone and 8-11 ms split, ones of 0.35M-0.55M still lost 1-4 ms, and
# from about 0.65M on the split gained (3 ms at 0.65M-0.8M, 39 ms on the
# 4.6M seed-0 log solve).
SPLIT_WORK = 500_000

__all__ = [
    "SGrid",
    "PowerValueTable",
    "PowerPolicy",
    "BarrierReport",
    "xi_star_bound",
    "solve_power",
    "solve_log",
    "barrier_diagnostics",
]


@dataclass(frozen=True)
class SGrid:
    """Sorted accumulated-payout levels covering [0, s_max].

    s_max = (x_max + max(support_max, 0))/(1-beta) is the last point.
    Uniform with ``s_grid_points`` knots, merged with the exact payout
    lattice {sum c_m beta^m : 0 <= c_m <= x_max + support_max} whenever
    that lattice is small enough to enumerate; lattice membership makes
    dyadic-beta queries hit gridpoints exactly.
    """

    points: np.ndarray

    def __post_init__(self):
        if len(self.points) == 0 or self.points[0] != 0.0:
            raise ValidationError("s-grid must start at 0")
        if np.any(np.diff(self.points) <= 0):
            raise ValidationError("s-grid points must be strictly increasing")

    @classmethod
    def build(cls, config: ProblemConfig) -> "SGrid":
        pay_max = config.x_max + max(config.dist.support_max, 0)
        points = np.linspace(0.0, pay_max / (1.0 - config.beta), config.s_grid_points)
        lattice = _payout_lattice(config.beta, config.depth, pay_max)
        if lattice is not None:
            points = np.concatenate([points, lattice])
        return cls(points=np.unique(points))

    def floor_index(self, s):
        """Index of the closest gridpoint at or below s (scalar or array)."""
        return np.maximum(np.searchsorted(self.points, s, side="right") - 1, 0)


def _payout_lattice(beta: float, depth: int, pay_max: int) -> np.ndarray | None:
    if pay_max == 0:
        return np.array([0.0])
    # with pay_max >= 1 the size is at least 2^(depth+1): a deep lattice is
    # refused without forming a power that a huge depth could not finish
    if depth + 1 >= LATTICE_LIMIT.bit_length() or (pay_max + 1) ** (depth + 1) > LATTICE_LIMIT:
        return None
    sums = {0.0}
    scale = 1.0
    for _ in range(depth + 1):
        sums = {s + c * scale for s in sums for c in range(pay_max + 1)}
        scale *= beta
    return np.array(sorted(sums))


class _Queries:
    """Where the query points q sit on the s-grid, for both one-sided rules.

    ``cash_pts`` is cash at every gridpoint, which a solve forms once and
    passes to every action (priced here when not given), and ``cash_q``
    the worth of q itself.  A row of queries as long as the grid
    that is one shift of it, q[j] strictly between gridpoints j + k - 1 and
    j + k for j < M - k and past the last gridpoint for the rest (k >= 1),
    sets ``shift`` to k; the rules then read the neighbors and their cash
    as slices, and no index is formed.  Otherwise ``shift`` is None,
    ``right`` is the first gridpoint at or above q (clamped to the last),
    ``left`` the one before it, ``exact`` the queries that hit ``right``,
    and ``no_right`` NaN where q lies past the last gridpoint and 0.0
    elsewhere; the rules gather by these indices and take ``right``'s row
    where a query is exact.
    """

    __slots__ = ("q", "cash_pts", "cash_q", "shift", "right", "left", "exact", "no_right")

    def __init__(self, pts: np.ndarray, q: np.ndarray, cash, cash_pts: np.ndarray | None = None):
        m = len(pts)
        self.q, self.cash_q = q, cash(q)
        self.cash_pts = cash(pts) if cash_pts is None else cash_pts
        self.shift = _grid_shift(pts, q)
        if self.shift is not None:
            return
        idx = np.searchsorted(pts, q)
        self.right = np.minimum(idx, m - 1)
        self.exact = pts[self.right] == q
        self.left = np.maximum(idx - 1, 0)
        # subtracted, not added, so that -0.0 stays -0.0 where the neighbor exists
        self.no_right = np.where(idx < m, 0.0, np.nan)


def _grid_shift(pts: np.ndarray, q: np.ndarray) -> int | None:
    """The k >= 1 with searchsorted(pts, q) = min(j + k, M) at every query j
    and no query on a gridpoint, when q is one row as long as the grid;
    else None.  Three slice comparisons check it without the search:
    pts[j + k - 1] < q[j] < pts[j + k] below M - k, q[j] > pts[M - 1] from it.
    """
    m = len(pts)
    if q.shape != pts.shape:
        return None
    k = int(np.searchsorted(pts, q[0]))
    head = q[:m - k]
    if (k >= 1 and (pts[k - 1:m - 1] < head).all() and (head < pts[k:]).all()
            and (q[m - k:] > pts[m - 1]).all()):
        return k
    return None


def _lower(at: _Queries, rows: np.ndarray, env: np.ndarray) -> np.ndarray:
    """Lower bracket of the rows at the queries: the best of the left
    neighbor, the right neighbor minus the concave increment
    cash(s_right) - cash(q), and the pay-all lower envelope ``env``, which
    has the bracket's shape.

    On a shift k the left neighbors are copied from ``rows[..., k - 1:]``,
    with the last gridpoint repeated for the k queries past the grid, and
    the right ones computed from ``rows[..., k:]``, NaN past the grid.
    """
    with np.errstate(invalid="ignore"):
        if at.shift is not None:
            # full-width operands, laid out as the gathers lay them: fmax and
            # fmin settle a tie of -0.0 and 0.0 by where it sits in the array
            # (numpy's vector loop or its scalar remainder), so taking the best
            # over the slices themselves could flip the sign of a tied zero
            k, n = at.shift, rows.shape[-1] - at.shift
            left, lo_r = np.empty(rows.shape), np.empty(rows.shape)
            left[..., :n], left[..., n:] = rows[..., k - 1:-1], rows[..., -1:]
            np.subtract(rows[..., k:], at.cash_pts[k:] - at.cash_q[:n], out=lo_r[..., :n])
            lo_r[..., n:] = np.nan
        else:
            left = rows[..., at.left]
            lo_r = rows[..., at.right] - at.no_right - (at.cash_pts[at.right] - at.cash_q)
        # into the first operand, a fresh array on either path: two fewer
        # temporaries per action made each side's seed-0 induction 5-10%
        # faster on a 2-vCPU Xeon VM
        lo = np.fmax(np.fmax(left, lo_r, out=left), env, out=left)
    return lo if at.shift is not None else np.where(at.exact, rows[..., at.right], lo)


def _upper(at: _Queries, rows: np.ndarray, env: np.ndarray) -> np.ndarray:
    """Upper bracket of the rows at the queries: the best of the right
    neighbor, the left neighbor plus cash(q) - cash(s_left), and the
    pay-all upper envelope ``env``, which has the bracket's shape.

    On a shift k the right neighbors are copied from ``rows[..., k:]``,
    NaN past the grid, and the left ones computed from ``rows[..., k - 1:]``,
    the last gridpoint's for the k queries past the grid.
    """
    with np.errstate(invalid="ignore"):
        if at.shift is not None:
            k, n = at.shift, rows.shape[-1] - at.shift
            right, hi_l = np.empty(rows.shape), np.empty(rows.shape)
            right[..., :n], right[..., n:] = rows[..., k:], np.nan
            np.add(rows[..., k - 1:-1], at.cash_q[:n] - at.cash_pts[k - 1:-1], out=hi_l[..., :n])
            np.add(rows[..., -1:], at.cash_q[n:] - at.cash_pts[-1], out=hi_l[..., n:])
        else:
            right = rows[..., at.right] - at.no_right
            hi_l = rows[..., at.left] + (at.cash_q - at.cash_pts[at.left])
        hi = np.fmin(np.fmin(right, hi_l, out=right), env, out=right)  # as in _lower
    return hi if at.shift is not None else np.where(at.exact, rows[..., at.right], hi)


def _closure(config: ProblemConfig, x):
    """The wealth the pay-all closure credits surplus x with, (below, above):
    x when all of it is paid now, x + C when the future pays C more."""
    return x + 0.0, x + tail_income(config.dist, config.beta)


@dataclass(frozen=True)
class PowerValueTable:
    """Brackets of W_d(x, s) over (depth, surplus, gridpoint).

    Arrays have shape (N+1, x_max+1, M), indexed by surplus x.  A ruined
    state is worth cash(s) exactly at every depth and is not stored.
    """

    config: ProblemConfig
    grid: SGrid
    lo: np.ndarray
    hi: np.ndarray

    def value_bracket(self, d: int, x: int, s: float) -> tuple[float, float]:
        """Certified bracket of W_d(x, s) at any payout level s >= 0.

        An off-grid s is bracketed by the solve's own one-sided rules and
        pay-all closure (``_lower``, ``_upper``, ``_closure``).
        """
        if not s >= 0:
            raise DomainError(f"accumulated payout must be >= 0, got {s}")
        worth = functools.partial(cash, self.config.utility, self.config.gamma)
        beta, cap = self.config.beta, self.config.x_max
        if x > cap:  # pay the overflow now, priced at this depth
            s = s + beta ** d * (x - cap)
            x = cap
        at = _Queries(self.grid.points, np.array([float(s)]), worth)
        if x < 0:
            v = float(at.cash_q[0])
            return v, v
        below, above = _closure(self.config, x)
        lo = _lower(at, self.lo[d, x], worth(at.q + beta ** d * below))
        hi = _upper(at, self.hi[d, x], worth(at.q + beta ** d * above))
        return float(lo[0]), float(hi[0])


@dataclass(frozen=True)
class PowerPolicy:
    """Largest-maximiser actions over (depth, surplus, gridpoint).

    Called as policy(t, x, s), it is the rule of the policy protocol.
    """

    config: ProblemConfig
    grid: SGrid
    action: np.ndarray

    def __call__(self, t: int, x, s):
        """Actions at step t for surplus x >= 0 and payout level s.

        x and s are ints, floats or arrays that broadcast together.  The
        overflow above the cap raises s by beta^t per unit paid, and s is
        floored to the grid.  A payout level below 0 (or NaN) raises
        DomainError.
        """
        s = np.asarray(s, dtype=float)
        if not np.all(s >= 0):
            raise DomainError(f"accumulated payout must be >= 0, got {np.min(s)}")
        row, extra, kept = policy_lookup(self.action, t, x, self.config.x_max)
        q = s + self.config.beta ** t * extra
        return extra + row[kept, self.grid.floor_index(q)]


def _solve(config: ProblemConfig, workers: int = 1) -> tuple[PowerValueTable, PowerPolicy]:
    worth = functools.partial(cash, config.utility, config.gamma)
    grid = SGrid.build(config)
    pts = grid.points
    cash_pts = worth(pts)
    m = len(pts)
    n_depth, x_max, beta, dist = config.depth, config.x_max, config.beta, config.dist
    z_plus = dist.margins[1]
    overflow = np.arange(1, z_plus + 1)[:, None]
    no_overflow = np.empty((0, m))
    b_last = beta ** n_depth

    shape = (n_depth + 1, x_max + 1, m)
    lo = np.empty(shape)
    action = np.empty((n_depth, x_max + 1, m), dtype=np.int64)
    work = n_depth * (x_max + 1) ** 2 * m
    runs = split_runs(workers if work >= SPLIT_WORK else 1, ("lo", "hi"))
    # a child's hi reaches this process only through a shared mapping; in
    # one process the table stays private, which numpy asks huge pages for
    # and a shared mapping may not get (a serial solve once ran 10% slower
    # shared).  At M 1024, depth 20 on a 2-vCPU Xeon VM whose shmem gets no
    # huge pages, shared took 4% more page faults (38.3k against 36.7k) but
    # no measurable time (private faster in 7 of 16 fresh-process pairs)
    if len(runs) > 1:
        [hi] = shared_arrays(((shape, np.float64),), f"the upper table {shape}")
    else:
        hi = np.empty(shape)
    # a channel: its table, its one-sided rule, and the wealth its pay-all
    # envelope credits each surplus row with
    below, above = _closure(config, np.arange(x_max + 1)[:, None])
    channels = {"lo": (lo, _lower, below), "hi": (hi, _upper, above)}

    def induct(sides) -> None:
        """Backward induction of the channels named in ``sides``, from a clean start."""
        owned = [channels[side] for side in sides]
        for table, _, env_x in owned:
            table[:n_depth] = -np.inf
            table[n_depth] = worth(pts + b_last * env_x)
            if table is lo:
                action[...] = 0
        for d in range(n_depth - 1, -1, -1):
            bd, bnext = beta ** d, beta ** (d + 1)
            for a in range(x_max + 1):
                n_u = x_max + 1 - a  # x = a + u reads rows u + Z < n_u + z_plus only
                top = min(n_u + z_plus, x_max + 1)
                q = pts + bd * a
                # a = 0: q is the grid itself, every query an exact hit, so its
                # rows pass through untouched; bracketing them anyway made the
                # seed-0 power+log serial solves 5-8% slower on a 2-vCPU Xeon
                # VM (lost 19 and 21 of two runs of 30 in-process rounds)
                at_rows = _Queries(pts, q, worth, cash_pts) if a > 0 else None
                at_over = None
                if a < z_plus:  # overflow o = 1..z_plus - a: pay o now at next-step rate
                    at_over = _Queries(pts, q + bnext * overflow[:z_plus - a], worth,
                                       cash_pts)
                ruin = worth(q) if at_rows is None else at_rows.cash_q
                # every owned side's envelope is formed before either rule
                # runs: one side at a time, glibc trimmed and re-faulted the
                # heap each action (a fresh serial solve at M 1024, depth 20
                # took 160k page faults against 26k, and 10% longer)
                envs = [None if at_rows is None else worth(q + bnext * env_x[:top])
                        for _, _, env_x in owned]
                for (table, rule, env_x), env in zip(owned, envs):
                    nxt = table[d + 1]
                    rows, over = nxt[:top], no_overflow
                    if at_rows is not None:
                        rows = rule(at_rows, rows, env)
                    if at_over is not None:
                        over = rule(at_over, nxt[x_max], worth(at_over.q + bnext * env_x[x_max]))
                    f = expect_income(dist, ruin, rows, over, n_u)
                    best = table[d, a:]
                    np.maximum(best, f, out=best)
                    if table is lo:
                        action[d, a:][f >= best - TIE_RTOL * np.abs(best)] = a

    fork_parts(len(runs), lambda i: induct(runs[i]))
    return (PowerValueTable(config=config, grid=grid, lo=lo, hi=hi),
            PowerPolicy(config=config, grid=grid, action=action))


def solve_power(config: ProblemConfig, workers: int = 1
                ) -> tuple[PowerValueTable, PowerPolicy]:
    """Backward induction for the power utility; headline is W_0(x, 0).

    ``workers`` > 1 inducts the upper table in a forked child while this
    process inducts the lower table and the rule, when the solve is at
    least ``SPLIT_WORK``; the result is the same bytes for every value.
    """
    if config.utility is not Utility.POWER:
        raise ValidationError("solve_power requires the power utility")
    return _solve(config, workers)


def solve_log(config: ProblemConfig, workers: int = 1
              ) -> tuple[PowerValueTable, PowerPolicy]:
    """Same recursion with log wealth; headline is W_0(x, y0), y0 > 0.

    The table does not depend on y0, which enters as the depth-0 payout
    level of ``value_bracket``; the value of zero wealth is -inf, so a finite
    answer needs a positive starting wealth (``model.check_y0``).
    ``workers`` splits the two tables as in ``solve_power``.
    """
    if config.utility is not Utility.LOGARITHMIC:
        raise ValidationError("solve_log requires the logarithmic utility")
    return _solve(config, workers)


@dataclass(frozen=True)
class BarrierReport:
    """Barriers recovered from a solved policy, checked against the bound."""

    bound: float
    xi: np.ndarray  # (depth, gridpoint): largest x paying nothing
    shift_pairs_checked: int


def barrier_diagnostics(policy: PowerPolicy) -> BarrierReport:
    """Recover xi(d, s) and enforce the structural policy laws.

    Checks, raising BarrierViolation on failure:
    * xi(d, s) <= beta EZ+/(1-beta)^2 everywhere;
    * on gridpoint pairs with s' = s - beta^d exact, a positive action at
      (x+1, s') must exceed the action at (x, s) by exactly 1.

    The band-shift law is only checked where such exact pairs exist, which
    takes a dyadic beta with the payout lattice in the grid.  Otherwise,
    as at beta = 0.9 on a uniform grid, ``shift_pairs_checked`` is 0 and
    only the barrier bound is enforced.
    """
    bound = xi_star_bound(policy.config)
    acts = policy.action
    n_depth, nx, m = acts.shape
    xs = np.arange(nx)[:, None]
    xi = np.where(acts == 0, xs, 0).max(axis=1)
    worst = int(xi.max())
    if worst > bound + 1e-9:
        d, j = np.argwhere(xi == worst)[0]
        raise BarrierViolation(
            f"no-payout barrier {worst} at depth {d}, s={policy.grid.points[j]:.6g} "
            f"exceeds bound {bound:.6g}")

    pts = policy.grid.points
    checked = 0
    for d in range(n_depth):
        shift = policy.config.beta ** d
        target = pts - shift
        idx = np.searchsorted(pts, target)
        idx_c = np.minimum(idx, m - 1)
        match = (target >= 0) & (pts[idx_c] == target)
        cols = np.nonzero(match)[0]
        a0 = acts[d, :-1, cols]  # (pair, x): f(x, s)
        a1 = acts[d, 1:, idx_c[cols]]  # f(x+1, s - beta^d)
        broken = (a1 > 0) & (a1 != a0 + 1)
        if broken.any():
            k, x = divmod(int(np.argmax(broken)), nx - 1)
            raise BarrierViolation(
                f"band shift broken at depth {d}, x={x}, "
                f"s={pts[cols[k]]:.6g}: f(x,s)={a0[k, x]} but f(x+1,s-b^d)={a1[k, x]}")
        checked += broken.size
    return BarrierReport(bound=bound, xi=xi, shift_pairs_checked=checked)
