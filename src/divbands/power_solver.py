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

where cash is the bare utility (t^gamma or log t) and C = beta EZ+/(1-beta).
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

Each depth is one pass over the actions a = 0..x_max.  For action a,
F_a(u) = E W_{d+1}(u + Z, s + beta^d a) over u = 0..x_max - a reads the
next-depth surplus rows up to x_max - a + z+ only, z+ = max(support_max, 0),
and only those are queried, at the levels s + beta^d a: rows
0..min(x_max, x_max - a + z+) in one call and, while a < z+, the overflow
rows x_max + 1..x_max + z+ - a above the cap in a second.  F_a then raises
the running best of every x = a + u in place.  The policy records the
largest action whose lo continuation lies within relative TIE_RTOL of the
running best: best is updated before the comparison and actions ascend, so
the last action to qualify is the largest that ties the final maximum.

Barrier structure: at any depth and any s, paying nothing is optimal only
below beta EZ+/(1-beta)^2; ``barrier_diagnostics`` re-derives the barriers
from a solved policy and fails loudly if that bound ever breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BarrierViolation, DomainError, ValidationError
from .model import (TIE_RTOL, ProblemConfig, Utility, expect_income, policy_lookup,
                    tail_income)

LATTICE_LIMIT = 50_000  # max exact payout-lattice size merged into the grid

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


def xi_star_bound(config_like) -> float:
    """Uniform bound on the no-payout barrier: beta EZ+ / (1-beta)^2.

    Valid for every depth and every accumulated payout level; the surplus
    cap must sit at or above its ceiling.  Reads fields only, so it is
    safe to call while a ProblemConfig is still being validated.
    """
    beta = config_like.beta
    return beta * config_like.dist.mean_positive / (1.0 - beta) ** 2


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
    if pay_max < 0:
        return None
    size = (pay_max + 1) ** (depth + 1)
    if size > LATTICE_LIMIT:
        return None
    sums = {0.0}
    scale = 1.0
    for _ in range(depth + 1):
        sums = {s + c * scale for s in sums for c in range(pay_max + 1)}
        scale *= beta
    return np.array(sorted(sums))


def _cash(utility: Utility, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
    if utility is Utility.POWER:
        def cash(t):
            return np.power(t, gamma)
    elif utility is Utility.LOGARITHMIC:
        def cash(t):
            with np.errstate(divide="ignore"):
                return np.log(t)
    else:
        raise ValidationError(f"no cash utility for {utility}")
    return cash


def _eval_queries(pts: np.ndarray, row_lo: np.ndarray, row_hi: np.ndarray,
                  q: np.ndarray, env_x, b_env: float, c_tail: float,
                  cash) -> tuple[np.ndarray, np.ndarray]:
    """Certified bracket of W(row surplus, q) for off-grid query points q.

    The lower bound is the best of the left neighbor, the right neighbor
    minus the concave increment cash(s_right) - cash(q), and the pay-all
    envelope; the upper bound mirrors that from above.  A missing
    candidate (no right neighbor past the last gridpoint, -inf - (-inf) in
    a log row at s = 0) is NaN, skipped by ``np.fmax``/``np.fmin``.  Exact
    grid hits pass the stored bracket through.  ``env_x`` and ``b_env`` are
    the surplus and beta^depth of the row being evaluated.  The rows may
    be one row with any shape of q, or a block of rows (surplus on the
    leading axis, ``env_x`` a column) queried at one 1-D q.
    """
    m = len(pts)
    idx = np.searchsorted(pts, q)
    right = np.minimum(idx, m - 1)
    exact = pts[right] == q
    left = np.maximum(idx - 1, 0)
    # subtracted, not added, so that -0.0 stays -0.0 where the neighbor exists
    no_right = np.where(idx < m, 0.0, np.nan)
    cash_q = cash(q)
    env_lo = cash(q + b_env * env_x)
    env_hi = cash(q + b_env * (env_x + c_tail))
    with np.errstate(invalid="ignore"):
        lo_r = row_lo[..., right] - no_right - (cash(pts[right]) - cash_q)
        lo = np.fmax(np.fmax(row_lo[..., left], lo_r), env_lo)
        hi_l = row_hi[..., left] + (cash_q - cash(pts[left]))
        hi = np.fmin(np.fmin(row_hi[..., right] - no_right, hi_l), env_hi)

    if exact.any():
        lo = np.where(exact, row_lo[..., right], lo)
        hi = np.where(exact, row_hi[..., right], hi)
    return lo, hi


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
        """Certified bracket of W_d(x, s) at any payout level s >= 0."""
        if not s >= 0:
            raise DomainError(f"accumulated payout must be >= 0, got {s}")
        cash = _cash(self.config.utility, self.config.gamma)
        beta, cap = self.config.beta, self.config.x_max
        if x > cap:  # pay the overflow now, priced at this depth
            s = s + beta ** d * (x - cap)
            x = cap
        q = np.array([float(s)])
        if x < 0:
            v = float(cash(q)[0])
            return v, v
        lo, hi = _eval_queries(self.grid.points, self.lo[d, x], self.hi[d, x],
                               q, x, beta ** d,
                               tail_income(self.config.dist, beta), cash)
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


def _solve(config: ProblemConfig) -> tuple[PowerValueTable, PowerPolicy]:
    cash = _cash(config.utility, config.gamma)
    grid = SGrid.build(config)
    pts = grid.points
    m = len(pts)
    n_depth, x_max, beta, dist = config.depth, config.x_max, config.beta, config.dist
    c_tail = tail_income(dist, beta)
    xs = np.arange(x_max + 1)[:, None]
    z_plus = max(dist.support_max, 0)
    overflow = np.arange(1, z_plus + 1)[:, None]
    no_overflow = np.empty((0, m))

    lo = np.full((n_depth + 1, x_max + 1, m), -np.inf)
    hi = np.full((n_depth + 1, x_max + 1, m), -np.inf)
    b_last = beta ** n_depth
    lo[n_depth] = cash(pts + b_last * xs)
    hi[n_depth] = cash(pts + b_last * (xs + c_tail))
    action = np.zeros((n_depth, x_max + 1, m), dtype=np.int64)

    for d in range(n_depth - 1, -1, -1):
        bd, bnext = beta ** d, beta ** (d + 1)
        next_lo, next_hi = lo[d + 1], hi[d + 1]
        best_lo, best_hi, act = lo[d], hi[d], action[d]
        for a in range(x_max + 1):
            n_u = x_max + 1 - a  # x = a + u reads rows u + Z < n_u + z_plus only
            top = min(n_u + z_plus, x_max + 1)
            q = pts + bd * a
            rows_lo, rows_hi = _eval_queries(pts, next_lo[:top], next_hi[:top], q,
                                             xs[:top], bnext, c_tail, cash)
            over_lo = over_hi = no_overflow
            if a < z_plus:  # overflow o = 1..z_plus - a: pay o now at next-step rate
                over_lo, over_hi = _eval_queries(pts, next_lo[x_max], next_hi[x_max],
                                                 q + bnext * overflow[:z_plus - a],
                                                 x_max, bnext, c_tail, cash)
            ruin = cash(q)
            f_lo = expect_income(dist, ruin, rows_lo, over_lo, n_u)
            f_hi = expect_income(dist, ruin, rows_hi, over_hi, n_u)
            np.maximum(best_lo[a:], f_lo, out=best_lo[a:])
            np.maximum(best_hi[a:], f_hi, out=best_hi[a:])
            act[a:][f_lo >= best_lo[a:] - TIE_RTOL * np.abs(best_lo[a:])] = a

    return (PowerValueTable(config=config, grid=grid, lo=lo, hi=hi),
            PowerPolicy(config=config, grid=grid, action=action))


def solve_power(config: ProblemConfig) -> tuple[PowerValueTable, PowerPolicy]:
    """Backward induction for the power utility; headline is W_0(x, 0)."""
    if config.utility is not Utility.POWER:
        raise ValidationError("solve_power requires the power utility")
    return _solve(config)


def solve_log(config: ProblemConfig) -> tuple[PowerValueTable, PowerPolicy]:
    """Same recursion with log wealth; headline is W_0(x, y0), y0 > 0.

    The table does not depend on y0, which enters as the depth-0 payout
    level of ``value_bracket``; the value of zero wealth is -inf, so a finite
    answer needs a positive starting wealth (``model.check_y0``).
    """
    if config.utility is not Utility.LOGARITHMIC:
        raise ValidationError("solve_log requires the logarithmic utility")
    return _solve(config)


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
