"""Exponential-utility dividend solver with certified value brackets.

For gamma < 0 the objective splits multiplicatively, so the problem is
solved on the extended state (x, theta) where theta runs down the
deterministic orbit theta_n = gamma * beta^n.  The solver computes

    J(x, theta) = min over a in {0..x} of
        e^{theta a} * [ sum_k J(x - a + k, theta*beta) q_k,
                        ruin mass contributing 1 ],

working backward from depth N, where the unknown continuation is replaced
by the rigorous envelope

    e^{theta x} * h_lower(theta)  <=  J(x, theta)  <=  e^{theta x} * h_upper(theta).

The envelope enters through one-sided certified bounds, a lower bound of
h_lower and an upper bound of h_upper (``ThetaSchedule``), so every table
entry is a certified enclosure of the true value.  The optimal
expected utility is (1/gamma) * J(x, gamma), and the depth-n decision rule
is the largest minimiser of the lo-evaluation within relative TIE_RTOL =
1e-12, found for a whole depth by one prefix-minimum scan (``exp_backup``).

A state above the surplus cap is priced by paying the overflow at once:
J(x', theta) = e^{theta (x' - x_max)} J(x_max, theta).  This is exact, not
an approximation, whenever x_max is at least the barrier bound s*; config
construction enforces that.

The module also houses the band-function parser (the structural form every
optimal rule must take) and the risk-neutral value-iteration baseline that
the gamma -> 0 limit is checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MaxIterations, NotABand, ValidationError, ValueUnderflow
from .model import (LOG_DBL_MIN, TIE_RTOL, IncomeDistribution, ProblemConfig, Utility,
                    expect_income, policy_lookup, tail_income)

NEUTRAL_MAX_ITERATIONS = 1_000_000  # value-iteration cap of solve_neutral

__all__ = [
    "ThetaSchedule",
    "ExpValueTable",
    "ExpPolicy",
    "BandFunction",
    "NeutralSolution",
    "mgf_plus",
    "required_cap",
    "suggest_depth",
    "exp_backup",
    "neutral_backup",
    "solve_exp",
    "extract_bands",
    "solve_neutral",
]


def mgf_plus(dist: IncomeDistribution, t: float) -> float:
    """E exp(t * Z+) for t <= 0; always in (0, 1]."""
    if t > 0:
        raise ValidationError(f"mgf_plus needs t <= 0, got {t}")
    return sum(q * math.exp(t * max(k, 0)) for k, q in dist.items())


@dataclass(frozen=True)
class ThetaSchedule:
    """The orbit theta_n = gamma beta^n with its certified envelope bounds.

    ``h_lower[n]`` is a lower bound of h_lower(theta_n) and ``h_upper[n]``
    an upper bound of h_upper(theta_n), from the exact one-step recursions

        h_lower(theta_n) = mgf_plus(theta_{n+1}) * h_lower(theta_{n+1}),
        h_upper(theta_n) = p_neg + (sum_{m>=0} q_m e^{theta_{n+1} m}) * h_upper(theta_{n+1}),

    followed down the orbit below theta_N until the Jensen floor
    e^{theta beta EZ+/(1-beta)} <= h_lower(theta) <= h_upper(theta) <= 1
    pins the remainder: h_lower is closed there by the floor, h_upper by 1.
    ``s_star`` is a conservative upper bound of the barrier bound s(theta_n)
    over the schedule.
    """

    thetas: tuple[float, ...]
    h_lower: tuple[float, ...]
    h_upper: tuple[float, ...]
    s_star: float
    # like s_star but with numerator -ln h_lower alone: the payout pressure
    # bound that holds for improvement steps from any admissible rule, not
    # only for the optimal rule (upper envelope unavailable there)
    s_tilde_star: float

    @classmethod
    def build(cls, config) -> "ThetaSchedule":
        """Schedule of a ProblemConfig, or of any object with its fields."""
        dist, beta, gamma = config.dist, config.beta, config.gamma
        n_depth, tail_eps = config.depth, config.tail_eps
        thetas = [gamma]
        for _ in range(n_depth):
            thetas.append(thetas[-1] * beta)
        theta_last = thetas[-1]
        if theta_last >= 0:
            deepest = sum(t < 0 for t in thetas) - 1  # gamma < 0, so thetas[0] counts
            raise ValidationError(
                f"depth {n_depth} is too deep for gamma={gamma}, beta={beta}: "
                f"theta_n = gamma * beta^n underflows to {theta_last} by then; the "
                f"largest depth whose theta_n is still below 0 is {deepest}")

        scale = dist.mean_positive / (1.0 - beta)
        p_neg = dist.p_negative

        # the orbit below theta_N, theta_N beta^k for k = 1..K, until the
        # Jensen floor exp(theta_N beta^{K+1} EZ+/(1-beta)) of the rest is
        # within tail_eps of 1, relative to |theta_N| when that is below 1
        # (which keeps the s(theta) estimate bounded as theta -> 0-)
        target = tail_eps * min(1.0, abs(theta_last))
        below = []
        bk = beta  # beta^k for the next level
        while scale > 0 and -theta_last * bk * scale > target and len(below) < 200_000:
            below.append(theta_last * bk)
            bk *= beta

        def c_factor(theta_next: float) -> float:
            return sum(q * math.exp(theta_next * k) for k, q in dist.items() if k >= 0)

        lower = math.prod(mgf_plus(dist, t) for t in below) * math.exp(theta_last * bk * scale)
        upper = 1.0
        for t in reversed(below):
            upper = p_neg + c_factor(t) * upper
        h_lower, h_upper = [lower], [min(1.0, upper)]
        for t in reversed(thetas[1:]):
            h_lower.append(mgf_plus(dist, t) * h_lower[-1])
            h_upper.append(min(1.0, p_neg + c_factor(t) * h_upper[-1]))
        h_lower.reverse()
        h_upper.reverse()
        if not h_lower[0] > 0.0:
            raise ValueUnderflow(
                f"h_lower(gamma) underflows to 0 for gamma={gamma}, beta={beta}: "
                f"its logarithm is below ln(DBL_MIN) = {LOG_DBL_MIN:.1f}, so "
                f"values would underflow double precision")

        # h_upper <= 1 and the Jensen floor give s(theta) <= beta EZ+/(1-beta)^2
        # for every theta < 0; deep in the schedule the log-ratio drowns in
        # accumulated rounding, so such levels take that provable bound
        # instead of a 0/0 artifact
        s_cap = beta * scale / (1.0 - beta)
        noise_floor = 16.0 * math.ulp(1.0) * (n_depth + len(below) + 1)
        s_star = s_tilde_star = 0.0
        for theta, lo, up in zip(thetas, h_lower, h_upper):
            den = theta * (beta - 1.0)
            num = math.log(up) - math.log(lo)
            if abs(theta) < 1e-8 and num < noise_floor:
                s, s_tilde = s_cap, s_cap
            else:
                s = max(0.0, min(num / den, s_cap))
                s_tilde = max(0.0, min(-math.log(lo) / den, s_cap))
            s_star, s_tilde_star = max(s_star, s), max(s_tilde_star, s_tilde)
        return cls(thetas=tuple(thetas), h_lower=tuple(h_lower),
                   h_upper=tuple(h_upper), s_star=s_star,
                   s_tilde_star=s_tilde_star)

    @property
    def cap(self) -> int:
        """Smallest admissible x_max: ceil of the s* over-estimate."""
        return math.ceil(self.s_star - 1e-12)


def required_cap(config: ProblemConfig) -> int:
    """Smallest admissible x_max: ceil of the s* over-estimate."""
    return ThetaSchedule.build(config).cap


def suggest_depth(config_like) -> int:
    """Depth putting the a-priori depth-0 bracket width near tail_eps.

    The terminal bracket has width of order |theta_N| * (x_max + tail
    income scale); backups never widen it.  Accepts a ProblemConfig, or
    any object with its fields.
    """
    scale = config_like.x_max + 1.0 + tail_income(config_like.dist, config_like.beta)
    n = math.log(config_like.tail_eps / (abs(config_like.gamma) * scale)) / math.log(config_like.beta)
    return max(1, math.ceil(n))


# ---------------------------------------------------------------------------
# backward induction


def exp_backup(theta: float, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min over a in {0..x} of e^{theta a} G(x-a) for every x, both channels.

    ``g`` holds G's lo and hi rows as its two columns, indexed by surplus
    v = x - a; returns (best, action), best shaped like g.  The value is
    e^{theta x} PM(x), PM the prefix minimum of H(v) = e^{-theta v} G(v),
    one scan for both columns.  The action is the largest lo-minimiser
    x - v*, v* the smallest v with PM(v) <= PM(x) * (1 + TIE_RTOL) in
    column 0 alone; PM does not increase, so one searchsorted finds every v*.
    """
    v = np.arange(len(g))
    pm = np.minimum.accumulate(np.exp(-theta * v)[:, None] * g, axis=0)
    v_star = np.searchsorted(-pm[:, 0], -pm[:, 0] * (1.0 + TIE_RTOL))
    return np.exp(theta * v)[:, None] * pm, v - v_star


def neutral_backup(bg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max over a in {0..x} of a + bg(x-a) for every x (bg = beta * G).

    The value is x + PM(x), PM the prefix maximum of bg(v) - v; the action
    is the largest maximiser x - v*, v* the smallest v whose PM(v) lies
    within relative TIE_RTOL of the value.
    """
    v = np.arange(bg.size)
    pm = np.maximum.accumulate(bg - v)
    values = v + pm
    return values, v - np.searchsorted(pm, pm - TIE_RTOL * np.abs(values))


@dataclass(frozen=True)
class ExpValueTable:
    """Certified brackets lo <= J <= hi over (depth n, surplus x).

    Arrays have shape (N+1, x_max+1), indexed by surplus x; ``_induct``
    fills them as views of its one lo/hi array.  A ruined state is worth
    exactly 1 and is not stored.
    """

    config: ProblemConfig
    lo: np.ndarray
    hi: np.ndarray

    def value_bracket(self, n: int, x: int) -> tuple[float, float]:
        """(lo, hi) bracket of J(x, theta_n), extending beyond the cap exactly."""
        if x < 0:
            return 1.0, 1.0
        cap = self.config.x_max
        if x <= cap:
            return float(self.lo[n, x]), float(self.hi[n, x])
        fac = math.exp(self.config.schedule.thetas[n] * (x - cap))
        return float(self.lo[n, cap]) * fac, float(self.hi[n, cap]) * fac


@dataclass(frozen=True)
class ExpPolicy:
    """Largest-minimiser decision rules per depth, with barriers.

    ``action[n, x]`` is the dividend at surplus x and depth n < N;
    ``xi[n]`` is the largest surplus with action 0 (the barrier).  Called
    as policy(t, x, s), it is the rule of the policy protocol.
    """

    config: ProblemConfig
    action: np.ndarray

    @functools.cached_property
    def xi(self) -> np.ndarray:
        """The barrier of every depth: its last surplus with action 0."""
        return self.config.x_max - np.argmax(self.action[:, ::-1] == 0, axis=1)

    def __call__(self, t: int, x, s):
        """Actions at step t for surplus x >= 0 (int or array); s is unused."""
        row, extra, kept = policy_lookup(self.action, t, x, self.config.x_max)
        return extra + row[kept]


def _induct(config: ProblemConfig, rule: np.ndarray | None = None,
            terminal: str = "tail") -> tuple[ExpValueTable, ExpPolicy]:
    """The one backward induction over the theta-schedule.

    The bracket is one array j of shape (N+1, x_max+1, 2), lo in column 0
    and hi in column 1, which the table's ``lo`` and ``hi`` view.  Each
    depth forms G(v) = E J_{n+1}(v + Z) for both columns in one
    expectation: a ruined state is worth exactly 1, and a state above the
    cap pays its overflow o down, e^{theta_{n+1} o} J_{n+1}(x_max), except
    that the unit terminal row is 1 everywhere, so it extends flat.  One
    ``exp_backup`` then gives the largest minimiser against the table
    being built.  Without a rule the table stores that backup (optimise);
    with an (N, x_max+1) rule it stores e^{theta_n a} G(x - a) for the
    rule's a (evaluate), and the tail's hi is 1, since the pay-all upper
    envelope only bounds the optimal rule.
    """
    schedule = config.schedule  # validated at construction: x_max >= its cap
    dist, n_depth, x_max = config.dist, config.depth, config.x_max
    xs = np.arange(x_max + 1)
    j = np.ones((n_depth + 1, x_max + 1, 2))
    if terminal == "tail":
        decay = np.exp(schedule.thetas[n_depth] * xs)
        j[n_depth, :, 0] = decay * schedule.h_lower[n_depth]
        if rule is None:
            j[n_depth, :, 1] = np.minimum(1.0, decay * schedule.h_upper[n_depth])
    action = np.zeros((n_depth, x_max + 1), dtype=np.int64)
    overflow = range(1, max(dist.support_max, 0) + 1)

    for n in range(n_depth - 1, -1, -1):
        theta_next = 0.0 if terminal == "unit" and n + 1 == n_depth else schedule.thetas[n + 1]
        pay = np.array([math.exp(theta_next * o) for o in overflow])
        g = expect_income(dist, 1.0, j[n + 1], pay[:, None] * j[n + 1, x_max], x_max + 1)
        best, action[n] = exp_backup(schedule.thetas[n], g)
        if rule is not None:
            best = np.exp(schedule.thetas[n] * rule[n])[:, None] * g[xs - rule[n]]
        j[n] = best
    return (ExpValueTable(config=config, lo=j[..., 0], hi=j[..., 1]),
            ExpPolicy(config=config, action=action))


def solve_exp(config: ProblemConfig, *, terminal: str = "tail"
              ) -> tuple[ExpValueTable, ExpPolicy]:
    """Backward induction over the theta-schedule with certified brackets.

    ``terminal`` selects the depth-N closure: "tail" (default) encloses
    the infinite-horizon continuation with the two-sided envelope, while
    "unit" sets the terminal row to exactly 1, which turns the table into
    the optimal value of the N-step problem where payouts simply stop
    (useful for exact cross-validation against brute-force enumeration).
    ``howard.policy_value_exp`` evaluates a fixed rule in the same loop.
    """
    if config.utility is not Utility.EXPONENTIAL:
        raise ValidationError("solve_exp requires the exponential utility")
    if terminal not in ("tail", "unit"):
        raise ValidationError(f"unknown terminal mode {terminal!r}")
    return _induct(config, terminal=terminal)


# ---------------------------------------------------------------------------
# band functions


@dataclass(frozen=True)
class BandFunction:
    """Cut-point form of a payout rule.

    Pays nothing on [0, c_0] and on each [d_k, c_k]; pays down to the
    closest lower cut level everywhere else.  The interleaving
    0 <= c_0 <= d_1 <= c_1 <= ... <= d_n <= c_n with d_k - c_{k-1} >= 2
    is validated at construction.
    """

    c: tuple[int, ...]
    d: tuple[int, ...]

    def __post_init__(self):
        if not self.c:
            raise NotABand("a band function needs at least c_0")
        if len(self.d) != len(self.c) - 1:
            raise NotABand(f"cut counts mismatch: {len(self.c)} c's, {len(self.d)} d's")
        if self.c[0] < 0:
            raise NotABand(f"c_0 must be nonnegative, got {self.c[0]}")
        for k, dk in enumerate(self.d):
            if dk - self.c[k] < 2:
                raise NotABand(f"d_{k+1}={dk} too close to c_{k}={self.c[k]}")
            if self.c[k + 1] < dk:
                raise NotABand(f"c_{k+1}={self.c[k+1]} below d_{k+1}={dk}")

    def evaluate(self, x: int) -> int:
        if x <= self.c[0]:
            return 0
        for k in range(len(self.d)):
            if x < self.d[k]:  # in the gap (c_k, d_{k+1})
                return x - self.c[k]
            if x <= self.c[k + 1]:  # inside the band [d_{k+1}, c_{k+1}]
                return 0
        return x - self.c[-1]

    def cut_string(self) -> str:
        """Interleaved cuts c0;d1;c1;...;dn;cn for CSV output."""
        parts = [str(self.c[0])]
        for dk, ck in zip(self.d, self.c[1:]):
            parts.append(str(dk))
            parts.append(str(ck))
        return ";".join(parts)


def _band_rows(actions) -> list[BandFunction]:
    """Band form of every row of a 2-D action table, checked in one pass.

    A row is a band exactly when a(x) = x - max{y <= x : a(y) = 0}; its
    cuts c_k end and d_k start the runs of zeros.  NotABand names the
    first offending x of the first offending row.
    """
    acts = np.asarray(actions, dtype=np.int64)
    xs = np.arange(acts.shape[1])
    zero = acts == 0
    bad = acts != xs - np.maximum.accumulate(np.where(zero, xs, 0), axis=1)
    if bad.any() or not acts.shape[1]:
        n, x = divmod(int(np.argmax(bad)), acts.shape[1]) if bad.size else (0, 0)
        if x == 0:
            raise NotABand("action at x=0 must be 0")
        raise NotABand(f"action {acts[n, x]} at x={x} breaks the cut structure")
    starts, ends = zero.copy(), zero.copy()
    starts[:, 1:] &= ~zero[:, :-1]
    ends[:, :-1] &= ~zero[:, 1:]
    return [BandFunction(c=tuple(np.flatnonzero(e).tolist()),
                         d=tuple(np.flatnonzero(s)[1:].tolist()))
            for e, s in zip(ends, starts)]


def band_from_actions(column: Sequence[int]) -> BandFunction:
    """Parse one depth's action column into a band function.

    Raises NotABand when the column cannot be written in cut-point form;
    for columns produced by the solver that signals a bug, since the
    optimal rule is guaranteed to be a band.
    """
    return _band_rows(np.asarray(column).reshape(1, -1))[0]


def extract_bands(policy: ExpPolicy) -> list[BandFunction]:
    """Band form of every depth's rule; NotABand signals a solver bug."""
    rows = policy.action  # in slices of 16 rows, so the temporaries stay small
    return [band for top in range(0, len(rows), 16)
            for band in _band_rows(rows[top:top + 16])]


# ---------------------------------------------------------------------------
# risk-neutral baseline


@dataclass(frozen=True)
class NeutralSolution:
    """Stationary solution of the risk-neutral problem on [0, x_max].

    Called as policy(t, x, s), it is the rule of the policy protocol.
    """

    config: ProblemConfig
    values: np.ndarray
    action: np.ndarray
    iterations: int

    def band(self) -> BandFunction:
        return band_from_actions(self.action)

    def __call__(self, t: int, x, s):
        """Actions for surplus x >= 0 (int or array); stationary, s is unused."""
        row, extra, kept = policy_lookup(self.action[None], t, x, self.config.x_max)
        return extra + row[kept]


def _neutral_g(dist: IncomeDistribution, values: np.ndarray, x_max: int) -> np.ndarray:
    """E V(v + Z) with V = 0 after ruin and linear pay-down above the cap."""
    over = values[x_max] + np.arange(1, max(dist.support_max, 0) + 1)
    return expect_income(dist, 0.0, values, over, x_max + 1)


def solve_neutral(config: ProblemConfig) -> NeutralSolution:
    """Value iteration for sup E sum beta^k a_k from the upper envelope.

    Starts at V_0(x) = x + beta EZ+/(1-beta), a provable over-estimate, so
    iterates decrease monotonically; stops once the contraction bound
    certifies a sup-norm error below tail_eps.  Raises MaxIterations, with
    the last sup-norm change, after NEUTRAL_MAX_ITERATIONS sweeps.
    """
    if config.utility is not Utility.RISK_NEUTRAL:
        raise ValidationError("solve_neutral requires the risk-neutral utility")
    beta, x_max, dist = config.beta, config.x_max, config.dist
    xs = np.arange(x_max + 1, dtype=float)
    values = xs + tail_income(dist, beta)
    stop = config.tail_eps * (1.0 - beta) / beta
    iterations, diff = 0, math.inf
    while iterations < NEUTRAL_MAX_ITERATIONS:
        new, _ = neutral_backup(beta * _neutral_g(dist, values, x_max))
        iterations += 1
        diff = float(np.max(np.abs(new - values)))
        values = new
        if diff <= stop:
            break
    else:  # the cap was hit: the values are not certified to tail_eps
        raise MaxIterations(iterations, diff)
    _, action = neutral_backup(beta * _neutral_g(dist, values, x_max))
    return NeutralSolution(config=config, values=values, action=action,
                           iterations=iterations)
