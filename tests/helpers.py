"""Shared instance builders for the test suite."""

import errno
import functools
import math
import os
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

import divbands.cli as cli
import divbands.model as model
import divbands.parallel as parallel
import divbands.power_solver as power_solver
from divbands.errors import (BarrierViolation, NotABand, PolicyUndefined, ValidationError,
                             ValueUnderflow)
from divbands.exp_solver import (BandFunction, ExpPolicy, ExpValueTable, required_cap,
                                 suggest_depth)
from divbands.model import (LOG_DBL_MIN, TIE_RTOL, IncomeDistribution, ProblemConfig, Utility,
                            expect_income, tail_income, utility, validate_distribution)
from divbands.oracle import exact_probabilities
from divbands.power_solver import SGrid
from divbands.simulate import BATCH

# certain unit loss every period: ruin next step, every closed form is exact
DOWN_ONE = {-1: 1.0}

# CPUs a split may use while ``split_everything`` is in force
SPLIT_CPUS = 4


def split_everything(monkeypatch) -> None:
    """Make every multi-block CSV, every multi-batch simulation and every
    power/log solve split.

    The emission and power/log solve size gates drop to 0 and the
    process reports ``SPLIT_CPUS`` usable CPUs, so ``--threads`` 2 and 4
    split into 2 and 4 runs on any host.  Pinning is switched off, so the test process
    keeps its real CPU mask.
    """
    monkeypatch.setattr(cli, "SPLIT_CELLS", 0)
    monkeypatch.setattr(power_solver, "SPLIT_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(SPLIT_CPUS)),
                        raising=False)
    monkeypatch.setattr(parallel, "_set_cpus", lambda cpus: None)


def refuse_forks(monkeypatch) -> list:
    """Make every ``os.fork`` fail as when the OS is out of processes.

    Returns the list of refusals, one entry per fork asked for.
    """
    refused = []

    def refuse():
        refused.append(True)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", refuse)
    return refused


def two_point(p: float, n: int) -> dict[int, float]:
    """Gain 1 with probability p, lose n otherwise."""
    return {1: p, -n: 1.0 - p}


def make_config(utility: str, mapping: dict[int, float], beta: float,
                gamma: float, x_max: int, depth: int, **kw) -> ProblemConfig:
    return ProblemConfig(beta=beta, gamma=gamma, utility=Utility.parse(utility),
                         dist=validate_distribution(mapping), x_max=x_max,
                         depth=depth, **kw)


def sized_exp_config(mapping: dict[int, float], beta: float, gamma: float,
                     depth: int | None = None, **kw) -> ProblemConfig:
    """Exponential config with x_max at the certified cap.

    The cap bound depends (weakly) on the depth through the parameter
    schedule, so the probe runs twice: once to size the depth, once to
    size the cap at that depth.  The probe is a plain namespace, since a
    config with a guessed cap could fail validation.
    """
    dist = validate_distribution(mapping)
    probe = SimpleNamespace(dist=dist, beta=beta, gamma=gamma, depth=16,
                            tail_eps=kw.get("tail_eps", ProblemConfig.tail_eps))
    if depth is None:
        probe.x_max = required_cap(probe)
        depth = suggest_depth(probe)
    probe.depth = depth
    return ProblemConfig(beta=beta, gamma=gamma, utility=Utility.EXPONENTIAL,
                         dist=dist, x_max=required_cap(probe), depth=depth, **kw)


def claim_family_configs(depth: int | None = None) -> list[ProblemConfig]:
    """The two-point reference family used by the structural suites."""
    out = []
    for p in (0.4, 0.6):
        for n in (1, 2):
            for gamma in (-1.0, -0.1):
                out.append(sized_exp_config(two_point(p, n), 0.9, gamma,
                                            depth=depth))
    return out


def mgf_plus(dist: IncomeDistribution, t: float) -> float:
    """E exp(t * Z+) as a generator sum with one exp per income, the way
    the schedule formed it before ``envelope_factors``."""
    return sum(q * math.exp(t * max(k, 0)) for k, q in dist.items())


def reference_schedule(config) -> SimpleNamespace:
    """Two-loop schedule build the one-orbit ``ThetaSchedule.build`` replaced.

    h_lower(theta_N) is bracketed by its own truncated product over
    theta_N beta^k (beta^k by repeated multiplication, at most 100,000
    factors); h_upper is rolled up from [Jensen floor, 1] over a second
    extension theta_N, theta_N beta, ... formed by multiplying theta by
    beta (at most 200,000 levels).  Both keep two bracket ends per depth
    and per-depth barrier bounds.  Returns the fields of a ThetaSchedule
    (the solver-read ends of each bracket) plus its ``cap``.
    """
    dist, beta, gamma = config.dist, config.beta, config.gamma
    n_depth, tail_eps = config.depth, config.tail_eps
    thetas = [gamma]
    for _ in range(n_depth):
        thetas.append(thetas[-1] * beta)

    ez = dist.mean_positive
    scale = ez / (1.0 - beta)
    p_neg = dist.p_negative

    def h_lower_at(theta):
        if theta >= 0:
            raise ValidationError(f"h_lower needs theta < 0, got {theta}")
        target = tail_eps * min(1.0, abs(theta))
        part, bk, k = 1.0, beta, 1
        while ez > 0 and -theta * bk * scale > target and k <= 100_000:
            part *= mgf_plus(dist, theta * bk)
            bk *= beta
            k += 1
        return part * math.exp(theta * bk * scale), part

    target = tail_eps * min(1.0, abs(thetas[-1]))
    ext = [thetas[-1]]
    while ez > 0 and -ext[-1] * beta * scale > target and len(ext) <= 200_000:
        ext.append(ext[-1] * beta)

    def c_factor(theta_next):
        return sum(q * math.exp(theta_next * k) for k, q in dist.items() if k >= 0)

    d_lo, d_hi = math.exp(ext[-1] * beta * scale), 1.0
    for j in range(len(ext) - 2, -1, -1):
        c = c_factor(ext[j + 1])
        d_lo = p_neg + c * d_lo
        d_hi = p_neg + c * d_hi
    h_up = [(d_lo, min(1.0, d_hi))]
    h_lo = [h_lower_at(thetas[-1])]
    for n in range(n_depth - 1, -1, -1):
        t_next = thetas[n + 1]
        c = c_factor(t_next)
        h_up.insert(0, (p_neg + c * h_up[0][0], min(1.0, p_neg + c * h_up[0][1])))
        m = mgf_plus(dist, t_next)
        h_lo.insert(0, (m * h_lo[0][0], m * h_lo[0][1]))
    if not min(h[0] for h in h_lo) > 0.0:
        raise ValueUnderflow(f"h_lower(gamma) is below ln(DBL_MIN) = {LOG_DBL_MIN:.1f}")

    s_cap = beta * scale / (1.0 - beta)
    noise_floor = 16.0 * math.ulp(1.0) * max(n_depth + len(ext), 1)
    s_hi, s_tilde = [], []
    for n in range(n_depth + 1):
        den = thetas[n] * (beta - 1.0)
        num = math.log(h_up[n][1]) - math.log(h_lo[n][0])
        if abs(thetas[n]) < 1e-8 and num < noise_floor:
            s_hi.append(s_cap)
            s_tilde.append(s_cap)
            continue
        s_hi.append(max(0.0, min(num / den, s_cap)))
        s_tilde.append(max(0.0, min(-math.log(h_lo[n][0]) / den, s_cap)))
    return SimpleNamespace(
        thetas=tuple(thetas), h_lower=tuple(h[0] for h in h_lo),
        h_upper=tuple(h[1] for h in h_up), s_star=max(s_hi),
        s_tilde_star=max(s_tilde), cap=math.ceil(max(s_hi) - 1e-12))


def reference_exp_backup(theta: float, g_lo: np.ndarray, g_hi: np.ndarray):
    """Per-x search the exp backup kernel replaced (relative tie rule)."""
    size = g_lo.size
    lo, hi = np.empty(size), np.empty(size)
    action = np.empty(size, dtype=np.int64)
    for x in range(size):
        pays = np.exp(theta * np.arange(x + 1))
        vals_lo = pays * g_lo[x::-1]
        lo[x] = vals_lo.min()
        hi[x] = (pays * g_hi[x::-1]).min()
        ties = np.nonzero(vals_lo <= lo[x] * (1.0 + TIE_RTOL))[0]
        action[x] = ties[-1]
    return lo, hi, action


# The exponential induction as it was with lo and hi in two tables: one
# stack per depth into the expectation, and one prefix scan per channel.
# Kept verbatim (names aside), so the one-array loop can be held to it bit
# for bit.

def two_table_expect_next(dist: IncomeDistribution, rows: np.ndarray, theta_next: float,
                          x_max: int) -> np.ndarray:
    """G(v) = E J_next(v + Z) for v = 0..x_max, lo and hi side by side.

    ``rows`` holds the next-depth lo and hi rows as its two columns,
    indexed by surplus 0..x_max.  Ruined states are worth exactly 1;
    states above the cap are priced by the pay-down extension.
    """
    pay = np.array([math.exp(theta_next * o)
                    for o in range(1, max(dist.support_max, 0) + 1)])
    return expect_income(dist, 1.0, rows, pay[:, None] * rows[x_max], x_max + 1)


def two_table_exp_backup(theta: float, g_lo: np.ndarray, g_hi: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min over a in {0..x} of e^{theta a} G(x-a) for every x, both channels.

    With v = x - a the value is e^{theta x} PM(x), PM the prefix minimum of
    H(v) = e^{-theta v} G(v).  The action is the largest lo-minimiser x - v*,
    v* the smallest v with PM(v) <= PM(x) * (1 + TIE_RTOL); PM does not
    increase, so one searchsorted finds every v*.
    """
    v = np.arange(g_lo.size)
    weight = np.exp(-theta * v)
    pm_lo = np.minimum.accumulate(weight * g_lo)
    pm_hi = np.minimum.accumulate(weight * g_hi)
    v_star = np.searchsorted(-pm_lo, -pm_lo * (1.0 + TIE_RTOL))
    decay = np.exp(theta * v)
    return decay * pm_lo, decay * pm_hi, v - v_star


def two_table_induct(config: ProblemConfig, rule: np.ndarray | None = None,
                     terminal: str = "tail") -> tuple[ExpValueTable, ExpPolicy]:
    """The one backward induction over the theta-schedule.

    Each depth forms G once, lo and hi in one expectation, and backs it
    up with ``exp_backup``, which gives the largest minimiser against the
    table being built.  Without a rule the table stores that backup
    (optimise); with an (N, x_max+1) rule it stores e^{theta_n a} G(x - a)
    for the rule's a (evaluate), and the tail's hi is 1, since the pay-all
    upper envelope only bounds the optimal rule.
    """
    schedule = config.schedule  # validated at construction: x_max >= its cap
    n_depth, x_max = config.depth, config.x_max
    xs = np.arange(x_max + 1)
    lo = np.ones((n_depth + 1, x_max + 1))
    hi = np.ones((n_depth + 1, x_max + 1))
    if terminal == "tail":
        decay = np.exp(schedule.thetas[n_depth] * xs)
        lo[n_depth] = decay * schedule.h_lower[n_depth]
        if rule is None:
            hi[n_depth] = np.minimum(1.0, decay * schedule.h_upper[n_depth])
    action = np.zeros((n_depth, x_max + 1), dtype=np.int64)

    for n in range(n_depth - 1, -1, -1):
        # the pay-down extension prices states above the cap, except that
        # the unit terminal row is 1 everywhere, so it extends flat
        theta_next = schedule.thetas[n + 1]
        if terminal == "unit" and n + 1 == n_depth:
            theta_next = 0.0
        g_lo, g_hi = two_table_expect_next(config.dist,
                                           np.stack([lo[n + 1], hi[n + 1]], axis=1),
                                           theta_next, x_max).T
        best_lo, best_hi, action[n] = two_table_exp_backup(schedule.thetas[n], g_lo, g_hi)
        if rule is None:
            lo[n], hi[n] = best_lo, best_hi
        else:
            pays = np.exp(schedule.thetas[n] * rule[n])
            lo[n] = pays * g_lo[xs - rule[n]]
            hi[n] = pays * g_hi[xs - rule[n]]
    return (ExpValueTable(config=config, lo=lo, hi=hi),
            ExpPolicy(config=config, action=action))


def reference_neutral_backup(bg: np.ndarray):
    """Per-x search the neutral backup kernel replaced (relative tie rule)."""
    size = bg.size
    values = np.empty(size)
    action = np.empty(size, dtype=np.int64)
    for x in range(size):
        vals = np.arange(x + 1) + bg[x::-1]
        values[x] = vals.max()
        ties = np.nonzero(vals >= values[x] - TIE_RTOL * abs(values[x]))[0]
        action[x] = ties[-1]
    return values, action


def assert_band_laws(policy) -> None:
    """Pay-down lands on a hold state, and pay regions step by one."""
    acts = policy.action
    xs = np.arange(acts.shape[1])
    assert np.all(np.take_along_axis(acts, xs - acts, axis=1) == 0)
    nxt, cur = acts[:, 1:], acts[:, :-1]
    assert np.all((nxt == 0) | (nxt == cur + 1) | (cur == 0))


def reference_bands(table) -> list[tuple[tuple, tuple]]:
    """Per-column band parser the one-pass extraction replaced.

    Returns the (c, d) cuts of every row, or raises NotABand with the
    message of the first offending row.
    """
    out = []
    for column in table:
        acts = [int(a) for a in column]
        if not acts or acts[0] != 0:
            raise NotABand("action at x=0 must be 0")
        runs: list[list[int]] = []
        for x, a in enumerate(acts):
            if a == 0:
                if runs and runs[-1][1] == x - 1:
                    runs[-1][1] = x
                else:
                    runs.append([x, x])
        band = BandFunction(c=tuple(r[1] for r in runs),
                            d=tuple(r[0] for r in runs[1:]))
        for x, a in enumerate(acts):
            if band.evaluate(x) != a:
                raise NotABand(f"action {a} at x={x} breaks the cut structure")
        out.append((band.c, band.d))
    return out


def reference_shift_pairs(policy) -> int:
    """Per-pair loop of barrier_diagnostics' band-shift check.

    Returns the number of pairs checked, or raises BarrierViolation at
    the first broken pair in (d, j, x) order.
    """
    acts, pts = policy.action, policy.grid.points
    n_depth, nx, m = acts.shape
    checked = 0
    for d in range(n_depth):
        target = pts - policy.config.beta ** d
        idx_c = np.minimum(np.searchsorted(pts, target), m - 1)
        for j in np.nonzero((target >= 0) & (pts[idx_c] == target))[0]:
            jj = int(idx_c[j])
            for x in range(nx - 1):
                a0, a1 = int(acts[d, x, j]), int(acts[d, x + 1, jj])
                if a1 > 0 and a1 != a0 + 1:
                    raise BarrierViolation(
                        f"band shift broken at depth {d}, x={x}, "
                        f"s={pts[j]:.6g}: f(x,s)={a0} but f(x+1,s-b^d)={a1}")
                checked += 1
    return checked


def reference_eval_queries(pts, row_lo, row_hi, q, env_x, b_env, c_tail, cash):
    """The masked bracket rule that ``power_solver._lower`` and ``_upper`` replaced.

    Brackets the rows at q against the pay-all envelopes of surplus
    ``env_x`` at discount ``b_env``, as one ``_Queries`` read by both
    rules does (``c_tail`` is C); missing candidates are masked to -inf or
    +inf with ``np.where`` and the log rows' NaN and infinite increments are
    fixed up before ``np.maximum``/``np.minimum`` take the best.
    """
    m = len(pts)
    idx = np.searchsorted(pts, q)
    idx_c = np.minimum(idx, m - 1)
    exact = pts[idx_c] == q
    left = np.maximum(idx - 1, 0)
    has_right = idx < m
    right = np.where(has_right, idx, m - 1)
    cash_q = cash(q)
    cash_l = cash(pts[left])
    cash_r = cash(pts[right])
    env_lo = cash(q + b_env * env_x)
    env_hi = cash(q + b_env * (env_x + c_tail))

    with np.errstate(invalid="ignore"):
        lo_r = np.where(has_right, row_lo[..., right] - (cash_r - cash_q), -np.inf)
    lo_r = np.where(np.isnan(lo_r), -np.inf, lo_r)  # log row at q=0, exact anyway
    lo = np.maximum(np.maximum(row_lo[..., left], lo_r), env_lo)

    with np.errstate(invalid="ignore"):
        hi_l = row_hi[..., left] + (cash_q - cash_l)
    hi_l = np.where(np.isfinite(hi_l), hi_l, np.inf)  # log row at s=0
    hi_r = np.where(has_right, row_hi[..., right], np.inf)
    hi = np.minimum(np.minimum(hi_r, hi_l), env_hi)

    if exact.any():
        lo = np.where(exact, row_lo[..., idx_c], lo)
        hi = np.where(exact, row_hi[..., idx_c], hi)
    return lo, hi


def reference_power_backup(config: ProblemConfig):
    """Two-pass, per-row power/log induction the one-pass backup replaced.

    Returns the (lo, hi, action) arrays of ``solve_power``/``solve_log``.
    Every next-depth row is queried on its own, and a second pass over
    the actions rebuilds each continuation to give ties to the largest.
    """
    cash = functools.partial(model.cash, config.utility, config.gamma)
    pts = SGrid.build(config).points
    m = len(pts)
    n_depth, x_max, beta, dist = config.depth, config.x_max, config.beta, config.dist
    c_tail = tail_income(dist, beta)
    smax = max(dist.support_max, 0)

    def continuations(next_lo, next_hi, d):
        bd, bnext = beta ** d, beta ** (d + 1)

        def cont(a):
            q = pts + bd * a
            ruin_lo = cash(q)
            rows_lo, rows_hi = {}, {}
            for xp in range(x_max + 1):
                rows_lo[xp], rows_hi[xp] = reference_eval_queries(
                    pts, next_lo[xp + 1], next_hi[xp + 1], q, xp, bnext, c_tail, cash)
            for o in range(1, smax + 1):
                rows_lo[x_max + o], rows_hi[x_max + o] = reference_eval_queries(
                    pts, next_lo[x_max + 1], next_hi[x_max + 1], q + bnext * o,
                    x_max, bnext, c_tail, cash)
            f_lo, f_hi = {}, {}
            for u in range(x_max + 1 - a):
                acc_lo, acc_hi = np.zeros_like(q), np.zeros_like(q)
                for k, qk in dist.items():
                    xp = u + k
                    acc_lo += qk * (ruin_lo if xp < 0 else rows_lo[xp])
                    acc_hi += qk * (ruin_lo if xp < 0 else rows_hi[xp])
                f_lo[u], f_hi[u] = acc_lo, acc_hi
            return f_lo, f_hi

        return cont

    lo = np.empty((n_depth + 1, x_max + 2, m))
    hi = np.empty((n_depth + 1, x_max + 2, m))
    lo[:, 0] = hi[:, 0] = cash(pts)
    b_last = beta ** n_depth
    for x in range(x_max + 1):
        lo[n_depth, x + 1] = cash(pts + b_last * x)
        hi[n_depth, x + 1] = cash(pts + b_last * (x + c_tail))
    action = np.zeros((n_depth, x_max + 1, m), dtype=np.int64)
    for d in range(n_depth - 1, -1, -1):
        cont = continuations(lo[d + 1], hi[d + 1], d)
        best_lo = np.full((x_max + 1, m), -np.inf)
        best_hi = np.full((x_max + 1, m), -np.inf)
        for a in range(x_max + 1):
            f_lo, f_hi = cont(a)
            for x in range(a, x_max + 1):
                np.maximum(best_lo[x], f_lo[x - a], out=best_lo[x])
                np.maximum(best_hi[x], f_hi[x - a], out=best_hi[x])
        for a in range(x_max + 1):  # second pass: largest tying action
            f_lo, _ = cont(a)
            for x in range(a, x_max + 1):
                action[d, x][f_lo[x - a] >= best_lo[x] - TIE_RTOL * np.abs(best_lo[x])] = a
        lo[d, 1:] = best_lo
        hi[d, 1:] = best_hi
    return lo, hi, action


def reference_simulate(config: ProblemConfig, policy, x0: int, n_paths: int,
                       max_steps: int, y0: float = 0.0):
    """All-paths loop the live-path simulator replaced.

    Every step steps the whole batch, ruined paths included, and masks
    them out.  Returns (discounted sums, ruin times, truncation flags,
    utilities), or raises the PolicyUndefined of the first offender.
    """
    beta = config.beta
    support = np.array(config.dist.support, dtype=np.int64)
    cum = np.cumsum(np.array(config.dist.probs))
    sums = np.empty(n_paths)
    times = np.empty(n_paths, dtype=np.int64)
    trunc = np.empty(n_paths, dtype=bool)
    base = np.random.Philox(key=config.seed)
    for b in range(0, n_paths, BATCH):
        rng = np.random.Generator(base.jumped(b // BATCH))
        width = min(BATCH, n_paths - b)
        x = np.full(width, x0, dtype=np.int64)
        s = np.zeros(width)
        ruined = x < 0
        rtime = np.full(width, max_steps, dtype=np.int64)
        rtime[ruined] = 0
        disc = 1.0
        for t in range(max_steps):
            if ruined.all():
                break
            alive = ~ruined
            a = np.zeros_like(x)
            idx = np.nonzero(alive)[0]
            acts = np.asarray(policy(t, x[idx], s[idx]))
            if not np.issubdtype(acts.dtype, np.integer):
                raise PolicyUndefined(f"policy returned non-integer actions at step {t}")
            a[idx] = acts
            bad = (a[idx] < 0) | (a[idx] > x[idx])
            if np.any(bad):
                j = idx[np.nonzero(bad)[0][0]]
                raise PolicyUndefined(
                    f"action {a[j]} outside {{0..{x[j]}}} at step {t}, x={x[j]}")
            s[alive] += disc * a[alive]
            draws = rng.random(BATCH)[:width]
            z = support[np.minimum(np.searchsorted(cum, draws, side="right"),
                                   len(support) - 1)]
            x_next = x - a + z
            now_ruined = alive & (x_next < 0)
            rtime[now_ruined] = t + 1
            x = np.where(alive, x_next, x)
            ruined |= now_ruined
            disc *= beta
        sums[b:b + width] = s
        times[b:b + width] = rtime
        trunc[b:b + width] = ~ruined
    return sums, times, trunc, utility(config.utility, config.gamma, y0 + sums)


def _reference_ld(x: Fraction) -> np.longdouble:
    head = float(x)
    return np.longdouble(head) + np.longdouble(float(x - Fraction(head)))


def reference_walk(config: ProblemConfig, x0: int, horizon: int, y0: float = 0.0,
                   policy=None, by_history: bool = False):
    """Exact-rational oracle walk the integer-payout walk replaced.

    Carries the accumulated payout s as a Fraction and converts y0 + s at
    every leaf.  ``policy`` None optimizes over every action (ties to the
    largest); otherwise the walk prices policy(depth, x, s).  Nodes are
    cached by (depth, x, s), or with ``by_history`` not cached at all and
    keyed by the income history too, so every history is walked on its own.
    Returns (value, decisions keyed by (depth, x, s[, history]), visits).
    """
    ld = np.longdouble
    terms = [(z, _reference_ld(q))
             for z, q in sorted(exact_probabilities(config.dist).items())]
    beta, y0_frac = Fraction(config.beta), Fraction(y0)
    minimize = config.utility is Utility.EXPONENTIAL
    decisions, memo = {}, {}
    visits = 0

    def leaf(s):
        w = _reference_ld(y0_frac + s)
        if config.utility is Utility.EXPONENTIAL:
            return np.exp(ld(config.gamma) * w)
        if config.utility is Utility.POWER:
            return w ** ld(config.gamma) if w > 0 else ld(0.0)
        if config.utility is Utility.LOGARITHMIC:
            return np.log(w)
        return w

    def value(depth, x, s, history):
        nonlocal visits
        visits += 1
        if x < 0 or depth == horizon:
            return leaf(s)
        key = (depth, x, s, history) if by_history else (depth, x, s)
        if not by_history and key in memo:
            return memo[key]
        if policy is None:
            acts = range(x + 1)
        else:
            acts = (int(policy(depth, x, s)),)
        best, best_a = None, 0
        for a in acts:
            s_next = s + beta ** depth * a
            acc = ld(0.0)
            for z, q in terms:
                acc += q * value(depth + 1, x - a + z, s_next, history + (z,))
            if best is None or acc == best or (acc < best if minimize else acc > best):
                best, best_a = acc, a
        decisions[key] = best_a
        if not by_history:
            memo[key] = best
        return best

    val = value(0, x0, Fraction(0), ())
    return float(val), decisions, visits
