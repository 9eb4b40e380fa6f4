"""Monte Carlo validation of solved payout policies.

Paths stream through the surplus recursion in fixed-size batches of
2^14, each batch drawing from its own Philox substream obtained by
jumping the seeded generator, so path i always sees the same randomness
no matter how many paths run, in how many batches, or in how many
processes.  Each step owns one word of the stream per path of the batch,
ruined paths included, keeping the stream layout independent of the
ruin pattern; a batch draws nothing more once every path in it is ruined.
Philox is counter-based, so a step reads only the 4-word blocks from its
batch's first live path to its last and ``advance``s over the rest: the
dead words outside that span are skipped, not drawn.  Each live word
maps to its income by integer thresholds (``_income_thresholds``),
exactly as ``Generator.random`` followed by an inverse-CDF search would
map it.

The batches are cut into contiguous runs, one per process, and a run
steps its batches in groups of at most ``GROUP``: a group's batches are
stepped together, to the end, before the next group starts, so the
working arrays never hold more than ``GROUP`` batches of paths.  Only the
live paths are stepped: the group keeps their surplus and payout in
compact arrays, in path order, one ``searchsorted`` of the batch starts
finds each batch's segment of them for its draws, and a path's outcome
is written out the step it is ruined, when it leaves those arrays.

A policy is any callable policy(t, x, s) -> actions, vectorized over
the surplus x and the discounted payout s of the live paths; it is
called once per step of a group, on every live path of the group in
path order, and its answer is checked by ``model.policy_actions`` (an
answer of one element applies to every path).  With one worker and at
most ``GROUP`` batches that is every live path of the simulation; with
more, which paths share a call depends on the split and the grouping, so
a rule that reads across paths (x.min(), say) can act differently, while
a rule whose action at a path depends only on that path's (t, x, s), as
every solver policy's does, gives the same bytes at every worker count
and every ``GROUP``.  The solver policies reuse their last
depth's rule beyond the solved horizon (the surplus process does not
care, and the pay-down property that makes ruin certain is preserved)
and pay the overflow above the surplus cap on top of the cap rule.
Discounted payouts accumulate at the true beta^t scale throughout; after
max_steps a surviving path is truncated and flagged, its unpaid tail
bounded by beta^max_steps x_max/(1-beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PolicyUndefined, InvariantViolation, ValidationError
from .model import ProblemConfig, check_y0, policy_actions, utility
from .parallel import fork_parts, shared_arrays, split_runs

BATCH = 1 << 14  # paths per Philox substream
# Most batches stepped together, read at call time: it bounds the working
# arrays, about 56 bytes per live path, at GROUP * BATCH paths (about 7 MB)
# whatever n_paths is, and keeps a 100,000-path run (7 batches) one group.
GROUP = 8

__all__ = ["SimulationResult", "simulate_paths", "ruin_certainty_check"]


@dataclass(frozen=True)
class SimulationResult:
    """Per-path outcomes plus the derived summary statistics."""

    discounted_sums: np.ndarray  # per-path sum of beta^t a_t
    ruin_times: np.ndarray       # first step with x < 0, capped at max_steps
    truncated: np.ndarray        # still alive at max_steps
    utilities: np.ndarray        # U(y0 + discounted sum) per path

    @property
    def n_paths(self) -> int:
        return int(self.discounted_sums.shape[0])

    @property
    def mean_utility(self) -> float:
        return float(np.sum(self.utilities) / self.n_paths)

    @property
    def std_err(self) -> float:
        if self.n_paths < 2:
            return math.inf
        return float(np.std(self.utilities, ddof=1) / math.sqrt(self.n_paths))

    @property
    def ruin_fraction(self) -> float:
        return float(np.sum(~self.truncated) / self.n_paths)

    def summary(self) -> dict:
        """The reporting dict, JSON-safe: mean ruin time averages ruined paths
        only, and std_err, undefined below two paths, is then None."""
        ruined = ~self.truncated
        mean_ruin = (float(np.sum(self.ruin_times[ruined]) / np.sum(ruined))
                     if ruined.any() else None)
        return {
            "n_paths": self.n_paths,
            "mean_utility": self.mean_utility,
            "std_err": self.std_err if self.n_paths > 1 else None,
            "ruin_fraction": self.ruin_fraction,
            "mean_ruin_time": mean_ruin,
            "truncated_fraction": float(np.sum(self.truncated) / self.n_paths),
        }


def _income_thresholds(probs) -> np.ndarray:
    """Raw-word thresholds T_j << 11, T_j = ceil(cum_j 2^53), j < K-1.

    ``Generator.random`` turns a raw word w into m 2^-53 with m = w >> 11,
    and inverse-CDF sampling takes income min(searchsorted(cum, m 2^-53,
    'right'), K-1), the number of j < K-1 with cum_j <= m 2^-53.  Scaling
    by 2^53 is exact, so that is the number of T_j <= m, and, as the low
    11 bits of w never carry, of T_j << 11 <= w: the same income, from the
    word, without the shift or the double.  A T_j of 2^53 or more (cum_j
    rounded to 1) is never reached by m < 2^53 and is dropped, since it
    would not fit the word.
    """
    cum = np.ceil(np.cumsum(np.array(probs))[:-1] * 2.0 ** 53)
    return cum[cum < 2.0 ** 53].astype(np.uint64) << np.uint64(11)


def _income_index(words: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Support index of each raw word: the count of thresholds <= w."""
    k = np.zeros(words.size, dtype=np.min_scalar_type(thresholds.size))
    for t in thresholds:
        k += words >= t
    return k


def _draw_words(streams: list, skips: list[int], run: range, edges: np.ndarray,
                live: np.ndarray) -> np.ndarray:
    """This step's raw word for each live path of a run, in path order.

    ``edges`` holds the run's batch starts and then its end, so the live
    paths of batch j (first path ``run[j]``) are live[cuts[j]:cuts[j + 1]]
    with cuts = searchsorted(live, edges).  Each batch reads from
    ``streams[j]`` only the blocks holding those paths' words of the
    step's BATCH: it ``advance``s over ``skips[j]``, the blocks left after
    its previous span, and the blocks before this one, then sets
    ``skips[j]`` to the blocks after it.  Positions are Python ints, as
    advance rejects numpy integers.
    """
    words = np.empty(live.size, dtype=np.uint64)
    cuts = np.searchsorted(live, edges).tolist()
    for j, b in enumerate(run):
        lo, hi = cuts[j], cuts[j + 1]
        if lo == hi:
            continue
        first, last = (int(live[lo]) - b) // 4, (int(live[hi - 1]) - b) // 4
        streams[j].advance(skips[j] + first)
        # the offsets lie in the span drawn; 'clip' only spares take the
        # temporary copy of out that its default 'raise' makes
        streams[j].random_raw(4 * (last + 1 - first)).take(
            live[lo:hi] - (b + 4 * first), out=words[lo:hi], mode="clip")
        skips[j] = BATCH // 4 - 1 - last
    return words


def simulate_paths(config: ProblemConfig, policy, x0: int, n_paths: int,
                   max_steps: int = 10_000, y0: float | None = None,
                   workers: int = 1) -> SimulationResult:
    """Simulate the surplus process under a policy; reproducible per seed.

    Returns per-path discounted payout sums, ruin times (capped at
    max_steps, with surviving paths flagged truncated) and utilities of
    y0 plus the payout sum (default y0: ``model.check_y0``).  The stream
    is keyed by ``config.seed``.

    ``workers`` > 1 splits the batches into contiguous runs, one per
    process (``parallel.split_runs`` clamps the count to the usable
    cores and the batches).  Each run steps its batches in groups of at
    most ``GROUP`` and calls the policy once per step of a group on every
    live path of the group, in path order; with ``workers`` = 1 and at
    most ``GROUP`` batches that is every live path.  For a
    policy whose action at a path depends only on that path's (t, x, s),
    as every solver policy's does, the result is the same bytes for
    every value.  The default stays 1 because a run in a forked child
    keeps none of the policy's side effects: a policy that counts or
    records its calls sees only the calls made in the calling process.

    A failing policy (an answer ``model.policy_actions`` refuses, raised
    as PolicyUndefined, or its own exception) surfaces from the
    lowest-numbered run that fails, at the first failing step of its
    first failing group, naming its first offending path in path order;
    an exception raised in a child's run is raised again, with its serial
    type and message, by running that run here.  A policy that fails in
    several groups at different steps can therefore name a different step
    or offender at different worker counts: serially, the earliest
    failing step of the first group that fails.
    """
    if not callable(policy):
        raise PolicyUndefined(f"cannot simulate a {type(policy).__name__}")
    if n_paths < 1:
        raise ValidationError(f"n_paths must be positive, got {n_paths}")
    if max_steps < 1:
        raise ValidationError(f"max_steps must be positive, got {max_steps}")
    y0 = check_y0(config.utility, y0)
    beta = config.beta
    support = np.array(config.dist.support, dtype=np.int64)
    thresholds = _income_thresholds(config.dist.probs)

    # a path ruined from the start keeps sum 0, time 0 and no flag
    sums, times, trunc = shared_arrays((((n_paths,), np.float64), ((n_paths,), np.int64),
                                        ((n_paths,), bool)), f"outputs for {n_paths} paths")
    base = np.random.Philox(key=config.seed)
    runs = split_runs(workers, range(0, n_paths, BATCH))

    def part(i: int) -> None:
        for at in range(0, len(runs[i]), GROUP):
            group = runs[i][at:at + GROUP]
            end = min(group[-1] + BATCH, n_paths)
            edges = np.array([*group, end])
            streams = [base.jumped(b // BATCH) for b in group]
            skips = [0] * len(group)
            live = np.arange(group[0], end if x0 >= 0 else group[0])
            x = np.full(live.size, x0, dtype=np.int64)
            s = np.zeros(live.size)
            disc = 1.0
            for t in range(max_steps):
                if live.size == 0:
                    break
                # x and s are fresh arrays each step, as the policy may keep
                # the ones it was handed; a goes once used, to keep the peak
                # of whole-group arrays to the policy call's
                a, x = policy_actions(policy, t, x, s, "step", PolicyUndefined)
                s = s + disc * a
                del a
                x += support.take(_income_index(
                    _draw_words(streams, skips, group, edges, live), thresholds))
                ruined = x < 0
                if ruined.any():
                    out = np.flatnonzero(ruined)  # few: gathers beat two more masks
                    gone = live[out]
                    sums[gone], times[gone] = s[out], t + 1
                    keep = ~ruined
                    live, x, s = live[keep], x[keep], s[keep]
                disc *= beta
            sums[live], times[live], trunc[live] = s, max_steps, True

    fork_parts(len(runs), part)
    return SimulationResult(discounted_sums=sums, ruin_times=times, truncated=trunc,
                            utilities=utility(config.utility, config.gamma, y0 + sums))


def _max_retained(policy) -> int:
    """Largest post-payout surplus the rule's action table can leave standing.

    Solver tables hold surplus on axis 1 after ``np.atleast_3d``: (x,) for
    the stationary neutral rule, (depth, x) for the exponential one and
    (depth, x, s) for power and log.
    """
    table = getattr(policy, "action", None)
    if not isinstance(table, np.ndarray):
        raise PolicyUndefined(
            f"ruin bound needs a solver policy, got {type(policy).__name__}")
    acts = np.atleast_3d(table)
    xs = np.arange(acts.shape[1])[:, None]
    return int((xs - acts).max())


def ruin_certainty_check(config: ProblemConfig, policy, x0: int,
                         n_paths: int, max_steps: int = 10_000) -> float:
    """Verify that ruin is as certain as the block-counting bound demands.

    With xi* the largest surplus the rule leaves standing, any window of
    xi*+1 consecutive negative incomes forces ruin, so the ruin
    probability by max_steps is at least
    1 - (1 - p_neg^(xi*+1))^floor(max_steps/(xi*+1)).  Asserts the
    simulated fraction reaches that bound minus five standard errors and
    returns the fraction.
    """
    result = simulate_paths(config, policy, x0, n_paths, max_steps=max_steps)
    frac = result.ruin_fraction
    xi_star = _max_retained(policy)
    p_neg = config.dist.p_negative
    blocks = max_steps // (xi_star + 1)
    bound = 1.0 - (1.0 - p_neg ** (xi_star + 1)) ** blocks
    sigma = math.sqrt(max(frac * (1.0 - frac), 1e-12) / n_paths)
    if frac < bound - 5.0 * sigma:
        raise InvariantViolation(
            f"ruined fraction {frac:.6f} below certainty bound {bound:.6f} "
            f"- 5 sigma ({sigma:.2e}) with xi*={xi_star}, p_neg={p_neg:.3f}")
    return frac
