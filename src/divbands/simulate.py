"""Monte Carlo validation of solved payout policies.

Paths stream through the surplus recursion in fixed-size batches of
2^14, each batch drawing from its own Philox substream obtained by
jumping the seeded generator, so path i always sees the same randomness
no matter how many paths run, in how many batches, or in how many
processes.  Each step owns one word of the stream per path of the batch,
ruined paths included, keeping the stream layout independent of the
ruin pattern; a batch stops early once every path in it is ruined.
Philox is counter-based, so a step reads only the 4-word blocks from its
first live path to its last and ``advance``s over the rest: the dead
words outside that span are skipped, not drawn.  Each live word maps to
its income by integer thresholds (``_income_thresholds``), exactly as
``Generator.random`` followed by an inverse-CDF search would map it.
Only the live paths are stepped: each batch keeps their surplus and
payout in compact arrays, in path order, and a path's outcome is written
out the step it is ruined, when it leaves those arrays.

A policy is any callable policy(t, x, s) -> actions, vectorized over
the surplus x and the discounted payout s of the live paths; it is
called once per step, and a scalar result applies to every path.  The
solver policies reuse their last depth's rule beyond the solved horizon
(the surplus process does not care, and the pay-down property that makes
ruin certain is preserved) and pay the overflow above the surplus cap on
top of the cap rule.  Discounted payouts accumulate at the true beta^t
scale throughout; after max_steps a surviving path is truncated and
flagged, its unpaid tail bounded by beta^max_steps x_max/(1-beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PolicyUndefined, InvariantViolation, ValidationError
from .model import ProblemConfig, check_y0, utility
from .parallel import fork_parts, shared_arrays, split_runs

BATCH = 1 << 14  # paths per Philox substream

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


def _step_actions(policy, t: int, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """One vectorized policy call on the live paths, checked against {0..x}."""
    acts = np.asarray(policy(t, x, s))
    if not np.issubdtype(acts.dtype, np.integer):
        raise PolicyUndefined(f"policy returned non-integer actions at step {t}")
    a = acts if acts.shape == x.shape else np.broadcast_to(acts, x.shape)
    bad = (a < 0) | (a > x)
    if bad.any():
        j = np.nonzero(bad)[0][0]
        raise PolicyUndefined(
            f"action {a[j]} outside {{0..{x[j]}}} at step {t}, x={x[j]}")
    return a


def _income_thresholds(probs) -> np.ndarray:
    """Integer thresholds T_j = ceil(cum_j 2^53), j < K-1, on the 53-bit words.

    ``Generator.random`` turns a raw word w into m 2^-53 with m = w >> 11,
    and inverse-CDF sampling takes income min(searchsorted(cum, m 2^-53,
    'right'), K-1), the number of j < K-1 with cum_j <= m 2^-53.  Scaling
    by 2^53 is exact, so that is the number of T_j <= m: the same income,
    from the word, without forming the double.
    """
    return np.ceil(np.cumsum(np.array(probs))[:-1] * 2.0 ** 53).astype(np.uint64)


def _income_index(words: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Support index of each raw word: the count of thresholds T_j <= w >> 11."""
    m = words >> 11
    k = np.zeros(m.size, dtype=np.intp)
    for t in thresholds:
        k += m >= t
    return k


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
    cores and the batches); the result is the same bytes for every
    value.  The default stays 1 because a run in a forked child keeps
    none of the policy's side effects: a policy that counts or records
    its calls sees only the calls made in the calling process.  An
    exception raised in a child's run is raised again, with its serial
    type and message, by running that run here.
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
        for b in runs[i]:
            bits = base.jumped(b // BATCH)
            skip = 0  # blocks between the last word read and this step's first
            live = np.arange(b, min(b + BATCH, n_paths) if x0 >= 0 else b)
            x = np.full(live.size, x0, dtype=np.int64)
            s = np.zeros(live.size)
            disc = 1.0
            for t in range(max_steps):
                if live.size == 0:
                    break
                a = _step_actions(policy, t, x, s)
                s = s + disc * a
                # the blocks holding words live[0] - b .. live[-1] - b of the
                # step's BATCH; Python ints, as advance rejects numpy integers
                first, last = int(live[0] - b) // 4, int(live[-1] - b) // 4
                bits.advance(skip + first)
                words = bits.random_raw(4 * (last + 1 - first))[live - (b + 4 * first)]
                skip = BATCH // 4 - 1 - last
                z = support[_income_index(words, thresholds)]
                x = x - a + z
                ruined = x < 0
                if ruined.any():
                    sums[live[ruined]] = s[ruined]
                    times[live[ruined]] = t + 1
                    live, x, s = live[~ruined], x[~ruined], s[~ruined]
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
