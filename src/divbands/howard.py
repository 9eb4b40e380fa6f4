"""Policy iteration for the exponential case.

Each round is one pass of the value solver's backward induction: it
evaluates a fixed decision rule and, at each depth, takes the largest
minimiser against the table being evaluated; ``improve`` only vets that
rule.  Rounds repeat until the rule stops changing.  Values are
bracketed throughout: a fixed rule's tail is closed with
[e^{theta x} h_lower, 1], since the pay-all upper envelope only bounds
the optimal rule, not an arbitrary one.

Rules must pay down to a bounded surplus (otherwise ruin is no longer
certain and the evaluation prices a different problem); the gate is the
provable payout-pressure bound ``s_tilde_star`` from the schedule, which
every improvement step and every solver policy satisfies by construction.

Iteration produces a pointwise non-increasing sequence of values; the
improved rule of a converged run is the rule itself, and the final table
agrees with direct backward induction within bracket widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (IllegalAction, InadmissiblePolicy, InvariantViolation, MaxIterations,
                     ValidationError)
from .exp_solver import ExpPolicy, ExpValueTable, ThetaSchedule, _induct
from .model import ProblemConfig, Utility

MAX_ITERATIONS = 1000  # most evaluate/improve rounds of howard_solve, read at call time

__all__ = [
    "HowardIteration",
    "HowardResult",
    "pay_all_rule",
    "policy_value_exp",
    "improve",
    "howard_solve",
]


def pay_all_rule(config: ProblemConfig) -> np.ndarray:
    """f(n, x) = x at every depth: the suggested starting rule."""
    row = np.arange(config.x_max + 1, dtype=np.int64)
    return np.tile(row, (config.depth, 1))


def _as_rule(config: ProblemConfig, f) -> np.ndarray:
    """Normalize a rule to an (N, x_max+1) int array and vet its actions.

    A callable is a policy, called once per depth on every surplus (s = 0,
    which exponential rules ignore); a result that does not broadcast to
    the surplus array is refused.  Actions must be integers: a float or
    bool rule is refused, not truncated.
    """
    n_depth, x_max = config.depth, config.x_max
    xs = np.arange(x_max + 1)
    if callable(f):
        rule = np.array([_depth_actions(f, n, xs) for n in range(n_depth)])
    else:
        rule = np.asarray(f)
    if not np.issubdtype(rule.dtype, np.integer):
        raise IllegalAction(f"rule actions must be integers, got dtype {rule.dtype}")
    rule = rule.astype(np.int64, copy=False)
    if rule.shape != (n_depth, x_max + 1):
        raise ValidationError(
            f"rule shape {rule.shape} != {(n_depth, x_max + 1)}")
    if np.any(rule < 0) or np.any(rule > xs):
        n, x = np.argwhere((rule < 0) | (rule > xs))[0]
        raise IllegalAction(f"rule pays {rule[n, x]} at depth {n}, x={x}")
    return rule


def _depth_actions(f, n: int, xs: np.ndarray) -> np.ndarray:
    """The callable rule f's actions at depth n on every surplus xs."""
    acts = np.asarray(f(n, xs, 0.0))
    if acts.shape == xs.shape:
        return acts
    try:
        return np.broadcast_to(acts, xs.shape)
    except ValueError:
        raise IllegalAction(f"rule returned actions of shape {acts.shape} "
                            f"for surplus of shape {xs.shape} at depth {n}") from None


def _check_admissible(schedule: ThetaSchedule, rule: np.ndarray,
                      error: type[Exception] = InadmissiblePolicy) -> None:
    bound = schedule.s_tilde_star
    xs = np.arange(rule.shape[1], dtype=float)
    required = np.ceil(xs - bound - 1e-9).astype(np.int64)
    bad = rule < np.maximum(required, 0)
    if np.any(bad):
        n, x = np.argwhere(bad)[0]
        raise error(
            f"rule pays {rule[n, x]} at depth {n}, x={x}; needs >= "
            f"{required[x]} to keep post-payout surplus within {bound:.4g}")


def policy_value_exp(config: ProblemConfig, f) -> tuple[ExpValueTable, ExpPolicy]:
    """Bracketed value of a fixed rule, and the greedy rule against it.

    ``f`` may be an (N, x_max+1) array or a policy (depth, x, s) ->
    actions such as an ExpPolicy.  Above the cap the rule is extended by
    paying the overflow, which makes the table's extension identity exact
    for any rule, not only the optimal one.  The returned policy is the
    largest minimiser of a -> e^{theta_n a} G_f(x-a) on the lo channel
    (ties within relative TIE_RTOL = 1e-12 go to the larger payout), found
    in the same backward pass as the values.
    """
    if config.utility is not Utility.EXPONENTIAL:
        raise ValidationError("policy_value_exp requires the exponential utility")
    rule = _as_rule(config, f)
    _check_admissible(config.schedule, rule)
    return _induct(config, rule)


def improve(config: ProblemConfig, rule: np.ndarray) -> np.ndarray:
    """Vet a greedy rule from ``policy_value_exp`` as an improvement step.

    The rule must pay down to zero pressure (improving twice from the
    post-payout surplus changes nothing) and respect the payout-pressure
    bound; both certify the iteration's ruin argument.  The rule is the
    program's own, so a failed check raises InvariantViolation.  Returns
    the rule.
    """
    follow = np.take_along_axis(rule, np.arange(config.x_max + 1) - rule, axis=1)
    if np.any(follow != 0):
        n, x = np.argwhere(follow != 0)[0]
        raise InvariantViolation(
            f"improved rule pays again after paying: depth {n}, x={x}, "
            f"a={rule[n, x]}, follow-up {follow[n, x]}")
    _check_admissible(config.schedule, rule, InvariantViolation)
    return rule


@dataclass(frozen=True)
class HowardIteration:
    """One evaluate/improve round: the rule used and its hi-channel values."""

    rule: np.ndarray
    j_hi: np.ndarray  # (N+1, x_max+1), the evaluated table's hi, by surplus


@dataclass(frozen=True)
class HowardResult:
    table: ExpValueTable
    policy: ExpPolicy
    iterations: int
    final_gap: float
    history: tuple[HowardIteration, ...]


def howard_solve(config: ProblemConfig) -> HowardResult:
    """Iterate evaluation and improvement until the rule is a fixed point.

    Starts from pay-all.  Asserts the theoretical pointwise non-increase
    of successive values: each new hi value may exceed the previous one by
    at most the new bracket's width.  Raises MaxIterations with the last
    sup-norm value change after ``MAX_ITERATIONS`` rounds.
    """
    if config.utility is not Utility.EXPONENTIAL:  # before pay_all_rule's table
        raise ValidationError("howard requires the exponential utility")
    rule = pay_all_rule(config)
    prev_hi = None
    gap = math.inf
    history: list[HowardIteration] = []
    for it in range(1, MAX_ITERATIONS + 1):
        table, greedy = policy_value_exp(config, rule)
        # a copy: a view of table.hi would keep the whole lo/hi array alive
        history.append(HowardIteration(rule=rule, j_hi=table.hi.copy()))
        if prev_hi is not None:
            worst = float(np.max(table.hi - prev_hi - (table.hi - table.lo)))
            if worst > 1e-12:
                raise InvariantViolation(
                    f"policy iteration increased a value by {worst:.3e}")
            gap = float(np.max(np.abs(table.hi - prev_hi)))
        prev_hi = history[-1].j_hi
        improved = improve(config, greedy.action)
        if np.array_equal(improved, rule):  # the greedy rule is the converged one
            return HowardResult(table=table, policy=greedy, iterations=it,
                                final_gap=gap if it > 1 else 0.0, history=tuple(history))
        rule = improved
    raise MaxIterations(MAX_ITERATIONS, gap)
