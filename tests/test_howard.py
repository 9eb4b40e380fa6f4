"""Policy iteration: convergence to the value-iteration rule, gates, brackets."""

import math
import re

import numpy as np
import pytest

from divbands.errors import (
    IllegalAction,
    InadmissiblePolicy,
    InvariantViolation,
    MaxIterations,
    ValidationError,
)
import divbands.howard as howard
from divbands.exp_solver import ExpPolicy, ExpValueTable, solve_exp
from divbands.howard import howard_solve, improve, pay_all_rule, policy_value_exp
from divbands.oracle import exact_policy_value
from helpers import (DOWN_ONE, make_config, reference_exp_backup, sized_exp_config,
                     two_point, two_table_induct)

# pay-all is not optimal here, so the iteration has real work to do
CLAIM = sized_exp_config(two_point(0.6, 1), 0.9, -1.0)


@pytest.fixture(scope="module")
def converged():
    return howard_solve(CLAIM)


def test_matches_value_iteration(converged):
    vi_table, vi_policy = solve_exp(CLAIM)
    assert converged.iterations >= 2
    assert np.array_equal(converged.policy.action, vi_policy.action)
    assert np.array_equal(converged.policy.xi, vi_policy.xi)
    # both brackets contain the same optimal values, so they overlap and
    # their hi channels differ by at most the two widths combined
    h_lo, h_hi = converged.table.lo, converged.table.hi
    v_lo, v_hi = vi_table.lo, vi_table.hi
    assert np.all(h_lo <= v_hi + 1e-12)
    assert np.all(v_lo <= h_hi + 1e-12)
    combined = (h_hi - h_lo) + (v_hi - v_lo)
    assert np.all(np.abs(h_hi - v_hi) <= combined + 1e-12)


def test_history_is_nonincreasing(converged):
    hist = converged.history
    assert len(hist) == converged.iterations
    assert np.all(hist[-1].j_hi <= hist[0].j_hi + 1e-9)
    assert math.isfinite(converged.final_gap)
    assert converged.final_gap >= 0.0


def test_history_holds_copies_of_each_evaluation(converged):
    # a view of table.hi would keep each round's whole lo/hi array alive
    assert not np.shares_memory(converged.history[-1].j_hi, converged.table.hi)
    for it in converged.history:
        assert it.j_hi.tobytes() == two_table_induct(CLAIM, it.rule)[0].hi.tobytes()


def test_rising_value_is_an_invariant_violation(monkeypatch):
    # the second evaluation's bracket lies wholly above the first one's hi,
    # which policy iteration can never produce
    real, calls = policy_value_exp, []

    def rising(config, f):
        table, greedy = real(config, f)
        calls.append(f)
        if len(calls) > 1:
            table = ExpValueTable(config=config, lo=table.lo + 1.0, hi=table.hi + 1.0)
        return table, greedy

    monkeypatch.setattr(howard, "policy_value_exp", rising)
    with pytest.raises(InvariantViolation, match="increased a value"):
        howard_solve(CLAIM)
    assert len(calls) == 2


def test_converged_rule_is_a_fixed_point(converged):
    rule = converged.policy.action
    _, greedy = policy_value_exp(CLAIM, rule)
    improved = improve(CLAIM, greedy.action)
    assert np.array_equal(improved, rule)


def test_greedy_rule_minimises_against_the_evaluated_table():
    # away from the fixed point: the rule returned with pay-all's table
    # must be the largest minimiser against that same table, depth by depth
    rule = pay_all_rule(CLAIM)
    table, greedy = policy_value_exp(CLAIM, rule)
    thetas, x_max = CLAIM.schedule.thetas, CLAIM.x_max

    def expectation(row, theta_next):
        def j_next(y):  # ruin is worth 1; above the cap, pay the overflow
            if y < 0:
                return 1.0
            return row[min(y, x_max)] * math.exp(theta_next * max(y - x_max, 0))
        return np.array([sum(q * j_next(v + k) for k, q in CLAIM.dist.items())
                         for v in range(x_max + 1)])

    for n in range(CLAIM.depth):
        g_lo = expectation(table.lo[n + 1], thetas[n + 1])
        g_hi = expectation(table.hi[n + 1], thetas[n + 1])
        _, _, action = reference_exp_backup(thetas[n], g_lo, g_hi)
        assert np.array_equal(greedy.action[n], action), n
    assert np.any(greedy.action != rule)


def test_certain_loss_starts_optimal():
    cfg = make_config("exponential", DOWN_ONE, 0.5, -1.0, 4, 4)
    result = howard_solve(cfg)
    assert result.iterations <= 2
    assert np.array_equal(result.policy.action, pay_all_rule(cfg))
    assert result.final_gap <= 1e-15


def test_zero_rule_is_inadmissible():
    cfg = make_config("exponential", DOWN_ONE, 0.5, -1.0, 4, 3)
    holds = np.zeros((cfg.depth, cfg.x_max + 1), dtype=np.int64)
    with pytest.raises(InadmissiblePolicy):
        policy_value_exp(cfg, holds)


@pytest.mark.parametrize("bad", [
    lambda xs: np.minimum(xs, 1),   # pays 1 at x = 2, then 1 again at x = 1
    lambda xs: np.zeros_like(xs),   # never pays: fails the pay-down bound
])
def test_bad_improved_rule_is_an_invariant_violation(monkeypatch, bad):
    # a greedy rule is the program's own, so its failures are exit 3, not
    # a rejected input like the user rule of test_zero_rule_is_inadmissible
    cfg = make_config("exponential", DOWN_ONE, 0.5, -1.0, 4, 3)
    real = policy_value_exp

    def broken(config, f):
        table, _ = real(config, f)
        rule = np.tile(bad(np.arange(config.x_max + 1)), (config.depth, 1))
        return table, ExpPolicy(config=config, action=rule)

    monkeypatch.setattr(howard, "policy_value_exp", broken)
    with pytest.raises(InvariantViolation):
        howard_solve(cfg)


def test_overpaying_rule_is_rejected():
    cfg = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 3)
    rule = pay_all_rule(cfg)
    rule[0, 0] = 1  # pays more than the surplus
    with pytest.raises(IllegalAction):
        policy_value_exp(cfg, rule)


@pytest.mark.parametrize("rule", [
    np.tile([0, 0.5, 1.5, 2.5], (3, 1)),  # read as int64, it was [0, 0, 1, 2]
    np.tile([0.0, 1.0, 2.0, 3.0], (3, 1)),  # whole numbers, but floats
    lambda n, x, s: x / 2,
])
def test_non_integer_rule_is_refused(rule):
    # a table is checked whole, a policy's answer depth by depth
    cfg = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 3)
    want = ("policy returned non-integer actions at depth 0" if callable(rule)
            else "rule actions must be integers, got dtype float64")
    with pytest.raises(IllegalAction, match=f"^{re.escape(want)}$"):
        policy_value_exp(cfg, rule)


def test_callable_rule_that_does_not_broadcast_is_refused():
    cfg = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 3)
    with pytest.raises(IllegalAction, match=re.escape(
            "policy returned actions of shape (3,) for surplus of shape (4,) at depth 0")):
        policy_value_exp(cfg, lambda n, x, s: np.zeros(3, dtype=np.int64))


def test_rule_shape_checked():
    cfg = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 3)
    with pytest.raises(ValidationError):
        policy_value_exp(cfg, np.zeros((2, 2), dtype=np.int64))


def test_requires_exponential_utility():
    cfg = make_config("power", {1: 0.5, -1: 0.5}, 0.5, 0.5, 4, 3)
    with pytest.raises(ValidationError, match="howard requires the exponential utility"):
        howard_solve(cfg)


def test_callable_rule_equals_array_rule():
    cfg = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 3)
    by_array, _ = policy_value_exp(cfg, pay_all_rule(cfg))
    by_call, _ = policy_value_exp(cfg, lambda n, x, s: x)
    assert np.array_equal(by_array.lo, by_call.lo)
    assert np.array_equal(by_array.hi, by_call.hi)


def test_pay_all_bracket_contains_truncated_expectation():
    cfg = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 3)
    table, _ = policy_value_exp(cfg, pay_all_rule(cfg))
    for x0 in range(cfg.x_max + 1):
        val = exact_policy_value(cfg, lambda n, x, s: x, x0, cfg.depth)
        # hi closes the tail with 1, which makes it exactly the truncated
        # expectation; lo bounds the infinite-horizon value from below
        assert abs(val - table.hi[0, x0]) <= 1e-12
        assert table.lo[0, x0] - 1e-12 <= val <= 1.0


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(howard, "MAX_ITERATIONS", 1)
    with pytest.raises(MaxIterations) as err:
        howard_solve(CLAIM)
    assert err.value.iterations == 1
    assert err.value.gap > 0
