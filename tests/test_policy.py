"""The policy protocol every solver shares: policy(t, x, s) -> actions."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from divbands.errors import DomainError, IllegalAction, PolicyUndefined, UndefinedAction
from divbands.exp_solver import solve_exp, solve_neutral
from divbands.howard import policy_value_exp
from divbands.oracle import exact_policy_value
from divbands.power_solver import solve_power
from divbands.simulate import simulate_paths
from helpers import make_config

SOLVED = {
    "exp": lambda: solve_exp(make_config(
        "exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 4))[1],
    "neutral": lambda: solve_neutral(make_config(
        "risk_neutral", {1: 0.6, -1: 0.4}, 0.5, 0.0, 2, 3)),
    "power": lambda: solve_power(make_config(
        "power", {1: 0.5, -1: 0.5}, 0.5, 0.5, 4, 3, s_grid_points=64))[1],
}


def scrambled(policy):
    """The same policy with random actions in {0..x} in its table.

    Solved rules on desk-size instances barely vary with depth or s, so
    random tables make every index of the lookup matter.
    """
    acts = policy.action
    high = np.arange(policy.config.x_max + 1) + 1
    high = high.reshape((-1,) + (1,) * max(acts.ndim - 2, 0))
    rng = np.random.default_rng(7)
    return dataclasses.replace(policy, action=rng.integers(0, high, size=acts.shape))


@pytest.fixture(scope="module",
                params=[(k, m) for k in sorted(SOLVED) for m in ("solved", "scrambled")],
                ids="-".join)
def policy(request):
    kind, mode = request.param
    solved = SOLVED[kind]()
    return solved if mode == "solved" else scrambled(solved)


def test_vectorised_call_equals_scalar_calls(policy):
    cfg = policy.config
    rng = np.random.default_rng(0)
    x = rng.integers(0, cfg.x_max + 6, size=40)
    # exact payout levels as the oracle passes them, some above the s-grid
    s_exact = [Fraction(int(k), 7) for k in rng.integers(0, 100, size=40)]
    s = np.array([float(v) for v in s_exact])
    for t in (0, 1, cfg.depth - 1, cfg.depth, cfg.depth + 5):
        acts = policy(t, x, s)
        assert acts.shape == x.shape and np.issubdtype(acts.dtype, np.integer)
        scalar = [policy(t, int(xv), float(sv)) for xv, sv in zip(x, s)]
        exact = [policy(t, int(xv), sv) for xv, sv in zip(x, s_exact)]
        assert scalar == exact == acts.tolist()


def test_overflow_pays_down_to_the_cap(policy):
    cfg = policy.config
    cap = cfg.x_max
    for t in (0, cfg.depth - 1, cfg.depth + 2):
        for x in range(cap + 1, cap + 6):
            for s in (0.0, 2.75, Fraction(5, 3)):
                shifted = s + cfg.beta ** t * (x - cap)
                assert policy(t, x, s) == (x - cap) + policy(t, cap, shifted)


def test_in_cap_lookup_reads_the_table(policy):
    cfg = policy.config
    x = np.arange(cfg.x_max + 1)
    rules = policy.action if policy.action.ndim > 1 else policy.action[None]
    for t in (0, 1, cfg.depth - 1, cfg.depth, cfg.depth + 7):
        row = rules[min(t, len(rules) - 1)]  # past the horizon: the last rule
        for s in (0.0, 0.5, 7.25):
            want = row if row.ndim == 1 else row[:, policy.grid.floor_index(s)]
            assert np.array_equal(policy(t, x, s), want)


def test_ruined_surplus_has_no_action(policy):
    cfg = policy.config
    for t in (0, cfg.depth - 1, cfg.depth + 3):
        for x in (-1, -cfg.x_max - 1, np.array([0, 2, -1]), np.array([[-3]])):
            with pytest.raises(PolicyUndefined, match="ruined surplus"):
                policy(t, x, 0.0)
        assert np.array_equal(policy(t, np.array([0, 1]), 0.0),
                              [policy(t, 0, 0.0), policy(t, 1, 0.0)])


def test_negative_payout_level_has_no_action():
    table, policy = solve_power(make_config(
        "power", {1: 0.5, -1: 0.5}, 0.5, 0.5, 4, 3, s_grid_points=64))
    for s in (-5.0, np.nan):  # the value table already refused these
        with pytest.raises(DomainError, match="accumulated payout"):
            table.value_bracket(0, 3, s)
    for s in (-5.0, -1e-300, Fraction(-1, 3), np.nan, np.array([0.0, 1.5, -2.0]),
              np.array([[np.nan]])):
        for x in (3, policy.config.x_max + 2, np.array([0, 1, 2])):
            with pytest.raises(DomainError, match="accumulated payout"):
                policy(0, x, s)
    assert policy(0, 3, 0.0) == policy(0, 3, np.array([0.0]))[0]


def test_every_consumer_takes_the_solver_policy(policy):
    cfg = policy.config
    result = simulate_paths(dataclasses.replace(cfg, seed=1), policy, cfg.x_max, 64,
                            max_steps=50)
    assert result.n_paths == 64
    value = exact_policy_value(cfg, policy, cfg.x_max, 3)
    assert np.isfinite(value)


def test_exp_policy_is_priced_alike_by_oracle_and_howard():
    cfg = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 3)
    _, policy = solve_exp(cfg)
    table, _ = policy_value_exp(cfg, policy)
    assert table.config is cfg  # its schedule is cfg.schedule, built at validation
    for x0 in range(cfg.x_max + 1):
        # the hi channel closes the tail with 1: the truncated expectation
        val = exact_policy_value(cfg, policy, x0, cfg.depth)
        assert abs(val - table.hi[0, x0]) <= 1e-12


# x_max 1 lies below s_tilde_star (1.39), so howard admits a rule that pays
# nothing; the oracle and the simulation start at x = 1
ONE = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 1, 3)

# every caller that prices a policy, with the class it refuses an answer with
CALLERS = {
    "simulate": (lambda policy: simulate_paths(ONE, policy, 1, 10, max_steps=4),
                 PolicyUndefined),
    "howard": (lambda policy: policy_value_exp(ONE, policy), IllegalAction),
    "oracle": (lambda policy: exact_policy_value(ONE, policy, 1, 3), UndefinedAction),
}

# (answer to policy(t, x, s), accepted); x is an array or a Python int
ANSWERS = {
    "int": (lambda x: 0, True),
    "np.int64": (lambda x: np.int64(0), True),
    "np.where": (lambda x: np.where(x > 2, x - 2, 0), True),  # 0-d at a scalar x
    "0-d": (lambda x: np.array(0), True),
    "uint8": (lambda x: (np.asarray(x) // 2).astype(np.uint8), True),
    "uint64": (lambda x: (np.asarray(x) // 2).astype(np.uint64), True),
    "one-element": (lambda x: np.zeros(1, dtype=np.int64), True),
    "wrong-shape": (lambda x: np.zeros(3, dtype=np.int64), False),
    "float": (lambda x: np.asarray(x) / 2, False),
    "whole-float": (lambda x: 0.0, False),
    "True": (lambda x: True, False),
    "np.bool_": (lambda x: np.bool_(True), False),
    "negative": (lambda x: -1, False),
    "above-x": (lambda x: np.asarray(x) + 1, False),
}


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("answer", ANSWERS)
def test_every_caller_checks_an_answer_alike(caller, answer):
    price, refusal = CALLERS[caller]
    act, accepted = ANSWERS[answer]
    policy = lambda t, x, s: act(x)
    if accepted:
        price(policy)
    else:
        with pytest.raises(refusal) as got:
            price(policy)
        assert type(got.value) is refusal  # PolicyUndefined is an UndefinedAction too


def test_simulated_surplus_stays_int64_after_unsigned_answers():
    seen = []

    def policy(t, x, s):
        seen.append(x.dtype)
        return (x // 2).astype(np.uint64)

    simulate_paths(ONE, policy, 6, 100, max_steps=5)
    assert len(seen) > 1 and set(seen) == {np.dtype(np.int64)}
