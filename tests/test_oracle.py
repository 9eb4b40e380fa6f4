"""Brute-force oracle: the reference every solver is judged against.

These tests pin the oracle itself to hand closed forms and to its own
internal consistency checks (history reduction, Markov separability), so
the solver comparisons elsewhere rest on a verified reference.
"""

import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divbands import oracle
from divbands.errors import TooLarge, UndefinedAction, ValidationError
from divbands.model import Utility
from divbands.oracle import (
    exact_optimal,
    exact_policy_value,
    exact_probabilities,
    markov_optimum,
)
from divbands.power_solver import solve_power
from helpers import (DOWN_ONE, make_config, reference_walk, sized_exp_config,
                     two_point)

TINY_EXP = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 3)
TINY_POWER = make_config("power", {1: 0.5, -1: 0.5}, 0.5, 0.5, 4, 3)

# frozen 2026-08-16 from exact_optimal(TINY_POWER, x0=1, horizon=3);
# exact rational tree, longdouble leaves
FROZEN_POWER_X1_H3 = 1.136905131730971

# frozen from the retired by-history walk, which keyed every node by its
# income history, at x0=2, horizon=3 on beta 0.5, {+1: 0.7, -1: 0.3},
# x_max 4, gamma -1 (exp) and 0.5 (power); the state-keyed walk must match them
FROZEN_BY_HISTORY = {"exponential": (-1.0, 0.08916308667328926),
                     "power": (0.5, 1.5688762966666814)}


def test_probabilities_are_exact_rationals():
    cfg = make_config("exponential", {1: 0.1, 2: 0.2, -1: 0.7}, 0.5, -1.0, 3, 2)
    probs = exact_probabilities(cfg.dist)
    assert sum(probs.values()) == Fraction(1)
    assert all(q > 0 for q in probs.values())


def test_certain_loss_forces_pay_all_exp():
    cfg = make_config("exponential", DOWN_ONE, 0.5, -1.0, 4, 3)
    val, tree = exact_optimal(cfg, 2, 3)
    assert val == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert tree.action(0, 2, Fraction(0)) == 2


def test_one_step_horizon_pays_everything():
    val, tree = exact_optimal(TINY_EXP, 3, 1)
    assert val == pytest.approx(math.exp(-3.0), rel=1e-14)
    assert tree.action(0, 3, Fraction(0)) == 3


def test_frozen_power_value():
    val, _ = exact_optimal(TINY_POWER, 1, 3)
    assert val == pytest.approx(FROZEN_POWER_X1_H3, rel=1e-13)


def test_history_reduction_power():
    # identical optima whether states are keyed by (k, x, s) or by history
    lean, _ = exact_optimal(TINY_POWER, 2, 3)
    full, _, _ = reference_walk(TINY_POWER, 2, 3, by_history=True)
    assert lean == full


def test_markov_rules_suffice_for_exp():
    val_all, _ = exact_optimal(TINY_EXP, 2, 2)
    val_markov = markov_optimum(TINY_EXP, 2, 2)
    assert val_all == val_markov


def test_node_guard_trips(monkeypatch):
    monkeypatch.setattr(oracle, "NODE_GUARD", 10)
    with pytest.raises(TooLarge):
        exact_optimal(TINY_EXP, 3, 3)


def test_argument_guards():
    with pytest.raises(ValidationError, match="horizon must be >= 0"):
        exact_optimal(TINY_EXP, 2, -1)
    with pytest.raises(ValidationError, match="exponential case"):
        markov_optimum(TINY_POWER, 2, 2)
    # about 1.7e9 rules at horizon 4: refused before the first is enumerated
    with pytest.raises(TooLarge, match="Markov rules"):
        markov_optimum(TINY_EXP, 3, 4)


def test_policy_value_brackets_optimum():
    pay_all = lambda k, x, s: x
    opt, _ = exact_optimal(TINY_EXP, 2, 3)
    val = exact_policy_value(TINY_EXP, pay_all, 2, 3)
    assert val >= opt - 1e-18  # exp objective is minimized

    opt_p, _ = exact_optimal(TINY_POWER, 2, 3)
    val_p = exact_policy_value(TINY_POWER, pay_all, 2, 3)
    assert val_p <= opt_p + 1e-18  # power objective is maximized


def test_policy_value_of_optimal_tree_is_optimal():
    opt, tree = exact_optimal(TINY_POWER, 2, 3)
    assert exact_policy_value(TINY_POWER, tree, 2, 3) == pytest.approx(opt, rel=1e-15)


@pytest.mark.parametrize("utility", sorted(FROZEN_BY_HISTORY))
def test_by_history_tree_replays_its_optimum(utility):
    # the by-history reference decides every history alike at a shared
    # state, as the state-keyed tree does, and replaying the tree on every
    # history gives back the optimum
    gamma, frozen = FROZEN_BY_HISTORY[utility]
    cfg = make_config(utility, {1: 0.7, -1: 0.3}, 0.5, gamma, 4, 3)
    opt, tree = exact_optimal(cfg, 2, 3)
    ref, ref_dec, _ = reference_walk(cfg, 2, 3, by_history=True)
    assert opt == ref
    assert all(tree.action(*key[:3]) == a for key, a in ref_dec.items())
    assert reference_walk(cfg, 2, 3, policy=tree, by_history=True)[0] == opt
    assert exact_policy_value(cfg, tree, 2, 3) == opt
    assert opt == pytest.approx(frozen, rel=1e-13)


def test_policy_value_rejects_illegal_action():
    with pytest.raises(UndefinedAction):
        exact_policy_value(TINY_EXP, lambda k, x, s: x + 1, 2, 2)


@pytest.mark.parametrize("rule", [lambda k, x, s: x > 0,
                                  lambda k, x, s: np.bool_(x > 0)],
                         ids=["bool", "np.bool_"])
def test_policy_value_refuses_bool_actions(rule):
    # True is an int to isinstance; pricing it as "pay 1" would hide the bug
    readme = make_config("exponential", {1: 0.6, -1: 0.4}, 0.9, -1.0, 44, 3)
    with pytest.raises(UndefinedAction, match=r"^policy returned non-integer actions at depth 0$"):
        exact_policy_value(readme, rule, 2, 3)


def test_tree_lookup_and_dump():
    _, tree = exact_optimal(TINY_EXP, 2, 2)
    with pytest.raises(UndefinedAction):
        tree.action(0, 999, Fraction(0))
    dump = tree.dump(max_depth=1)
    assert dump  # depth-limited dump stays nonempty and bounded
    assert tree.horizon == 2


def test_oracle_y0_shifts_power_wealth():
    base, _ = exact_optimal(TINY_POWER, 0, 1, y0=4.0)
    # x0=0 with one stage: no payout possible, wealth stays y0
    assert base == pytest.approx(2.0, rel=1e-15)


def test_certain_loss_power_closed_form():
    cfg = make_config("power", DOWN_ONE, 0.9, 0.5, 4, 3)
    val, tree = exact_optimal(cfg, 4, 3)
    assert val == pytest.approx(2.0, rel=1e-14)  # pay 4 now, sqrt(4)
    assert tree.action(0, 4, Fraction(0)) == 4


def test_two_point_family_monotone_in_horizon():
    cfg = make_config("exponential", two_point(0.6, 1), 0.5, -0.5, 4, 5)
    vals = [exact_optimal(cfg, 3, h)[0] for h in (1, 2, 3, 4)]
    # extra stages can only lower the minimized objective
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-15


# (utility, gamma, y0) cases of the integer-payout walk's reference check
WALK_CASES = [("exponential", -1.0, 0.0), ("power", 0.5, 0.0),
              ("logarithmic", 0.0, 1.0), ("logarithmic", 0.0, 0.3),
              ("risk_neutral", 0.0, 0.0)]


@pytest.mark.parametrize("beta", [0.5, 0.9, 0.95])
@pytest.mark.parametrize("utility,gamma,y0", WALK_CASES)
def test_walk_matches_fraction_reference(monkeypatch, utility, gamma, y0, beta):
    # x_max only has to pass validation; the trees never reach it
    cfg = make_config(utility, {2: 0.2, 1: 0.4, -1: 0.4}, beta, gamma, 400, 3)
    for horizon in range(5):
        ref_val, ref_dec, visits = reference_walk(cfg, 2, horizon, y0)
        val, tree = exact_optimal(cfg, 2, horizon, y0=y0)
        assert val == ref_val
        assert len(tree.decisions) == len(ref_dec)
        for key, a in ref_dec.items():
            assert tree.action(*key) == a
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "NODE_GUARD", visits)
            exact_optimal(cfg, 2, horizon, y0=y0)
            patch.setattr(oracle, "NODE_GUARD", visits - 1)
            with pytest.raises(TooLarge):
                exact_optimal(cfg, 2, horizon, y0=y0)
        # every history on its own: the same value, bit for bit, and at each
        # state the decision the state-keyed walk recorded
        hist_val, hist_dec, _ = reference_walk(cfg, 1, horizon, y0, by_history=True)
        val, tree = exact_optimal(cfg, 1, horizon, y0=y0)
        assert val == hist_val
        for key, a in hist_dec.items():
            assert tree.action(*key[:3]) == a


# (utility, gamma, y0) and supports of the stagewise walk's property test;
# on the all-loss supports every path is ruined within a few steps, so the
# walk runs out of states before the horizon
STAGE_UTILITIES = [("exponential", -1.0, 0.0), ("exponential", -0.5, 0.0),
                   ("power", 0.5, 0.0), ("logarithmic", 0.0, 1.0),
                   ("logarithmic", 0.0, 0.3), ("risk_neutral", 0.0, 0.0)]
STAGE_SUPPORTS = [DOWN_ONE, {-1: 0.5, -2: 0.5}, {1: 0.5, -1: 0.5}, {1: 0.6, -1: 0.4},
                  {1: 0.55, -2: 0.45}, {0: 0.3, -1: 0.7}, {2: 0.2, 1: 0.4, -1: 0.4},
                  {2: 0.25, -1: 0.5, -3: 0.25}]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(STAGE_UTILITIES), st.sampled_from(STAGE_SUPPORTS),
       st.sampled_from([0.5, 0.75, 0.9]), st.sampled_from(range(-1, 4)),
       st.sampled_from(range(5)), st.none() | st.integers(0, 2**16))
def test_stagewise_walk_matches_reference_walk(case, mapping, beta, x0, horizon, rule_seed):
    # the optimum, or a fixed rule whose integer action depends on the whole
    # state, priced bit for bit as the recursive Fraction walk prices it
    utility, gamma, y0 = case
    cfg = make_config(utility, mapping, beta, gamma, 400, 3)
    if rule_seed is None:
        rule = None
        run = lambda: exact_optimal(cfg, x0, horizon, y0=y0)
    else:
        rule = lambda k, x, s: hash((rule_seed, k, x, s)) % (x + 1)
        run = lambda: exact_policy_value(cfg, rule, x0, horizon, y0=y0)
    ref_val, ref_dec, visits = reference_walk(cfg, x0, horizon, y0, policy=rule)
    got = run()
    if rule is None:
        got, tree = got
        assert len(tree.decisions) == len(ref_dec)
        for key, a in ref_dec.items():
            assert tree.action(*key) == a
    assert got == ref_val
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "NODE_GUARD", visits)
        run()
        patch.setattr(oracle, "NODE_GUARD", visits - 1)
        with pytest.raises(TooLarge):
            run()


def test_policy_value_matches_fraction_reference():
    _, policy = solve_power(TINY_POWER)
    for x0 in range(4):
        ref, _, _ = reference_walk(TINY_POWER, x0, 3, policy=policy)
        assert exact_policy_value(TINY_POWER, policy, x0, 3) == ref
    cfg = make_config("logarithmic", {1: 0.7, -1: 0.3}, 0.9, 0.0, 100, 3)
    _, tree = exact_optimal(cfg, 2, 3, y0=0.3)
    ref, _, _ = reference_walk(cfg, 2, 3, 0.3, policy=tree, by_history=True)
    assert exact_policy_value(cfg, tree, 2, 3, y0=0.3) == ref == tree.value


def test_tree_action_needs_a_reachable_exact_payout():
    _, tree = exact_optimal(TINY_EXP, 2, 3)
    assert tree.action(1, 1, Fraction(0)) == tree.action(1, 1, 0.0)
    with pytest.raises(UndefinedAction):
        tree.action(1, 1, Fraction(1, 3))  # not a multiple of 1 / scale


# trees whose leaves fall outside the range where a power-of-two scale is
# exact in doubles: scale 2^1113 and 2^1060 with n = y0 * scale past the
# largest double (x0 0 pays nothing), scale 2^1007 just inside it, y0 < 0,
# y0 1e-300 (scale 2^1049), and y0 1e300, whose n = y0 * 2^53 overflows a
# double at horizon 2 but not at beta 0.5; x_max only has to pass validation
RANGE_CASES = [("logarithmic", {0: 0.5, -1: 0.5}, 0.9, 0.0, 1.0, 0, 22),
               ("logarithmic", {0: 0.5, -1: 0.5}, 0.9, 0.0, 1.0, 0, 21),
               ("logarithmic", {0: 0.5, -1: 0.5}, 0.9, 0.0, 1.0, 0, 20),
               ("exponential", {0: 0.5, -1: 0.5}, 0.9, -1.0, -3.7, 0, 22),
               ("exponential", {1: 0.6, -1: 0.4}, 0.9, -1.0, -3.7, 2, 4),
               ("logarithmic", {1: 0.6, -1: 0.4}, 0.9, 0.0, 1e-300, 2, 4),
               ("power", {1: 0.6, -1: 0.4}, 0.9, 0.5, 1e300, 2, 2),
               ("power", {1: 0.6, -1: 0.4}, 0.5, 0.5, 1e300, 2, 4)]


@pytest.mark.parametrize("utility,mapping,beta,gamma,y0,x0,horizon", RANGE_CASES)
def test_leaf_scaling_outside_the_double_range_matches_reference_walk(
        utility, mapping, beta, gamma, y0, x0, horizon):
    cfg = make_config(utility, mapping, beta, gamma, 400, 3)
    ref_val, ref_dec, _ = reference_walk(cfg, x0, horizon, y0)
    val, tree = exact_optimal(cfg, x0, horizon, y0=y0)
    assert val == ref_val
    assert len(tree.decisions) == len(ref_dec)
    for key, a in ref_dec.items():
        assert tree.action(*key) == a


def _bit_length_ints(top: int):
    """Integers of either sign whose bit lengths spread evenly over 0..top."""
    return st.integers(0, top).flatmap(lambda b: st.integers(-(2**b), 2**b))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(_bit_length_ints(1026), min_size=1, max_size=6), st.integers(0, 1100))
@example([0, -1, 1, -(2**70 + 3)], 0)
@example([(2**53 + 1) << 40, -((2**53 + 1) << 40), (2**53 + 3) << 40], 1022)  # ties
@example([2**1021 + 1, 2**1022 - 1, -(2**1023 - 1), 2**1023 + 2**970 + 1], 1022)
@example([2**1021 + 1, 2**1022 - 1, -(2**1023 - 1), 2**1023 + 2**970 + 1], 1023)
@example([2**1023 + 1, 2**1024 - 1], 0)  # a double overflows in the split and in n / 1
@example([2**1024 - 1, 5], 1022)
@example([2**59 + 2**26 + 2**25 - 63], 1100)  # head rounded twice if scaled to a subnormal
def test_block_conversion_matches_scalar_conversion(ns, k):
    # _ld_many is _ld over a list, bit for bit, overflow included
    d = 2**k
    try:
        want = np.array([oracle._ld(n, d) for n in ns], np.longdouble)
    except OverflowError:
        with pytest.raises(OverflowError):
            oracle._ld_many(ns, d)
        return
    got = oracle._ld_many(ns, d)
    assert got.dtype == np.longdouble
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_walk_frees_its_memo():
    # nothing of a walk outlives it but the tree it returns: no reference
    # cycle keeps its levels or its payout index alive until the cyclic
    # collector next runs
    cfg = sized_exp_config(two_point(0.6, 1), 0.9, -1.0)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        # a traced first call fills the interpreter's free lists (tuples
        # are kept, not freed), so the second call can reuse them
        exact_optimal(cfg, 4, 5)
        before = tracemalloc.get_traced_memory()[0]
        _, tree = exact_optimal(cfg, 4, 5)
        del tree
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 64 * 1024


def test_payout_numbers_are_listed_a_block_at_a_time(monkeypatch):
    # numbering 300,000 (payout, action) slots holds their int32 numbers and
    # at most _BLOCK of them as Python ints, not one 300,000-entry list
    monkeypatch.setattr(oracle, "_BLOCK", 1024)
    book = oracle._Payouts()
    nums, acts = np.zeros(300_000, dtype=np.int32), np.ones(300_000, dtype=np.int32)
    tracemalloc.start()
    try:
        out = book.add(nums, acts, [0, 5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.int32 and np.all(out == 1) and book.paid == [0, 5]
    assert peak < out.nbytes + 128 * 1024


def test_each_leaf_payout_is_valued_once(monkeypatch):
    # a leaf is worth cash(y0 + s) whatever its depth and surplus: on the
    # README instance at x0 4, horizon 7, 24,116 leaf visits share 13,260
    # payouts, and each payout's worth is computed once; leaves are valued
    # a block at a time, so cash is charged the payouts it is handed
    cfg = sized_exp_config(two_point(0.6, 1), 0.9, -1.0)
    real_ld_many, real_cash = oracle._ld_many, oracle.cash
    converted, valued = [], []
    monkeypatch.setattr(oracle, "_ld_many",
                        lambda ns, d: converted.append((ns, d)) or real_ld_many(ns, d))
    monkeypatch.setattr(oracle, "cash",
                        lambda u, g, w: valued.append(np.size(w)) or real_cash(u, g, w))
    _, tree = exact_optimal(cfg, 4, 7)
    payouts = [n for ns, d in converted if d == tree.scale for n in ns]
    assert sum(valued) == len(payouts) == len(set(payouts)) == 13_260
    assert len(valued) < len(payouts)


@pytest.mark.parametrize("utility,gamma", [("exponential", -1.0), ("power", 0.5)])
def test_exact_ties_go_to_the_largest_action(monkeypatch, utility, gamma):
    # with every leaf worth 1 and dyadic weights, each action's expectation
    # is exactly 1, so every node ties across all of its actions
    monkeypatch.setattr(oracle, "cash", lambda *args: np.longdouble(1.0))
    cfg = make_config(utility, {1: 0.5, -1: 0.5}, 0.5, gamma, 4, 3)
    val, tree = exact_optimal(cfg, 3, 3)
    assert val == 1.0 and len(tree.decisions) > 1
    assert all(a == key[1] for key, a in tree.decisions.items())
