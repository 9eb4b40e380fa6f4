"""Monte Carlo engine: determinism, summary contract, brackets, ruin bound."""

import functools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divbands.simulate
from divbands.errors import InvariantViolation, PolicyUndefined, ValidationError
from divbands.exp_solver import solve_exp, solve_neutral
from divbands.power_solver import solve_log, solve_power
from divbands.simulate import (
    BATCH,
    SimulationResult,
    _income_index,
    _income_thresholds,
    ruin_certainty_check,
    simulate_paths,
)
from helpers import (DOWN_ONE, make_config, reference_simulate, sized_exp_config,
                     two_point)

SUMMARY_KEYS = {"n_paths", "mean_utility", "std_err", "ruin_fraction",
                "mean_ruin_time", "truncated_fraction"}

TINY = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 4)


@pytest.fixture(scope="module")
def claim():
    cfg = sized_exp_config(two_point(0.6, 1), 0.9, -1.0)
    _, policy = solve_exp(cfg)
    return cfg, policy


def test_certain_loss_paths_are_exact():
    cfg = make_config("exponential", DOWN_ONE, 0.5, -1.0, 4, 3)
    _, policy = solve_exp(cfg)
    result = simulate_paths(cfg, policy, 3, 64, max_steps=50)
    s = result.summary()
    # every path pays 3 up front and is ruined one step later
    assert s["mean_utility"] == -math.exp(-3.0)
    assert s["std_err"] == 0.0
    assert s["ruin_fraction"] == 1.0
    assert s["mean_ruin_time"] == 1.0
    assert s["truncated_fraction"] == 0.0
    assert np.all(result.discounted_sums == 3.0)


def test_summary_keys_and_none_ruin_time():
    cfg = make_config("exponential", two_point(0.9, 1), 0.5, -1.0, 3, 3)
    hold = lambda t, x, s: 0
    result = simulate_paths(cfg, hold, 5, 32, max_steps=3)
    s = result.summary()
    assert set(s) == SUMMARY_KEYS
    # x0=5 cannot reach ruin within three held steps
    assert s["ruin_fraction"] == 0.0
    assert s["mean_ruin_time"] is None
    assert s["truncated_fraction"] == 1.0
    one = simulate_paths(cfg, hold, 5, 1, max_steps=3)
    assert one.std_err == math.inf and one.summary()["std_err"] is None


def test_prefix_stable_within_batch():
    _, policy = solve_exp(TINY)
    cfg = replace(TINY, seed=2)
    small = simulate_paths(cfg, policy, 2, 100, max_steps=200)
    large = simulate_paths(cfg, policy, 2, 1000, max_steps=200)
    assert np.array_equal(small.discounted_sums, large.discounted_sums[:100])
    assert np.array_equal(small.ruin_times, large.ruin_times[:100])
    assert np.array_equal(small.truncated, large.truncated[:100])


def test_prefix_stable_across_batches():
    _, policy = solve_exp(TINY)
    cfg = replace(TINY, seed=2)
    one = simulate_paths(cfg, policy, 2, BATCH, max_steps=200)
    two = simulate_paths(cfg, policy, 2, BATCH + 7, max_steps=200)
    assert np.array_equal(one.discounted_sums, two.discounted_sums[:BATCH])
    assert np.array_equal(one.ruin_times, two.ruin_times[:BATCH])


def test_same_seed_same_result_other_seed_differs():
    _, policy = solve_exp(TINY)
    a = simulate_paths(TINY, policy, 2, 500, max_steps=200)
    b = simulate_paths(TINY, policy, 2, 500, max_steps=200)
    c = simulate_paths(replace(TINY, seed=1), policy, 2, 500, max_steps=200)
    assert np.array_equal(a.utilities, b.utilities)
    assert not np.array_equal(a.ruin_times, c.ruin_times)


def test_stderr_scales_with_paths(claim):
    cfg, policy = claim
    cfg = replace(cfg, seed=3)
    r1 = simulate_paths(cfg, policy, 2, 4000, max_steps=2000)
    r2 = simulate_paths(cfg, policy, 2, 16000, max_steps=2000)
    assert r1.std_err / r2.std_err == pytest.approx(2.0, rel=0.2)


def test_exp_mean_within_solver_bracket(claim):
    cfg, policy = claim
    table, _ = solve_exp(cfg)
    result = simulate_paths(replace(cfg, seed=3), policy, 2, 16000, max_steps=2000)
    j_est = cfg.gamma * result.mean_utility
    slack = 4.0 * abs(cfg.gamma) * result.std_err
    assert table.lo[0, 2] - slack <= j_est <= table.hi[0, 2] + slack


def test_power_mean_within_solver_bracket():
    cfg = make_config("power", {1: 0.5, -1: 0.5}, 0.5, 0.5, 4, 3,
                      s_grid_points=256)
    table, policy = solve_power(cfg)
    result = simulate_paths(replace(cfg, seed=7), policy, 4, 20000, max_steps=60)
    lo, hi = table.value_bracket(0, 4, 0.0)
    slack = 4.0 * result.std_err
    assert lo - slack <= result.mean_utility <= hi + slack
    assert result.summary()["truncated_fraction"] == 0.0


def test_neutral_mean_matches_value_function():
    cfg = make_config("risk_neutral", two_point(0.6, 1), 0.9, 0.0, 54, 4)
    sol = solve_neutral(cfg)
    result = simulate_paths(replace(cfg, seed=11), sol, 5, 20000, max_steps=3000)
    slack = 4.0 * result.std_err
    assert sol.values[5] - cfg.tail_eps - slack <= result.mean_utility
    assert result.mean_utility <= sol.values[5] + slack


def test_log_paths_need_positive_start():
    cfg = make_config("logarithmic", {1: 0.5, -1: 0.5}, 0.5, 0.0, 4, 3,
                      s_grid_points=64)
    _, policy = solve_log(cfg)
    with pytest.raises(ValidationError):
        simulate_paths(cfg, policy, 2, 16, y0=0.0)
    result = simulate_paths(cfg, policy, 2, 256, max_steps=100, y0=1.0)
    assert np.all(np.isfinite(result.utilities))


def test_truncation_flagging():
    cfg = make_config("exponential", two_point(0.9, 1), 0.5, -1.0, 3, 3)
    hold = lambda t, x, s: 0
    result = simulate_paths(replace(cfg, seed=4), hold, 0, 2000, max_steps=1)
    s = result.summary()
    assert result.ruin_times.max() <= 1
    assert s["mean_ruin_time"] == 1.0
    # one tenth of the paths draw the unit loss and fall below zero
    assert s["truncated_fraction"] == pytest.approx(0.9, abs=0.034)


def test_argument_validation():
    _, policy = solve_exp(TINY)
    with pytest.raises(ValidationError):
        simulate_paths(TINY, policy, 2, 0)
    with pytest.raises(ValidationError):
        simulate_paths(TINY, policy, 2, 10, max_steps=0)
    with pytest.raises(PolicyUndefined, match="non-integer actions at step 0"):
        simulate_paths(TINY, lambda t, x, s: x * 1.0, 2, 10)


def test_ruin_certainty_check_passes(claim):
    cfg, policy = claim
    frac = ruin_certainty_check(replace(cfg, seed=5), policy, 2, 4000, max_steps=2000)
    assert frac == 1.0  # deterministic given the seed


def test_ruin_certainty_check_rejects_callables():
    _, policy = solve_exp(TINY)
    with pytest.raises(PolicyUndefined):
        ruin_certainty_check(TINY, lambda t, x, s: x, 2, 8, max_steps=4)


def test_ruin_certainty_violation_raises(monkeypatch):
    _, policy = solve_exp(TINY)
    fake = SimulationResult(
        discounted_sums=np.zeros(100), ruin_times=np.full(100, 10),
        truncated=np.ones(100, dtype=bool), utilities=np.full(100, -1.0))
    monkeypatch.setattr(divbands.simulate, "simulate_paths",
                        lambda *a, **k: fake)
    with pytest.raises(InvariantViolation):
        ruin_certainty_check(TINY, policy, 2, 100, max_steps=10)


# cumsum 0.15, 0.44999..., 0.9, 1 - 2^-53: rounded thresholds, and a last
# one below 1, so the top word needs the reference's clamp to K - 1
FOUR = {2: 0.1, 1: 0.45, -1: 0.3, -3: 0.15}
# cumsum 0.5, 1.0, 1.0: the second threshold rounds to 2^53, which no word
# reaches, so income 2 is never drawn
ROUNDED = {-1: 0.5, 1: 0.5, 2: 1e-17}


@functools.cache
def stepping_cases():
    """(config, policy) per case of the live-path reference check."""
    power = make_config("power", {1: 0.5, -1: 0.5}, 0.5, 0.5, 4, 3, s_grid_points=64)
    three = sized_exp_config({1: 0.5, 0: 0.2, -1: 0.3}, 0.5, -1.0)
    four = sized_exp_config(FOUR, 0.5, -1.0)
    five = sized_exp_config({3: 0.1, 1: 0.4, 0: 0.2, -1: 0.2, -2: 0.1}, 0.5, -1.0)
    rounded = sized_exp_config(ROUNDED, 0.5, -1.0)
    return {
        "exp": (TINY, solve_exp(TINY)[1]),
        "power": (power, solve_power(power)[1]),  # depends on s
        # one scalar for all live paths: the smallest live surplus
        "scalar": (TINY, lambda t, x, s: int(x.min())),
        "three": (three, solve_exp(three)[1]),
        "four": (four, solve_exp(four)[1]),
        "five": (five, lambda t, x, s: int(x.min())),
        "rounded": (rounded, solve_exp(rounded)[1]),
    }


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@example(case="exp", x0=0, n_paths=BATCH + 1, max_steps=2000, seed=0)
@example(case="four", x0=0, n_paths=BATCH + 1, max_steps=200, seed=3)
@example(case="power", x0=4, n_paths=BATCH + 1, max_steps=3, seed=1)
@example(case="scalar", x0=3, n_paths=300, max_steps=4, seed=2)
@example(case="three", x0=1, n_paths=2, max_steps=200, seed=0)
@example(case="five", x0=5, n_paths=3, max_steps=200, seed=1)
@example(case="rounded", x0=2, n_paths=50, max_steps=200, seed=2)
# three batches that empty at different steps: the s-reading power rule
# and the four-point support see one call per step across batches
@example(case="power", x0=4, n_paths=2 * BATCH + 5, max_steps=200, seed=2)
@example(case="four", x0=2, n_paths=2 * BATCH + 5, max_steps=200, seed=1)
@given(case=st.sampled_from(["exp", "power", "scalar", "three", "four", "five", "rounded"]),
       x0=st.integers(0, 5), n_paths=st.sampled_from([1, 2, 3, 50, BATCH + 1]),
       max_steps=st.sampled_from([1, 4, 200]), seed=st.integers(0, 3))
def test_live_paths_match_all_paths_reference(case, x0, n_paths, max_steps, seed):
    cfg, policy = stepping_cases()[case]
    cfg = replace(cfg, seed=seed)
    got = simulate_paths(cfg, policy, x0, n_paths, max_steps=max_steps)
    want = reference_simulate(cfg, policy, x0, n_paths, max_steps)
    for field, a, b in zip(("sums", "times", "flags", "utilities"),
                           (got.discounted_sums, got.ruin_times, got.truncated,
                            got.utilities), want):
        assert a.tobytes() == b.tobytes(), field


def test_out_of_range_action_names_the_first_offender():
    # pay 1 at odd surplus until step 5, then pay more than the surplus by
    # an amount set by the path's payouts so far: some paths are ruined by
    # then, and the message names the first offending path
    cfg = make_config("exponential", {1: 0.4, 2: 0.2, -1: 0.4}, 0.5, -1.0, 20, 3,
                      seed=5)
    bad = lambda t, x, s: np.where((t >= 5) & (x >= 3),
                                   x + 1 + (s * 32).astype(np.int64), x % 2)
    with pytest.raises(PolicyUndefined) as want:
        reference_simulate(cfg, bad, 3, 500, 50)
    with pytest.raises(PolicyUndefined) as got:
        simulate_paths(cfg, bad, 3, 500, max_steps=50)
    assert str(got.value) == str(want.value)


def test_one_policy_call_per_step_holds_every_live_path():
    # three batches that empty at different steps: at workers=1 each step is
    # one call on the live paths of every batch, in path order, exactly as
    # the all-paths reference calls it
    cfg = make_config("exponential", {1: 0.7, -1: 0.3}, 0.8, -3.0, 10, 6)
    keep_one = lambda t, x, s: np.maximum(x - 1, 0)
    n_paths = 2 * BATCH + 7

    def recording(calls):
        def policy(t, x, s):
            calls.append((t, x.tobytes(), s.tobytes()))
            return keep_one(t, x, s)
        return policy

    got, want = [], []
    result = simulate_paths(cfg, recording(got), 10, n_paths, max_steps=200)
    reference_simulate(cfg, recording(want), 10, n_paths, 200)
    ends = [int(result.ruin_times[b:b + BATCH].max()) for b in range(0, n_paths, BATCH)]
    assert len(set(ends)) == 3 and max(ends) < 200
    assert [t for t, _, _ in got] == list(range(max(ends)))
    live = [int(np.sum(result.ruin_times > t)) for t in range(max(ends))]
    assert [len(x) // 8 for _, x, _ in got] == live
    assert got == want


def test_actions_that_do_not_broadcast_are_refused():
    with pytest.raises(PolicyUndefined, match=re.escape(
            "policy returned actions of shape (3,) for surplus of shape (10,) at step 0")):
        simulate_paths(TINY, lambda t, x, s: np.zeros(3, dtype=np.int64), 2, 10)
    # a scalar, or a single action, still applies to every path
    hold = simulate_paths(TINY, lambda t, x, s: np.zeros_like(x), 2, 10, max_steps=3)
    for ok in (lambda t, x, s: np.int64(0), lambda t, x, s: np.zeros(1, dtype=np.int64)):
        got = simulate_paths(TINY, ok, 2, 10, max_steps=3)
        assert got.ruin_times.tobytes() == hold.ruin_times.tobytes()


def test_numpy_philox_facts_the_draw_path_rests_on():
    # the simulator reads only the live blocks of a step and maps raw
    # words to incomes itself; both rest on these two properties of numpy
    full = np.random.Philox(key=7).random_raw(4 * 12)
    bits = np.random.Philox(key=7)
    bits.advance(3)  # from a block boundary: skips exactly 12 words
    assert np.array_equal(bits.random_raw(8), full[12:20])
    bits.random_raw(1)  # mid-block: the 3 buffered words are discarded
    bits.advance(2)
    assert np.array_equal(bits.random_raw(4), full[32:36])

    n = 4099
    doubles = np.random.Generator(np.random.Philox(key=7)).random(n)
    words = np.random.Philox(key=7).random_raw(n)
    assert doubles.tobytes() == ((words >> 11) * 2.0 ** -53).tobytes()


@st.composite
def incomes_and_words(draw):
    """Probabilities of 1..6 incomes and raw words: random ones, and the
    words whose 53-bit part sits at T_j - 1, T_j, T_j + 1, 0 and 2^53 - 1."""
    weights = draw(st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=6))
    probs = tuple(w / math.fsum(weights) for w in weights)
    edges = [(t >> 11) + d for t in _income_thresholds(probs).tolist() for d in (-1, 0, 1)]
    tops = [m for m in edges + [0, 2 ** 53 - 1] if 0 <= m < 2 ** 53]
    low = draw(st.integers(0, 2 ** 11 - 1))
    words = [m << 11 | low for m in tops]
    words += draw(st.lists(st.integers(0, 2 ** 64 - 1), max_size=20))
    return probs, np.array(words, dtype=np.uint64)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example(probs_words=((0.15, 0.3, 0.45, 0.1),
                      np.array([0, 2 ** 64 - 1], dtype=np.uint64)))
@example(probs_words=((0.1,) * 10, np.array([2 ** 64 - 1], dtype=np.uint64)))
# T_1 rounds to 2^53, which no word reaches; kept, T_1 << 11 would wrap to 0
@example(probs_words=((0.5, 0.5, 1e-17),
                      np.array([0, 2 ** 63, 2 ** 64 - 1, (2 ** 52 - 1) << 11], dtype=np.uint64)))
@given(probs_words=incomes_and_words())
def test_threshold_count_matches_float_search(probs_words):
    probs, words = probs_words
    cum = np.cumsum(np.array(probs))
    want = np.minimum(np.searchsorted(cum, (words >> 11) * 2.0 ** -53, side="right"),
                      len(probs) - 1)
    got = _income_index(words, _income_thresholds(probs))
    assert np.array_equal(got, want)


def test_working_memory_is_flat_in_n_paths_beyond_a_group(monkeypatch):
    # one batch a group: 2 and 8 batches of paths that all live through the
    # run step the same working arrays.  The peak is read as the stepping
    # ends: the outputs are an untraced mmap, and the utilities come after.
    monkeypatch.setattr(divbands.simulate, "GROUP", 1)
    cfg = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 4)
    fork_parts, peaks = divbands.simulate.fork_parts, []

    def measured(k, part):
        fork_parts(k, part)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)

    monkeypatch.setattr(divbands.simulate, "fork_parts", measured)
    tracemalloc.start()
    try:
        for batches in (1, 2, 8):  # the first warms up what numpy caches
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = simulate_paths(cfg, lambda t, x, s: 0, 20, batches * BATCH, max_steps=4)
            assert result.truncated.all()
            del result
    finally:
        tracemalloc.stop()
    # about 56 bytes per live path of a group: over 0.6 MB for one batch
    assert peaks[1] > 40 * BATCH
    assert peaks[2] < 1.05 * peaks[1]
