"""Exponential-utility solver: envelopes, brackets, bands, neutral limit."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import divbands.exp_solver as exp_solver
from divbands.errors import MaxIterations, NotABand, ValidationError, ValueUnderflow
from divbands.exp_solver import (
    BandFunction,
    ThetaSchedule,
    band_from_actions,
    envelope_factors,
    extract_bands,
    required_cap,
    solve_exp,
    solve_neutral,
    suggest_depth,
)
from divbands.howard import pay_all_rule, policy_value_exp
from divbands.model import ProblemConfig, Utility, validate_distribution
from divbands.oracle import exact_optimal
from helpers import (DOWN_ONE, assert_band_laws, make_config, mgf_plus, reference_bands,
                     reference_schedule, sized_exp_config, two_point, two_table_induct)

TINY = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 4)

# retention is worthwhile here: the depth-0 barrier sits at 3, not 0
BANDY = sized_exp_config({-1: 0.3, 1: 0.7}, 0.95, -0.05)


def test_envelope_factors_hand_value():
    d = validate_distribution({1: 0.6, -1: 0.4})
    mgf, c = envelope_factors(d, -0.5)
    assert mgf == pytest.approx(0.4 + 0.6 * math.exp(-0.5), rel=1e-15)
    assert c == pytest.approx(0.6 * math.exp(-0.5), rel=1e-15)
    assert envelope_factors(d, 0.0) == pytest.approx((1.0, 0.6))
    # a zero income counts in both sums, a negative one in E e^{t Z+} alone
    mgf, c = envelope_factors(validate_distribution({-1: 0.2, 0: 0.3, 2: 0.5}), -0.25)
    assert mgf == pytest.approx(0.5 + 0.5 * math.exp(-0.5), rel=1e-15)
    assert c == pytest.approx(0.3 + 0.5 * math.exp(-0.5), rel=1e-15)
    with pytest.raises(ValidationError, match="t <= 0"):
        envelope_factors(d, 0.5)


@pytest.mark.parametrize("mapping", [{1: 0.6, -1: 0.4}, {1: 0.5, 2: 0.1, -1: 0.3, -2: 0.1},
                                     {-3: 0.1, 0: 0.2, 1: 0.3, 4: 0.4}])
@pytest.mark.parametrize("t", [-1.0, -0.05, -3.7e-9, -0.0])
def test_envelope_factors_equal_the_generator_sums_exactly(mapping, t):
    d = validate_distribution(mapping)
    c = sum(q * math.exp(t * k) for k, q in d.items() if k >= 0)
    assert envelope_factors(d, t) == (mgf_plus(d, t), c)


def test_schedule_is_geometric():
    sched = ThetaSchedule.build(TINY)
    for n, th in enumerate(sched.thetas):
        assert th == pytest.approx(TINY.gamma * TINY.beta**n, rel=1e-14)


def test_depth_with_subnormal_theta_is_refused_before_the_orbit():
    # at beta 0.9 theta_n = -0.9^n sticks at a subnormal and never reaches
    # 0: theta_6723 = -2.357e-308 is the last normal one, theta_6724 =
    # -2.121e-308 is not, and a depth of 10**9 is refused without forming
    # 10**9 levels
    def probe(depth):
        return SimpleNamespace(dist=validate_distribution({1: 0.6, -1: 0.4}), beta=0.9,
                               gamma=-1.0, depth=depth, tail_eps=1e-8)

    assert ThetaSchedule.build(probe(6723)).thetas[-1] == -2.3571703009247685e-308
    for depth in (6724, 10**9):
        with pytest.raises(ValidationError, match=(
                f"depth {depth} is too deep .* subnormal .* largest depth whose "
                "theta_n is a normal double is 6723$")):
            ThetaSchedule.build(probe(depth))


def test_h_lower_matches_direct_product():
    sched = ThetaSchedule.build(TINY)
    theta = sched.thetas[0]
    direct = 1.0
    k = 1
    while abs(theta) * TINY.beta**k > 1e-16:
        direct *= mgf_plus(TINY.dist, theta * TINY.beta**k)
        k += 1
    # a lower bound, short of the product by at most the truncation target
    assert direct - TINY.tail_eps <= sched.h_lower[0] <= direct + 1e-12


def test_h_envelopes_ordered_and_bounded():
    sched = ThetaSchedule.build(TINY)
    for lower, upper in zip(sched.h_lower, sched.h_upper):
        assert 0.0 < lower <= upper <= 1.0


def test_certain_loss_degenerates():
    cfg = make_config("exponential", DOWN_ONE, 0.5, -1.0, 3, 4)
    sched = ThetaSchedule.build(cfg)
    assert sched.h_lower == sched.h_upper == (1.0,) * (cfg.depth + 1)
    assert sched.s_star == 0.0
    assert sched.s_tilde_star == 0.0
    assert required_cap(cfg) == 0


def test_payout_pressure_dominates_barrier_bound():
    sched = ThetaSchedule.build(BANDY)
    assert 0.0 < sched.s_star <= sched.s_tilde_star + 1e-12


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b))) if a != b else 0.0


def _schedule_or_error(build, probe):
    try:
        return build(probe)
    except ValidationError as exc:
        return type(exc)


# the README config, DYADIC's income and discount (where every theta_N
# beta^k is exact) and the exponential instances of the benchmark's seed-0
# jobs, oracle-check's depth-7 re-solves included: (income, beta, gamma, depth)
EXACT_SCHEDULES = [
    ({1: 0.6, -1: 0.4}, 0.9, -1.0, 213),
    ({1: 0.5, -1: 0.5}, 0.5, -0.5, 3),
    ({-1: 0.3, 1: 0.7}, 0.95, -0.05, 408),
    ({1: 0.5, 2: 0.1, -1: 0.3, -2: 0.1}, 0.95, -0.05, 409),
    ({1: 0.55, -2: 0.45}, 0.9, -0.5, 205),
    ({1: 0.6, -1: 0.4}, 0.9, -1.0, 7),
    ({1: 0.55, -2: 0.45}, 0.9, -0.5, 7),
]


@pytest.mark.parametrize("mapping,beta,gamma,depth", EXACT_SCHEDULES)
def test_one_orbit_schedule_equals_reference_exactly(mapping, beta, gamma, depth):
    probe = SimpleNamespace(dist=validate_distribution(mapping), beta=beta,
                            gamma=gamma, depth=depth, tail_eps=1e-8)
    sched, ref = ThetaSchedule.build(probe), reference_schedule(probe)
    assert (sched.thetas, sched.h_lower, sched.h_upper, sched.s_star,
            sched.s_tilde_star, sched.cap) == (
        ref.thetas, ref.h_lower, ref.h_upper, ref.s_star, ref.s_tilde_star, ref.cap)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(support=[-1, 1], weights=[0.4, 0.6], beta=0.9, gamma=-1.0, depth=1,
         tail_eps=1e-8)
@example(support=[-1, 1], weights=[0.4, 0.6], beta=0.5, gamma=-1.0, depth=1100,
         tail_eps=1e-8)  # theta_N underflows to -0.0
@example(support=[-1, 0, 3, 4], weights=[0.21597196527516133, 0.5036957766259479,
                                         0.030597932543329574, 0.24973432555556122, 1.0],
         beta=0.99, gamma=-0.3799193592784497, depth=241,
         tail_eps=1e-12)  # h_upper 4 ulps apart
@example(support=[-1, 1, 2, 4], weights=[0.026131735825292133, 0.28838180912723554,
                                         0.6096586545632673, 0.07582780048420502, 1.0],
         beta=0.9082035351651019, gamma=-0.021044768323295705, depth=4,
         tail_eps=1e-8)  # s_star 8 ulps apart
@given(support=st.lists(st.integers(-3, 4), min_size=2, max_size=5, unique=True)
       .filter(lambda ks: min(ks) < 0),
       weights=st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5),
       beta=st.floats(0.3, 0.995), gamma=st.floats(-20.0, -1e-4),
       depth=st.integers(1, 300),
       tail_eps=st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6]))
def test_one_orbit_schedule_matches_two_loop_reference(support, weights, beta, gamma,
                                                       depth, tail_eps):
    # below theta_N the reference's h_upper runs over theta multiplied by
    # beta k times, not theta_N * beta^k, so each level's factor may round
    # apart by an ulp; c(theta) <= 1 - p_neg contracts what accumulates to
    # within 2/p_neg ulps, and s_star divides ln h_upper by theta_n (beta-1)
    total = sum(weights[:len(support)])
    dist = validate_distribution({k: w / total for k, w in zip(support, weights)})
    probe = SimpleNamespace(dist=dist, beta=beta, gamma=gamma, depth=depth,
                            tail_eps=tail_eps)
    sched = _schedule_or_error(ThetaSchedule.build, probe)
    ref = _schedule_or_error(reference_schedule, probe)
    if isinstance(ref, type):
        assert sched is ref
        return
    assert sched.thetas == ref.thetas
    assert sched.h_lower == ref.h_lower
    ulps = 2.0 / dist.p_negative
    assert max(map(_ulps, sched.h_upper, ref.h_upper)) <= ulps
    den = abs(sched.thetas[-1]) * (1.0 - beta)
    assert abs(sched.s_star - ref.s_star) <= (
        2 * math.ulp(ref.s_star) + (ulps + 1) * math.ulp(1.0) / den)
    assert _ulps(sched.s_tilde_star, ref.s_tilde_star) <= 2
    assert sched.cap == ref.cap


def _table_bytes(table, policy):
    return table.lo.tobytes(), table.hi.tobytes(), policy.action.tobytes()


BLOCK = exp_solver.EXP_BLOCK


def _block_example(depth, rule, support=(-1, 1)):
    """An explicit draw at ``depth``, which places the block edges."""
    return example(support=list(support), weights=[0.4, 0.6, 0.3, 0.2], beta=0.9,
                   gamma=-0.5, depth=depth, extra=2, rule=rule)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(support=st.lists(st.integers(-3, 4), min_size=2, max_size=4, unique=True)
       .filter(lambda ks: min(ks) < 0),
       weights=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
       beta=st.floats(0.3, 0.9), gamma=st.floats(-3.0, -1e-3),
       depth=st.integers(1, 2 * BLOCK + 2), extra=st.integers(0, 12),
       rule=st.sampled_from(["pay-all", "optimal", "greedy"]))
@_block_example(1, "greedy")
@_block_example(BLOCK - 1, "pay-all", support=(-2, 1, 3))
@_block_example(BLOCK, "greedy", support=(-3, 2, 4))
@_block_example(BLOCK + 1, "optimal")
@_block_example(2 * BLOCK + 1, "greedy", support=(-1, 2))
def test_one_array_induction_matches_two_tables(support, weights, beta, gamma, depth,
                                                extra, rule):
    # lo and hi in one array see the same elementwise operations as in two
    # tables, and a depth's factors the same from its block of depths, so
    # every table and rule is the same to the bit, across block edges too
    total = sum(weights[:len(support)])
    dist = validate_distribution({k: w / total for k, w in zip(support, weights)})
    probe = SimpleNamespace(dist=dist, beta=beta, gamma=gamma, depth=depth,
                            tail_eps=1e-8)
    try:
        cfg = ProblemConfig(beta=beta, gamma=gamma, utility=Utility.EXPONENTIAL,
                            dist=dist, x_max=required_cap(probe) + extra, depth=depth)
    except ValueUnderflow:
        assume(False)
    for terminal in ("tail", "unit"):
        assert (_table_bytes(*solve_exp(cfg, terminal=terminal))
                == _table_bytes(*two_table_induct(cfg, terminal=terminal)))
    fixed = {"pay-all": pay_all_rule(cfg), "optimal": solve_exp(cfg)[1].action,
             "greedy": policy_value_exp(cfg, pay_all_rule(cfg))[1].action}[rule]
    assert (_table_bytes(*policy_value_exp(cfg, fixed))
            == _table_bytes(*two_table_induct(cfg, fixed)))


# the benchmark's seed-0 exp-solve instances at their sizes:
# (income, beta, gamma, x_max, depth) of readme, bandy, fourpoint and threeband
BENCHMARK_INSTANCES = [
    ({1: 0.6, -1: 0.4}, 0.9, -1.0, 44, 213),
    ({-1: 0.3, 1: 0.7}, 0.95, -0.05, 228, 408),
    ({1: 0.5, 2: 0.1, -1: 0.3, -2: 0.1}, 0.95, -0.05, 236, 409),
    ({1: 0.55, -2: 0.45}, 0.9, -0.5, 40, 205),
]


@pytest.mark.parametrize("mapping,beta,gamma,x_max,depth", BENCHMARK_INSTANCES)
def test_induction_and_bands_are_exact_at_benchmark_size(mapping, beta, gamma, x_max, depth):
    cfg = make_config("exponential", mapping, beta, gamma, x_max, depth)
    for terminal in ("tail", "unit"):
        assert (_table_bytes(*solve_exp(cfg, terminal=terminal))
                == _table_bytes(*two_table_induct(cfg, terminal=terminal)))
    greedy = policy_value_exp(cfg, pay_all_rule(cfg))[1].action
    assert (_table_bytes(*policy_value_exp(cfg, greedy))
            == _table_bytes(*two_table_induct(cfg, greedy)))
    policy = solve_exp(cfg)[1]
    assert ([(b.c, b.d) for b in extract_bands(policy)]
            == reference_bands(policy.action))


@pytest.mark.parametrize("cfg", [
    TINY,
    sized_exp_config({1: 0.35, 2: 0.25, -2: 0.4}, 0.8, -2.0, depth=8),
])
def test_envelope_bounds_every_entry(cfg):
    table, _ = solve_exp(cfg)
    sched = cfg.schedule
    xs = np.arange(cfg.x_max + 1)
    for n in range(cfg.depth + 1):
        decay = np.exp(sched.thetas[n] * xs)
        floor = decay * sched.h_lower[n]
        ceil = decay * sched.h_upper[n]
        assert np.all(table.lo[n] >= floor - 1e-12)
        assert np.all(table.hi[n] <= np.minimum(1.0, ceil) + 1e-12)
        assert np.all(table.lo[n] <= table.hi[n] + 1e-15)


def test_values_decay_by_at_most_e_theta_per_unit():
    table, _ = solve_exp(TINY)
    sched = TINY.schedule
    for n in range(TINY.depth + 1):
        fac = math.exp(sched.thetas[n])
        for x in range(1, TINY.x_max + 1):
            w = table.hi[n, x] - table.lo[n, x]
            w_prev = table.hi[n, x - 1] - table.lo[n, x - 1]
            tol = w + w_prev + 1e-12
            assert table.hi[n, x] <= fac * table.hi[n, x - 1] + tol
            assert table.lo[n, x] <= fac * table.lo[n, x - 1] + tol


def test_unit_terminal_equals_oracle():
    table, _ = solve_exp(TINY, terminal="unit")
    for x0 in range(TINY.x_max + 1):
        val, _ = exact_optimal(TINY, x0, TINY.depth)
        lo, hi = table.value_bracket(0, x0)
        assert hi - lo <= 1e-12
        assert val == pytest.approx(lo, abs=1e-12)


def test_tail_bracket_contains_converged_value():
    deep = make_config("exponential", {1: 0.7, -1: 0.3}, 0.5, -1.0, 3, 120)
    ref, _ = solve_exp(deep, terminal="unit")
    table, _ = solve_exp(TINY)  # depth 4 tail closure
    for x0 in range(TINY.x_max + 1):
        lo, hi = table.value_bracket(0, x0)
        assert lo - 1e-12 <= ref.lo[0, x0] <= hi + 1e-12


def test_cap_extension_is_exact():
    table, policy = solve_exp(TINY)
    theta0 = TINY.schedule.thetas[0]
    base_lo, base_hi = table.value_bracket(0, TINY.x_max)
    ext_lo, ext_hi = table.value_bracket(0, TINY.x_max + 3)
    assert ext_lo == pytest.approx(math.exp(3 * theta0) * base_lo, rel=1e-14)
    assert ext_hi == pytest.approx(math.exp(3 * theta0) * base_hi, rel=1e-14)
    over = policy(0, TINY.x_max + 5, 0.0)
    assert over == 5 + policy.action[0, TINY.x_max]


def test_ruin_row_is_one():
    table, _ = solve_exp(TINY)
    assert table.value_bracket(2, -4) == (1.0, 1.0)


def test_band_function_evaluates_cuts():
    band = BandFunction(c=(1,), d=())
    assert [band.evaluate(x) for x in range(5)] == [0, 0, 1, 2, 3]
    two = BandFunction(c=(0, 2), d=(2,))
    assert [two.evaluate(x) for x in range(5)] == [0, 1, 0, 1, 2]
    assert two.cut_string() == "0;2;2"


def test_band_function_rejects_bad_cuts():
    with pytest.raises(NotABand):
        BandFunction(c=(0, 1), d=(2,))  # c_1 below d_1
    with pytest.raises(NotABand):
        BandFunction(c=(0, 3), d=(1,))  # d_1 hugs c_0
    with pytest.raises(NotABand):
        BandFunction(c=(), d=())
    with pytest.raises(NotABand, match="cut counts mismatch"):
        BandFunction(c=(0, 3), d=())
    with pytest.raises(NotABand, match="nonnegative"):
        BandFunction(c=(-1,), d=())


def test_band_from_actions():
    assert band_from_actions([0, 0, 1, 2]).c == (1,)
    parsed = band_from_actions([0, 1, 0, 1, 2])
    assert parsed.c == (0, 2) and parsed.d == (2,)
    with pytest.raises(NotABand):
        band_from_actions([1, 0, 0])
    with pytest.raises(NotABand):
        band_from_actions([0, 0, 2, 0])  # pays below its own zero set


def random_band_table(rng, rows: int, width: int) -> np.ndarray:
    """Band rules a(x) = x - max{y <= x : a(y) = 0} on random zero sets."""
    xs = np.arange(width)
    zero = rng.random((rows, width)) < rng.uniform(0.05, 0.9)
    zero[:, 0] = True
    return xs - np.maximum.accumulate(np.where(zero, xs, 0), axis=1)


def outcome(parse, table):
    try:
        return parse(table)
    except NotABand as exc:
        return str(exc)


def test_one_pass_extraction_matches_per_column_parser():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(400):  # tables past 16 rows span extraction slices
        table = random_band_table(rng, int(rng.integers(1, 40)),
                                  int(rng.integers(1, 12)))
        for _ in range(int(rng.integers(0, 3))):  # break some entries
            n, x = rng.integers(0, table.shape[0]), rng.integers(0, table.shape[1])
            table[n, x] = rng.integers(0, table.shape[1] + 1)
        want = outcome(reference_bands, table)
        got = outcome(lambda t: [(b.c, b.d) for b in
                                 extract_bands(SimpleNamespace(action=t))], table)
        assert got == want
        one = outcome(lambda t: [(b.c, b.d) for b in
                                 (band_from_actions(r) for r in t)], table)
        assert one == want
        seen.add(want if isinstance(want, str) and "x=0" in want else type(want))
    # every outcome occurred: bands, the x=0 rule and a broken cut structure
    assert seen == {list, str, "action at x=0 must be 0"}
    with pytest.raises(NotABand, match="x=0 must be 0"):
        band_from_actions([])


def test_bandy_instance_has_positive_barrier():
    table, policy = solve_exp(BANDY)
    bands = extract_bands(policy)
    assert len(bands) == BANDY.depth
    assert policy.xi[0] == 3
    assert bands[0].evaluate(BANDY.x_max) == BANDY.x_max - 3
    assert_band_laws(policy)  # at every entry of every depth


def test_wide_cap_ties_are_relative():
    # x_max far above the barrier: J falls below 1e-12 at the top, where
    # an absolute tie tolerance made every action tie and broke the bands
    probe = make_config("exponential", {-1: 0.3, 1: 0.7}, 0.95, -0.05, 700, 1)
    cfg = dataclasses.replace(probe, depth=suggest_depth(probe))
    assert cfg.depth == 429
    _, policy = solve_exp(cfg)
    bands = extract_bands(policy)
    assert bands[0].cut_string() == "3"
    assert_band_laws(policy)


def test_largest_gamma_below_underflow_gate_solves():
    def accepted(gamma):
        try:
            return make_config("exponential", {1: 0.6, -1: 0.4}, 0.9, gamma, 300, 60)
        except ValueUnderflow:
            return None

    ok, bad = -0.1, -3.0
    for _ in range(40):
        mid = 0.5 * (ok + bad)
        if accepted(mid):
            ok = mid
        else:
            bad = mid
    table, _ = solve_exp(accepted(ok))
    assert np.all(np.isfinite(table.lo)) and np.all(np.isfinite(table.hi))
    assert np.all(table.lo > 0)
    assert np.all(table.lo <= table.hi) and np.all(table.hi <= 1.0)


def test_solvers_reject_a_wrong_mode_or_utility():
    with pytest.raises(ValidationError, match="unknown terminal mode 'cap'"):
        solve_exp(TINY, terminal="cap")
    with pytest.raises(ValidationError, match="requires the risk-neutral utility"):
        solve_neutral(TINY)


def test_neutral_frozen_reference():
    cfg = make_config("risk_neutral", two_point(0.6, 1), 0.9, 0.0, 54, 5)
    sol = solve_neutral(cfg)
    # V(1) = 1/(1 - 0.9*0.6) under pay-all; iteration stops within tail_eps
    assert sol.values[1] == pytest.approx(1.0 / 0.46, abs=2e-8)
    assert sol.band().cut_string() == "0"
    assert np.all(sol.action == np.arange(55))


def test_neutral_iteration_cap_raises(monkeypatch):
    # the values after 3 of the 44 sweeps this config needs are 2.69 above
    # the certified ones; returning them would certify nothing
    cfg = make_config("risk_neutral", two_point(0.6, 1), 0.9, 0.0, 54, 5)
    assert solve_neutral(cfg).iterations == 44
    monkeypatch.setattr(exp_solver, "NEUTRAL_MAX_ITERATIONS", 3)
    with pytest.raises(MaxIterations, match="no convergence after 3 iterations") as err:
        solve_neutral(cfg)
    assert err.value.iterations == 3 and err.value.gap > cfg.tail_eps


def test_neutral_certain_loss_identity():
    cfg = make_config("risk_neutral", DOWN_ONE, 0.9, 0.0, 6, 5)
    sol = solve_neutral(cfg)
    assert np.allclose(sol.values, np.arange(7), atol=1e-12)
    assert sol(0, 10, 0.0) == 10  # overflow pays everything too


def test_suggest_depth_reaches_width_target():
    cfg = sized_exp_config(two_point(0.6, 1), 0.9, -1.0)
    assert cfg.depth == suggest_depth(cfg)
    table, _ = solve_exp(cfg)
    assert float(np.max(table.hi[0] - table.lo[0])) <= 10 * cfg.tail_eps
