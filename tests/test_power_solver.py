"""Power/log solver: grids, certified interpolation, barriers, closed forms."""

import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from divbands import power_solver
from divbands.errors import BarrierViolation, DomainError
from divbands.model import Utility, check_y0, expect_income, validate_distribution
from divbands.oracle import exact_optimal
from divbands.power_solver import (
    SGrid,
    barrier_diagnostics,
    solve_log,
    solve_power,
    xi_star_bound,
)
from helpers import (DOWN_ONE, make_config, reference_eval_queries, reference_power_backup,
                     reference_shift_pairs, two_point)

# dyadic discount: every reachable payout total lands exactly on the grid
DYADIC = make_config("power", {1: 0.5, -1: 0.5}, 0.5, 0.5, 4, 3,
                     s_grid_points=256)

# frozen 2026-08-16 from exact_optimal(DYADIC, x0=1, horizon=4); the
# depth-3 induction with its pay-everything closure equals horizon 4
FROZEN_POWER_X1_H4 = 1.1427089740097987


def test_xi_star_bound_closed_form():
    assert xi_star_bound(DYADIC) == pytest.approx(1.0, rel=1e-14)
    neutral = make_config("risk_neutral", two_point(0.6, 1), 0.9, 0.0, 54, 4)
    assert xi_star_bound(neutral) == pytest.approx(54.0, rel=1e-12)


def test_grid_shape_and_lattice():
    grid = SGrid.build(DYADIC)
    pts = grid.points
    assert pts[0] == 0.0
    assert np.all(np.diff(pts) > 0)
    assert pts[-1] == pytest.approx((4 + 1) / 0.5)
    # dyadic payout sums are grid members bit-for-bit
    assert 1.0 + 0.5 * 2 + 0.25 * 1 in pts


def test_grid_handles_certain_loss():
    cfg = make_config("power", DOWN_ONE, 0.5, 0.5, 4, 3)
    grid = SGrid.build(cfg)
    assert grid.points[-1] == pytest.approx(4 / 0.5)  # no positive income term


def test_depth0_matches_oracle_on_lattice():
    table, _ = solve_power(DYADIC)
    for x0 in range(DYADIC.x_max + 1):
        val, _ = exact_optimal(DYADIC, x0, DYADIC.depth + 1)
        lo, hi = table.value_bracket(0, x0, 0.0)
        assert abs(val - lo) <= 1e-12
        assert lo - 1e-12 <= val <= hi + 1e-12
    assert table.value_bracket(0, 1, 0.0)[0] == pytest.approx(FROZEN_POWER_X1_H4, rel=1e-13)


def test_off_grid_bracket_still_contains_oracle():
    table, _ = solve_power(DYADIC)
    for q in (0.1234567, 0.777, 3.05):
        for x0 in (0, 2, 4):
            val, _ = exact_optimal(DYADIC, x0, DYADIC.depth + 1, y0=q)
            lo, hi = table.value_bracket(0, x0, q)
            assert lo - 1e-12 <= val <= hi + 1e-12


def test_envelope_bounds_every_entry():
    cfg = make_config("power", {1: 0.3, -2: 0.7}, 0.7, 0.3, 6, 4,
                      s_grid_points=128)
    table, _ = solve_power(cfg)
    pts = table.grid.points
    c_tail = cfg.beta * cfg.dist.mean_positive / (1.0 - cfg.beta)
    for d in range(cfg.depth + 1):
        scale = cfg.beta**d
        for x in range(cfg.x_max + 1):
            floor = (pts + scale * x) ** cfg.gamma
            ceil = (pts + scale * (x + c_tail)) ** cfg.gamma
            assert np.all(table.lo[d, x] >= floor - 1e-12)
            assert np.all(table.hi[d, x] <= ceil + 1e-12)


def test_values_monotone_in_s():
    table, _ = solve_power(DYADIC)
    assert np.all(np.diff(table.lo, axis=2) >= -1e-12)
    assert np.all(np.diff(table.hi, axis=2) >= -1e-12)


def test_shift_inequality_on_lattice():
    # paying v now never beats its own value recorded one column over
    table, _ = solve_power(DYADIC)
    pts = table.grid.points
    for d in range(DYADIC.depth):
        scale = DYADIC.beta**d
        for x in range(1, DYADIC.x_max + 1):
            for v in range(1, x + 1):
                for i in range(0, pts.size, 17):
                    s = pts[i]
                    if s + scale * v > pts[-1]:
                        continue
                    lhs = table.value_bracket(d, x, s)
                    rhs = table.value_bracket(d, x - v, s + scale * v)
                    assert lhs[1] >= rhs[0] - 1e-12


def test_pay_down_lands_on_hold_state():
    table, policy = solve_power(DYADIC)
    pts = table.grid.points
    grid = table.grid
    checked = 0
    for d in range(DYADIC.depth):
        scale = DYADIC.beta**d
        for x in range(DYADIC.x_max + 1):
            for i in range(pts.size):
                a = int(policy.action[d, x, i])
                if a == 0:
                    continue
                target = pts[i] + scale * a
                if target > pts[-1]:
                    continue
                j = grid.floor_index(target)
                if pts[j] != target:
                    continue  # start point off the payout lattice
                assert policy.action[d, x - a, j] == 0
                checked += 1
    assert checked > 0


def test_barrier_diagnostics_pass():
    _, policy = solve_power(DYADIC)
    report = barrier_diagnostics(policy)
    assert report.bound == pytest.approx(1.0)
    assert int(report.xi.max()) <= 1
    assert report.shift_pairs_checked > 0


def test_barrier_violation_detected():
    _, policy = solve_power(DYADIC)
    doctored = policy.action.copy()
    doctored[0, :, :] = 0  # "hold everything", far above the barrier bound
    bad = type(policy)(config=policy.config, grid=policy.grid, action=doctored)
    with pytest.raises(BarrierViolation):
        barrier_diagnostics(bad)


def test_shift_check_matches_per_pair_loop():
    def outcome(check, policy):
        try:
            return check(policy)
        except BarrierViolation as exc:
            return str(exc)

    _, policy = solve_power(DYADIC)
    assert reference_shift_pairs(policy) > 0
    rng = np.random.default_rng(5)
    messages = set()
    for trial in range(60):
        doctored = policy.action.copy()
        for _ in range(trial % 4):  # pay more somewhere above x=1
            d, x, j = (int(rng.integers(0, k)) for k in doctored.shape)
            doctored[d, max(x, 2), j] += int(rng.integers(1, 3))
        bad = dataclasses.replace(policy, action=doctored)
        want = outcome(reference_shift_pairs, bad)
        got = outcome(lambda p: barrier_diagnostics(p).shift_pairs_checked, bad)
        assert got == want
        if isinstance(want, str):
            messages.add(want)
    assert len(messages) > 10  # many distinct first violations, all alike


@st.composite
def small_configs(draw, utility, beta):
    """Power or log on a few states; the top income is 0 to 3.

    The backup forms overflow rows above the cap for the payouts a below
    the top only: for none at top 0, for a = 0 alone at top 1.  Dyadic beta
    puts the payout lattice in the grid when it is small enough, so queries
    hit gridpoints exactly.  With gamma = 1e-13 every positive cash value
    lies within relative TIE_RTOL of 1, so most decisions are ties and the
    tie rule sets the action.
    """
    gamma = draw(st.sampled_from([1e-13, 0.3, 0.5, 0.8])) if utility == "power" else 0.0
    low, top = draw(st.integers(-3, -1)), draw(st.integers(0, 3))
    weights = {k: draw(st.integers(0, 3)) for k in range(low + 1, top)}
    weights[low], weights[top] = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    total = sum(weights.values())
    mapping = {k: w / total for k, w in weights.items() if w}
    need = math.ceil(xi_star_bound(SimpleNamespace(
        beta=beta, dist=validate_distribution(mapping))) - 1e-9)
    # a wide cap at depth 3 outgrows LATTICE_LIMIT: a uniform grid only
    return make_config(utility, mapping, beta, gamma,
                       need + draw(st.sampled_from([0, 1, 2, 12])),
                       draw(st.integers(1, 3)),
                       s_grid_points=draw(st.integers(8, 48)))


@pytest.mark.parametrize("utility", ["power", "logarithmic"])
@pytest.mark.parametrize("beta", [0.5, 0.6])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_pass_backup_matches_two_pass_reference(utility, beta, data):
    cfg = data.draw(small_configs(utility, beta))
    solve = solve_power if cfg.utility is Utility.POWER else solve_log
    table, policy = solve(cfg)
    ref_lo, ref_hi, ref_action = reference_power_backup(cfg)
    assert table.lo.tobytes() == ref_lo[:, 1:].tobytes()  # ref keeps a ruin row
    assert table.hi.tobytes() == ref_hi[:, 1:].tobytes()
    np.testing.assert_array_equal(policy.action, ref_action)


@st.composite
def bracket_queries(draw, utility):
    """Arguments of the bracket rule: one row or a block of rows, and queries.

    Queries sit at 0, on gridpoints, between them and past the last one.
    Row values include -0.0; log rows may be -inf at s = 0, as the solver's
    are there (power values are never -inf).
    """
    m = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.sampled_from([0.25, 0.3, 1.0]), min_size=m - 1, max_size=m - 1))
    pts = np.cumsum([0.0] + gaps)

    def query():
        j = draw(st.integers(0, m - 2))
        where = draw(st.sampled_from(["zero", "on", "between", "past"]))
        if where == "between":
            return pts[j] + draw(st.sampled_from([0.1, 0.5, 0.9])) * (pts[j + 1] - pts[j])
        return {"zero": 0.0, "on": pts[j + 1], "past": pts[-1] + 0.7 * (j + 1)}[where]

    q = np.array([query() for _ in range(draw(st.integers(1, 6)))])
    block = draw(st.booleans())
    n_rows = draw(st.integers(1, 3))
    value = st.sampled_from([-0.0, 0.0, 0.5, 1.0, -1.0]) | st.floats(-4.0, 4.0)
    rows = [draw(arrays(float, (n_rows, m) if block else m, elements=value))
            for _ in range(2)]
    if utility == "logarithmic" and draw(st.booleans()):
        rows[0][..., 0] = rows[1][..., 0] = -np.inf
    if block:
        env_x = np.arange(n_rows)[:, None] + draw(st.integers(0, 3))
    else:  # one row: at q, or at several shifts of q as for the overflow rows
        env_x = draw(st.integers(0, 3))
        q = q + 0.5 * np.arange(n_rows)[:, None] if draw(st.booleans()) else q
    return (pts, rows[0], rows[1], q, env_x, draw(st.sampled_from([1.0, 0.5, 0.729])),
            draw(st.sampled_from([0.0, 1.5])), power_solver._cash(Utility.parse(utility), 0.5))


@pytest.mark.parametrize("utility", ["power", "logarithmic"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bracket_rule_matches_masked_reference(utility, data):
    # missing candidates are NaN skipped by fmax/fmin where the reference
    # masks them to -inf/+inf and fixes up the log row's NaN increments
    args = data.draw(bracket_queries(utility))
    for got, want in zip(power_solver._eval_queries(*args), reference_eval_queries(*args)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("utility", ["power", "logarithmic"])
@pytest.mark.parametrize("mapping", [{0: 0.5, -1: 0.5}, {1: 0.4, -2: 0.6},
                                     {3: 0.3, 1: 0.2, -1: 0.5}])
def test_backup_forms_only_the_rows_it_reads(monkeypatch, utility, mapping):
    # payout a leaves u = 0..n-1 and E ext[v + Z] reads surplus rows from
    # min(support_min, -1) up to n - 1 + z+, z+ = max(support_max, 0): the
    # rows formed for every call are exactly those
    cfg = make_config(utility, mapping, 0.5, 0.5 if utility == "power" else 0.0,
                      math.ceil(xi_star_bound(SimpleNamespace(
                          beta=0.5, dist=validate_distribution(mapping)))) + 4,
                      2, s_grid_points=16)
    off = -min(cfg.dist.support_min, -1)
    z_plus = max(cfg.dist.support_max, 0)
    assert cfg.x_max > z_plus  # the last actions get no overflow rows

    # the layout itself: V is ruin below 0, then rows, then over, against
    # a per-v loop; a scalar and a per-row ruin, with a trailing axis
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((5, 3))
    for ruin, over in ((-2.0, np.empty((0, 3))),
                       (rng.standard_normal(3), rng.standard_normal((2, 3)))):
        def value(x):
            return ruin if x < 0 else rows[x] if x < len(rows) else over[x - len(rows)]

        n = len(rows) + len(over) - z_plus
        want = np.array([np.broadcast_to(sum(q * value(v + k) for k, q in cfg.dist.items()),
                                         (3,)) for v in range(n)])
        got = expect_income(cfg.dist, ruin, rows, over, n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    calls, query_calls = [], 0
    eval_queries = power_solver._eval_queries

    def counted(dist, ruin, rows, over, n):
        calls.append((off + len(rows) + len(over), n))
        return expect_income(dist, ruin, rows, over, n)

    def counted_queries(*args):
        nonlocal query_calls
        query_calls += 1
        return eval_queries(*args)

    monkeypatch.setattr(power_solver, "expect_income", counted)
    monkeypatch.setattr(power_solver, "_eval_queries", counted_queries)
    (solve_power if utility == "power" else solve_log)(cfg)
    assert sorted(calls) == sorted((off + n + z_plus, n)
                                   for n in range(1, cfg.x_max + 2)
                                   for _ in range(2 * cfg.depth))
    # one block call per action, one overflow call per action a < z+
    assert query_calls == cfg.depth * (cfg.x_max + 1 + z_plus)


@pytest.mark.parametrize("utility,gamma", [("power", 0.5), ("logarithmic", 0.0)])
def test_near_tie_goes_to_the_largest_action(monkeypatch, utility, gamma):
    # action a continues at 100 (1 - 1e-13 a): within relative 1e-12 of
    # the best, 100, yet more than 1e-12 below it, so only a relative tie
    # rule gives every surplus x its largest action, a = x
    cfg = make_config(utility, {1: 0.5, -1: 0.5}, 0.5, gamma, 4, 2,
                      s_grid_points=8)

    def near_tie(dist, ruin, rows, over, n):
        a = cfg.x_max + 1 - n
        return np.full((n,) + rows.shape[1:], 100.0 * (1.0 - 1e-13 * a))

    monkeypatch.setattr(power_solver, "expect_income", near_tie)
    _, policy = (solve_power if utility == "power" else solve_log)(cfg)
    xs = np.arange(cfg.x_max + 1)[:, None]
    assert np.all(policy.action == xs)


def test_refinement_tightens_headline():
    # beta=0.6 keeps payout totals off every uniform grid, so the bracket
    # width carries a genuine interpolation component on top of the
    # depth-limited tail; only the former shrinks with s_grid_points
    def width_at(m):
        cfg = make_config("power", {1: 0.4, -1: 0.6}, 0.6, 0.4, 4, 6,
                          s_grid_points=m)
        table, _ = solve_power(cfg)
        lo, hi = table.value_bracket(0, 3, 0.0)
        return hi - lo

    w65, w129, w257 = (width_at(m) for m in (65, 129, 257))
    floor = width_at(4097)  # near-pure tail width
    assert w257 < w129 < w65
    assert (w257 - floor) <= 0.35 * (w65 - floor)


def test_certain_loss_closed_forms():
    cfg = make_config("power", DOWN_ONE, 0.9, 0.5, 4, 3, s_grid_points=257)
    table, policy = solve_power(cfg)
    for x in range(5):
        lo, hi = table.value_bracket(0, x, 0.0)
        assert hi - lo <= 1e-12
        assert lo == pytest.approx(math.sqrt(x), abs=1e-12)
        assert policy.action[0, x, 0] == x
    report = barrier_diagnostics(policy)
    assert int(report.xi.max()) == 0


def test_log_certain_loss_closed_form():
    # 257 points put integer wealth levels exactly on the grid
    cfg = make_config("logarithmic", DOWN_ONE, 0.5, 0.0, 4, 3,
                      s_grid_points=257)
    table, _ = solve_log(cfg)
    for x in range(5):
        lo, hi = table.value_bracket(0, x, 1.0)
        assert hi - lo <= 1e-12
        assert lo == pytest.approx(math.log(1.0 + x), abs=1e-12)


def test_log_matches_oracle():
    cfg = make_config("logarithmic", {1: 0.5, -1: 0.5}, 0.5, 0.0, 4, 3,
                      s_grid_points=256)
    table, _ = solve_log(cfg)
    for x0 in (0, 2, 4):
        val, _ = exact_optimal(cfg, x0, cfg.depth + 1, y0=1.0)
        lo, hi = table.value_bracket(0, x0, 1.0)
        assert lo - 1e-12 <= val <= hi + 1e-12


def test_log_rejects_nonpositive_start():
    cfg = make_config("logarithmic", {1: 0.5, -1: 0.5}, 0.5, 0.0, 4, 3)
    with pytest.raises(DomainError):
        check_y0(cfg.utility, 0.0)


def test_log_zero_wealth_column_is_quiet():
    cfg = make_config("logarithmic", {1: 0.5, -1: 0.5}, 0.5, 0.0, 4, 3,
                      s_grid_points=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table, _ = solve_log(cfg)
    # zero cash and zero banked payout: ruin is reachable with log-wealth
    # -inf, so the true value (and both bracket ends) is -inf
    lo, hi = table.value_bracket(0, 0, 0.0)
    assert lo == hi == -math.inf
    lo2, hi2 = table.value_bracket(0, 2, 0.0)
    assert math.isfinite(lo2) and math.isfinite(hi2)


def test_ruined_rows_carry_banked_wealth():
    table, _ = solve_power(DYADIC)
    for s in (0.0, 0.5, 2.0):
        lo, hi = table.value_bracket(1, -3, s)
        assert lo == hi == pytest.approx(math.sqrt(s), abs=1e-15)

