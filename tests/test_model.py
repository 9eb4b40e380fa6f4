"""Input validation and utility helpers."""

import math

import numpy as np
import pytest

from divbands.errors import (
    CapTooSmall,
    DomainError,
    NegativeMass,
    NoRuinRisk,
    NotNormalized,
    ValidationError,
)
from divbands.model import (
    ProblemConfig,
    Utility,
    cash,
    certainty_equivalent,
    check_y0,
    utility,
    validate_distribution,
)
from helpers import make_config, two_point


def test_utility_parse():
    assert Utility.parse(" Exponential ") is Utility.EXPONENTIAL
    assert Utility.parse("risk_neutral") is Utility.RISK_NEUTRAL
    with pytest.raises(ValidationError):
        Utility.parse("quadratic")


def test_distribution_accepts_float_dust():
    d = validate_distribution({1: 0.1, 2: 0.2, -1: 0.7})
    assert d.support == (-1, 1, 2)
    assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-15)


def test_distribution_rejections():
    with pytest.raises(NotNormalized):
        validate_distribution({1: 0.3, -1: 0.3})
    with pytest.raises(NegativeMass):
        validate_distribution({1: 1.2, -1: -0.2})
    with pytest.raises(NoRuinRisk):
        validate_distribution({0: 0.5, 1: 0.5})
    with pytest.raises(ValidationError):
        validate_distribution({})
    with pytest.raises(ValidationError, match="must be integers"):
        validate_distribution({1.5: 0.5, -1: 0.5})
    # NaN compares false with everything: no mass may slip through as NaN
    for nan_mass in ({1: math.nan}, {-1: 1.0, 1: math.nan}, {-1: math.nan, 1: 1.0}):
        with pytest.raises(NotNormalized, match="sum to nan"):
            validate_distribution(nan_mass)


def test_distribution_drops_zero_mass():
    d = validate_distribution({1: 0.5, -1: 0.5, 3: 0.0})
    assert d.support == (-1, 1)


def test_distribution_moments():
    d = validate_distribution(two_point(0.6, 2))
    assert d.p_negative == pytest.approx(0.4)
    assert d.mean_positive == pytest.approx(0.6)


@pytest.mark.parametrize("kw,msg", [
    (dict(beta=1.0), "beta"),
    (dict(beta=0.0), "beta"),
    (dict(gamma=0.5), "gamma"),
    (dict(x_max=-1), "x_max"),
    (dict(depth=0), "depth"),
    (dict(tail_eps=0.0), "tail_eps"),
    (dict(s_grid_points=1), "s_grid_points"),
    (dict(tail_eps=math.inf), "tail_eps must be finite"),
    (dict(gamma=-math.inf), "gamma must be finite"),
    (dict(s_grid_points=8.5), "s_grid_points must be an integer"),
    (dict(s_grid_points=64.0), "s_grid_points must be an integer"),
    (dict(s_grid_points=True), "s_grid_points must be an integer"),
    (dict(seed=1.5), "seed must be an integer"),
    (dict(seed=3.0), "seed must be an integer"),
    (dict(seed=False), "seed must be an integer"),
    (dict(x_max=True), "x_max must be an integer"),
    (dict(depth=True), "depth must be an integer"),
    (dict(beta="0.9"), "beta must be a real number"),
    (dict(beta=True), "beta must be a real number"),
    (dict(beta=None), "beta must be a real number"),
    (dict(gamma="-1"), "gamma must be a real number"),
    (dict(gamma=False), "gamma must be a real number"),
    (dict(gamma=-1 + 0j), "gamma must be a real number"),
    (dict(tail_eps="1e-8"), "tail_eps must be a real number"),
    (dict(tail_eps=True), "tail_eps must be a real number"),
])
def test_config_field_validation(kw, msg):
    base = dict(beta=0.5, gamma=-1.0, x_max=4, depth=3)
    base.update(kw)
    extra = {k: v for k, v in base.items()
             if k not in ("beta", "gamma", "x_max", "depth")}
    with pytest.raises(ValidationError, match=msg):
        make_config("exponential", {1: 0.5, -1: 0.5}, base["beta"],
                    base["gamma"], base["x_max"], base["depth"], **extra)


@pytest.mark.parametrize("utility", list(Utility))
def test_gamma_must_be_finite_for_every_utility(utility):
    # summary.json echoes gamma, and JSON has no NaN
    with pytest.raises(ValidationError, match="gamma must be finite"):
        make_config(utility.value, {1: 0.5, -1: 0.5}, 0.5, math.nan, 4, 3)


def test_power_gamma_range():
    with pytest.raises(ValidationError):
        make_config("power", {1: 0.5, -1: 0.5}, 0.5, 1.2, 4, 3)
    with pytest.raises(ValidationError):
        make_config("power", {1: 0.5, -1: 0.5}, 0.5, 0.0, 4, 3)


def test_cap_gate_exponential():
    with pytest.raises(CapTooSmall):
        make_config("exponential", two_point(0.6, 1), 0.9, -1.0, 10, 60)


def test_cap_gate_neutral_is_not_overtight():
    # bound is exactly 54; float dust must not push the gate to 55
    make_config("risk_neutral", two_point(0.6, 1), 0.9, 0.0, 54, 5)
    with pytest.raises(CapTooSmall):
        make_config("risk_neutral", two_point(0.6, 1), 0.9, 0.0, 53, 5)


@pytest.mark.parametrize("u,gamma,w", [
    (Utility.EXPONENTIAL, -0.7, 3.0),
    (Utility.POWER, 0.4, 2.5),
    (Utility.LOGARITHMIC, 0.0, 1.7),
    (Utility.RISK_NEUTRAL, 0.0, 4.2),
])
def test_certainty_equivalent_inverts_utility(u, gamma, w):
    assert certainty_equivalent(u, gamma, utility(u, gamma, w)) == pytest.approx(w, rel=1e-12)


def test_utility_is_vectorised():
    w = np.array([0.0, 0.5, 2.0, 7.25])
    for u, gamma in ((Utility.EXPONENTIAL, -0.7), (Utility.POWER, 0.4),
                     (Utility.RISK_NEUTRAL, 0.0)):
        assert utility(u, gamma, w).tolist() == [utility(u, gamma, v) for v in w]
    assert utility(Utility.LOGARITHMIC, 0.0, w[1:]).tolist() == np.log(w[1:]).tolist()
    with pytest.raises(DomainError):
        utility(Utility.POWER, 0.5, np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        utility(Utility.LOGARITHMIC, 0.0, w)


@pytest.mark.parametrize("u,gamma", [(Utility.EXPONENTIAL, -0.7), (Utility.POWER, 0.4),
                                     (Utility.LOGARITHMIC, 0.0), (Utility.RISK_NEUTRAL, 0.0)])
def test_cash_keeps_long_double(u, gamma):
    # the oracle takes its leaves in long double; a double anywhere in cash
    # would round them to double precision
    w = np.longdouble(1) / 3
    worth = cash(u, gamma, w)
    assert type(worth) is np.longdouble
    want = {Utility.EXPONENTIAL: np.exp(np.longdouble(gamma) * w),
            Utility.POWER: w ** np.longdouble(gamma),
            Utility.LOGARITHMIC: np.log(w), Utility.RISK_NEUTRAL: w}[u]
    assert worth == want
    # zero wealth: power is +0 and log is -inf, without a warning
    zero = cash(u, gamma, np.longdouble(0))
    assert type(zero) is np.longdouble
    assert zero == {Utility.EXPONENTIAL: 1.0, Utility.POWER: 0.0,
                    Utility.LOGARITHMIC: -np.inf, Utility.RISK_NEUTRAL: 0.0}[u]


@pytest.mark.parametrize("u,good,bad", [
    (Utility.LOGARITHMIC, (1e-300, 1.0), (0.0, -1.0)),
    (Utility.POWER, (0.0, 3.0), (-5.0, -1e-300)),
    (Utility.EXPONENTIAL, (-5.0, 0.0, 2.0), ()),
    (Utility.RISK_NEUTRAL, (-5.0, 0.0, 2.0), ()),
])
def test_starting_wealth_check(u, good, bad):
    for y0 in good:
        check_y0(u, y0)
    for y0 in bad + (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite y0"):
            check_y0(u, y0)


def test_utility_domain_errors():
    with pytest.raises(DomainError):
        utility(Utility.POWER, 0.5, -1.0)
    with pytest.raises(DomainError):
        utility(Utility.LOGARITHMIC, 0.0, 0.0)
    with pytest.raises(DomainError):
        certainty_equivalent(Utility.EXPONENTIAL, -1.0, 0.5)  # wrong sign
    with pytest.raises(DomainError, match="power utility range"):
        certainty_equivalent(Utility.POWER, 0.5, -0.1)


def test_config_round_trip_through_helpers():
    cfg = make_config("exponential", {1: 0.5, -1: 0.5}, 0.5, -1.0, 4, 3)
    assert cfg.utility is Utility.EXPONENTIAL
    eu = utility(cfg.utility, cfg.gamma, 2.0)
    assert certainty_equivalent(cfg.utility, cfg.gamma, eu) == pytest.approx(2.0)
