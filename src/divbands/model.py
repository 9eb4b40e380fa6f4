"""Core model: integer income distribution, surplus dynamics, utilities.

The controlled process is a surplus chain on the integers.  While the
surplus x is nonnegative the controller pays a dividend a from {0,...,x},
then an i.i.d. integer income z arrives:

    x' = x - a + z        if x >= 0,
    x' = x                if x < 0   (ruin is absorbing).

Dividends are valued through a utility applied to the discounted payout
stream.  Four utilities are supported: exponential (1/gamma)e^(gamma*w)
with gamma < 0, power w^gamma with gamma in (0,1), logarithmic, and the
risk-neutral identity.

Everything here is immutable after construction and shared freely by the
solver modules.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    CapTooSmall,
    DomainError,
    NegativeMass,
    NoRuinRisk,
    NotNormalized,
    PolicyUndefined,
    ValidationError,
    ValueUnderflow,
)

NORMALIZATION_TOL = 1e-12
TIE_RTOL = 1e-12  # relative tie tolerance of every solver's largest optimiser
LOG_DBL_MIN = math.log(sys.float_info.min)  # about -708.4


class Utility(enum.Enum):
    EXPONENTIAL = "exponential"
    POWER = "power"
    LOGARITHMIC = "logarithmic"
    RISK_NEUTRAL = "risk_neutral"

    @classmethod
    def parse(cls, name: str) -> "Utility":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(u.value for u in cls)
            raise ValidationError(f"unknown utility {name!r}; expected one of {valid}")


@dataclass(frozen=True)
class IncomeDistribution:
    """Finite-support integer income distribution.

    ``support`` is ascending; ``probs[i]`` is the mass at ``support[i]``.
    Finite support makes every expectation an exact finite sum and gives
    E Z+ < infinity for free; construction rejects distributions without
    mass on negative incomes, since those make ruin impossible and the
    payout problem degenerate.
    """

    support: tuple[int, ...]
    probs: tuple[float, ...]

    @property
    def support_min(self) -> int:
        return self.support[0]

    @property
    def support_max(self) -> int:
        return self.support[-1]

    @property
    def p_negative(self) -> float:
        """Total mass on negative incomes (assumption A2 requires > 0)."""
        return math.fsum(q for k, q in self.items() if k < 0)

    @property
    def mean_positive(self) -> float:
        """E Z+ = sum of k*q_k over positive k."""
        return math.fsum(k * q for k, q in self.items() if k > 0)

    def items(self):
        return zip(self.support, self.probs)


def tail_income(dist: IncomeDistribution, beta: float) -> float:
    """beta EZ+/(1-beta): the mean discounted income after the present step."""
    return dist.mean_positive * beta / (1.0 - beta)


def expect_income(dist: IncomeDistribution, ruin, rows: np.ndarray, over: np.ndarray,
                  n: int) -> np.ndarray:
    """E V(v + Z) for v = 0..n-1, V the next-step row along its first axis.

    By surplus, V is ``ruin`` below 0 (a scalar or one row), then ``rows``
    from 0, then ``over``; further axes ride along, an empty ``over`` too.
    Income terms accumulate in ascending k, reproducible bit for bit.
    """
    off = -min(dist.support_min, -1)
    top = off + len(rows)
    ext = np.empty((top + len(over),) + rows.shape[1:])
    ext[:off], ext[off:top], ext[top:] = ruin, rows, over
    out = np.zeros((n,) + rows.shape[1:])
    for k, q in dist.items():
        out += q * ext[off + k : off + k + n]
    return out


def validate_distribution(raw: Mapping[int, float]) -> IncomeDistribution:
    """Validate and normalize a raw integer->probability map.

    Raises NegativeMass, NotNormalized (|sum - 1| > 1e-12), or NoRuinRisk
    (no mass below zero).  Masses within tolerance are renormalized by an
    exact division so downstream sums start from a unit total.
    """
    if not raw:
        raise ValidationError("income distribution must be non-empty")
    items = sorted(raw.items())
    for k, q in items:
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValidationError(f"income support must be integers, got {k!r}")
        if q < 0:
            raise NegativeMass(f"probability of income {k} is negative ({q})")
    total = math.fsum(q for _, q in items)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"probabilities sum to {total!r}, not 1")
    support = tuple(k for k, q in items if q > 0)
    probs = tuple(q / total for k, q in items if q > 0)
    if not support:
        raise ValidationError("income distribution has no positive mass")
    if not any(k < 0 for k in support):
        raise NoRuinRisk("no mass on negative incomes; ruin would be impossible")
    return IncomeDistribution(support=support, probs=probs)


@dataclass(frozen=True)
class ProblemConfig:
    """Everything a solver run needs, validated up front.

    ``depth`` is the induction horizon N; ``tail_eps`` controls how far
    infinite products/series are followed before their certified tail
    bracket is attached; ``s_grid_points`` sizes the accumulated-dividend
    grid of the power/log solver.  Construction checks that the surplus
    cap ``x_max`` clears the certified barrier bound of the chosen
    utility, so trajectories pushed back under the cap lose nothing, and
    (exponential utility) that the value at the cap is a normal double.
    """

    beta: float
    gamma: float
    utility: Utility
    dist: IncomeDistribution
    x_max: int
    depth: int
    tail_eps: float = 1e-8
    s_grid_points: int = 512
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValidationError(f"beta must be in (0,1), got {self.beta}")
        if self.utility is Utility.EXPONENTIAL and not self.gamma < 0:
            raise ValidationError(f"exponential utility needs gamma < 0, got {self.gamma}")
        if self.utility is Utility.POWER and not 0.0 < self.gamma < 1.0:
            raise ValidationError(f"power utility needs gamma in (0,1), got {self.gamma}")
        if not isinstance(self.x_max, int) or self.x_max < 0:
            raise ValidationError(f"x_max must be a nonnegative integer, got {self.x_max}")
        if not isinstance(self.depth, int) or self.depth < 1:
            raise ValidationError(f"depth must be a positive integer, got {self.depth}")
        if not self.tail_eps > 0:
            raise ValidationError(f"tail_eps must be positive, got {self.tail_eps}")
        if self.s_grid_points < 2:
            raise ValidationError(f"s_grid_points must be at least 2, got {self.s_grid_points}")
        self._check_cap()

    @functools.cached_property
    def schedule(self):
        """The theta-schedule of an exponential config, built once.

        Validation builds it; the exponential backward induction reuses
        it, for ``solve_exp`` and every ``policy_value_exp`` call alike.
        """
        # imported lazily: the solvers import this module at load time
        from .exp_solver import ThetaSchedule

        return ThetaSchedule.build(self)

    def _check_cap(self):
        if self.utility is Utility.EXPONENTIAL:
            need = self.schedule.cap
        else:
            from .power_solver import xi_star_bound

            need = math.ceil(xi_star_bound(self) - 1e-9)
        if self.x_max < need:
            raise CapTooSmall(
                f"x_max={self.x_max} is below the certified barrier bound {need} "
                f"for {self.utility.value} utility"
            )
        if self.utility is Utility.EXPONENTIAL:
            # the lower bracket e^{gamma x_max} h_lower(gamma) of J(x_max) must
            # be a normal double; this also keeps e^{-theta v} <= 1/DBL_MIN
            floor = self.gamma * self.x_max + math.log(self.schedule.h_lower[0])
            if floor < LOG_DBL_MIN:
                raise ValueUnderflow(
                    f"gamma*x_max + ln h_lower(gamma) = {floor:.1f} is below "
                    f"ln(DBL_MIN) = {LOG_DBL_MIN:.1f}: values at x_max={self.x_max} "
                    f"would underflow double precision")


def policy_lookup(action: np.ndarray, t: int, x, cap: int):
    """The depth clamp and overflow split every solver policy shares.

    ``action`` is indexed by depth first; from its last depth on, the last
    rule is reused.  Surplus above the cap pays the overflow at once and
    then follows the cap's rule.  Returns the depth-t rule, the overflow
    max(x - cap, 0) and the surplus min(x, cap) left standing.  A ruined
    surplus x < 0 has no action and raises PolicyUndefined.
    """
    x = np.asarray(x)
    if np.any(x < 0):
        raise PolicyUndefined(f"no action at ruined surplus x={np.min(x)}")
    extra = np.maximum(x - cap, 0)
    return action[min(t, len(action) - 1)], extra, x - extra


def utility(u: Utility, gamma: float, w):
    """Utility of sure payouts w, elementwise (w >= 0; w > 0 for logarithmic)."""
    if u is Utility.EXPONENTIAL:
        return np.exp(gamma * w) / gamma
    if u is Utility.POWER:
        if np.any(w < 0):
            raise DomainError(f"power utility needs w >= 0, got {np.min(w)}")
        return np.power(w, gamma)
    if u is Utility.LOGARITHMIC:
        if np.any(w <= 0):
            raise DomainError(f"log utility needs w > 0, got {np.min(w)}")
        return np.log(w)
    return w


def check_y0(u: Utility, y0: float | None = None) -> float:
    """The starting wealth to use: y0 if it is in the utility's domain.

    None means the default, 1.0 for logarithmic utility and 0.0 otherwise.
    y0 must be finite, and also > 0 for logarithmic and >= 0 for power
    utility; exponential and risk-neutral utilities take any finite y0.
    Anything else raises DomainError.
    """
    if y0 is None:
        return 1.0 if u is Utility.LOGARITHMIC else 0.0
    if u is Utility.LOGARITHMIC:
        ok, need = y0 > 0, " > 0"
    elif u is Utility.POWER:
        ok, need = y0 >= 0, " >= 0"
    else:
        ok, need = True, ""
    if not (ok and math.isfinite(y0)):
        raise DomainError(f"{u.value} utility needs a finite y0{need}, got {y0}")
    return y0


def certainty_equivalent(u: Utility, gamma: float, expected_utility: float) -> float:
    """Inverse utility: the sure payout equivalent to a given E U."""
    if u is Utility.EXPONENTIAL:
        # range of (1/gamma)e^(gamma w), w >= 0, gamma < 0 is [1/gamma, 0)
        arg = gamma * expected_utility
        if not 0.0 < arg <= 1.0 + 1e-12:
            raise DomainError(
                f"expected utility {expected_utility} outside exponential range"
            )
        return math.log(arg) / gamma
    if u is Utility.POWER:
        if expected_utility < 0:
            raise DomainError(f"power utility range is [0, inf), got {expected_utility}")
        return expected_utility ** (1.0 / gamma)
    if u is Utility.LOGARITHMIC:
        return math.exp(expected_utility)
    return expected_utility
