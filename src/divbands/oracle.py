"""Ground truth by exhaustive enumeration on desk-size instances.

Everything here is deliberately brute force: optimize over *history
dependent* plans on the full outcome tree, with probabilities and
accumulated discounted dividends s kept exact and utilities taken in
80-bit floats only at the leaves.  Solver tolerances can then be
attributed to tail closures and grids, never to the reference values.
A history reaches the objective only through the extended state (depth,
surplus x, dividends s), the wealth-augmented state of Bauerle & Rieder,
so the walk caches each node under that state, and its optimum is still
the optimum over every history-dependent plan.
``Fraction(beta)`` is dyadic, p / 2^k, so a horizon-H tree carries s as
the integer s * scale, scale = max(2^(k(H-1)), denominator of y0), and a
leaf turns y0 + s into a long double by integer division alone.

Conventions shared with the solvers:

* the discount factor is ``Fraction(config.beta)``, i.e. the exact value
  of the same binary float the solvers use;
* a leaf of wealth w = y0 + sum beta^k a_k is worth ``model.cash``(w):
  exponential values are E exp(gamma * w) (minimized), without the 1/gamma
  scaling; power / log / risk-neutral values are the maximized expected
  utility of w, y0 defaulting as in ``model.check_y0``.

A horizon-H tree takes actions at steps 0..H-1 and stops afterwards, so
it prices the truncated problem in which payouts simply cease at H.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import TooLarge, UndefinedAction, ValidationError
from .model import IncomeDistribution, ProblemConfig, Utility, cash, check_y0

NODE_GUARD = 10_000_000
MARKOV_RULE_GUARD = 500_000  # most rules markov_optimum enumerates

_LD = np.longdouble


def _ld(n: int, d: int) -> np.longdouble:
    """n / d -> longdouble via a two-step split, ~1e-35 relative error.

    Direct conversion of big integers would round through a 53-bit float;
    splitting off the nearest double first keeps full extended precision.
    Integer true division rounds correctly, so neither step needs a Fraction.
    """
    head = n / d
    hn, hd = head.as_integer_ratio()
    return _LD(head) + _LD((n * hd - hn * d) / (d * hd))


def exact_probabilities(dist: IncomeDistribution) -> dict[int, Fraction]:
    """Support weights as exact rationals summing to exactly 1."""
    raw = {k: Fraction(q) for k, q in dist.items()}
    total = sum(raw.values())
    return {k: q / total for k, q in raw.items()}


@dataclass
class OracleTree:
    """Optimal decisions of one enumeration run, addressable for replay.

    Decisions are keyed by (depth, surplus, accumulated dividends), the
    dividends s held as the exact integer s * scale; the tree is a policy
    like any other, called as policy(depth, x, s).
    """

    config: ProblemConfig
    y0: Fraction
    x0: int
    horizon: int
    scale: int
    decisions: dict = field(repr=False)
    value: float = 0.0

    def action(self, depth: int, x: int, s: Fraction) -> int:
        """The decision recorded at state (depth, x, s)."""
        paid = Fraction(s) * self.scale
        key = (depth, x, paid.numerator)
        if paid.denominator == 1 and key in self.decisions:
            return self.decisions[key]
        raise UndefinedAction(f"no decision recorded at depth={depth}, "
                              f"x={x}, s={s}")

    __call__ = action  # the policy protocol, one state at a time

    def dump(self, max_depth: int | None = None) -> dict:
        """JSON-ready nested view of the decision tree, depth-limited."""
        limit = self.horizon if max_depth is None else min(max_depth, self.horizon)
        base = int(self.y0 * self.scale)
        utility, gamma, beta = self.config.utility, self.config.gamma, Fraction(self.config.beta)

        def walk(depth: int, x: int, paid: int) -> dict:
            s = Fraction(paid, self.scale)
            node: dict = {"depth": depth, "x": x, "s": str(s)}
            if x < 0 or depth >= self.horizon:
                node["leaf"] = float(cash(utility, gamma, _ld(base + paid, self.scale)))
                return node
            a = self.action(depth, x, s)
            node["action"] = a
            if depth < limit:
                paid_next = paid + int(beta ** depth * self.scale) * a
                node["children"] = {
                    str(z): walk(depth + 1, x - a + z, paid_next)
                    for z in self.config.dist.support
                }
            return node

        return {"value": self.value, "root": walk(0, self.x0, 0)}


def _walk(config: ProblemConfig, x0: int, horizon: int, y0: float | None, policy,
          node_guard: int) -> OracleTree:
    """Backward induction over the outcome tree, carrying paid = s * scale.

    With ``policy`` None a solvent node tries every dividend 0..x and the
    best expectation wins (minimized for exponential objectives, maximized
    otherwise), ties going to the later, larger action; else it takes
    policy(depth, x, s), with s the exact Fraction.  Nodes are cached by
    (depth, x, paid): every history that reaches a state shares its value
    and its decision.  Income terms accumulate in ascending z; the leaves
    below one action share their payout and are evaluated once.  Raises
    TooLarge past ``node_guard``.
    """
    if horizon < 0:
        raise ValidationError(f"horizon must be >= 0, got {horizon}")
    y0 = check_y0(config.utility, y0)
    utility, gamma = config.utility, config.gamma
    probs = exact_probabilities(config.dist)
    terms = [(z, _ld(q.numerator, q.denominator)) for z, q in sorted(probs.items())]
    beta, y0_frac = Fraction(config.beta), Fraction(y0)
    scale = max(beta.denominator ** max(horizon - 1, 0), y0_frac.denominator)
    base = int(y0_frac * scale)
    step = [beta.numerator ** d * scale // beta.denominator ** d
            for d in range(horizon)]
    minimize = utility is Utility.EXPONENTIAL
    decisions: dict = {}
    memo: dict = {}
    visits = 0

    def value(depth: int, x: int, paid: int) -> np.longdouble:
        nonlocal visits
        visits += 1
        if visits > node_guard:
            raise TooLarge(f"oracle tree exceeds {node_guard} nodes")
        if x < 0 or depth == horizon:
            return cash(utility, gamma, _ld(base + paid, scale))
        key = (depth, x, paid)
        if key in memo:
            return memo[key]
        if policy is None:
            acts = range(x + 1)
        else:
            a = policy(depth, x, Fraction(paid, scale))
            if not isinstance(a, (int, np.integer)) or a < 0 or a > x:
                raise UndefinedAction(f"action {a!r} at depth={depth}, x={x} "
                                      f"is outside {{0..{x}}}")
            acts = (int(a),)
        last = depth + 1 == horizon
        best, best_a = None, 0
        for a in acts:
            paid_next = paid + step[depth] * a
            leaf = None
            acc = _LD(0.0)
            for z, q in terms:
                x_next = x - a + z
                if last or x_next < 0:  # a leaf child, inlined
                    visits += 1
                    if visits > node_guard:
                        raise TooLarge(f"oracle tree exceeds {node_guard} nodes")
                    if leaf is None:
                        leaf = cash(utility, gamma, _ld(base + paid_next, scale))
                    acc += q * leaf
                else:
                    acc += q * value(depth + 1, x_next, paid_next)
            if best is None or acc == best or (acc < best if minimize else acc > best):
                best = acc
                best_a = a
        decisions[key] = best_a
        memo[key] = best
        return best

    try:
        val = value(0, x0, 0)
    finally:
        del value  # break the closure's self-reference, freeing memo now
    return OracleTree(config=config, y0=y0_frac, x0=x0, horizon=horizon, scale=scale,
                      decisions=decisions, value=float(val))


def exact_optimal(config: ProblemConfig, x0: int, horizon: int, *,
                  y0: float | None = None,
                  node_guard: int = NODE_GUARD) -> tuple[float, OracleTree]:
    """Optimum over history-dependent plans on the full outcome tree.

    Backward induction over every (depth, x, s) state and action;
    exponential objectives are minimized (J-convention), all others
    maximized.  Ties go to the largest action.  Raises TooLarge past
    ``node_guard`` visits.
    """
    tree = _walk(config, x0, horizon, y0, None, node_guard)
    return tree.value, tree


def exact_policy_value(config: ProblemConfig, policy, x0: int, horizon: int,
                       *, y0: float | None = None,
                       node_guard: int = NODE_GUARD) -> float:
    """Exact expectation of the objective under a fixed policy.

    ``policy`` is called as policy(depth, x, s) with scalar surplus
    x >= 0 and the exact accumulated payout s as a Fraction: a solver
    policy, an OracleTree or any callable returning an integer.
    Raises UndefinedAction when a reachable state has no action or the
    action leaves {0..x}.
    """
    if not callable(policy):
        raise UndefinedAction(f"cannot interpret {type(policy).__name__} as a policy")
    return _walk(config, x0, horizon, y0, policy, node_guard).value


def markov_optimum(config: ProblemConfig, x0: int, horizon: int) -> float:
    """Exponential optimum over depth-indexed surplus-only rules.

    Enumerates every map (depth, surplus) -> action on the reachable grid
    and evaluates the multiplicative objective exactly; comparing this
    against exact_optimal validates collapsing histories to (x, theta).
    Only the exponential case factorizes this way.
    """
    if config.utility is not Utility.EXPONENTIAL:
        raise ValidationError("markov_optimum applies to the exponential case")
    probs = sorted(exact_probabilities(config.dist).items())
    q_ld = [(z, _ld(q.numerator, q.denominator)) for z, q in probs]
    gamma, beta = config.gamma, config.beta

    reachable: list[set[int]] = [{x0}]
    for k in range(horizon - 1):
        nxt = set()
        for x in reachable[k]:
            for a in range(x + 1):
                for z, _ in probs:
                    x2 = x - a + z
                    if x2 >= 0:
                        nxt.add(x2)
        reachable.append(nxt)

    slots = [(k, x) for k in range(horizon) for x in sorted(reachable[k])]
    n_rules = 1
    for _, x in slots:
        n_rules *= x + 1
        if n_rules > MARKOV_RULE_GUARD:
            raise TooLarge(f"more than {MARKOV_RULE_GUARD} Markov rules to enumerate")

    theta = [_LD(gamma) * _LD(beta) ** k for k in range(horizon)]
    best = None
    for choice in product(*(range(x + 1) for _, x in slots)):
        rule = dict(zip(slots, choice))
        val = {}
        for k in range(horizon - 1, -1, -1):
            for x in sorted(reachable[k]):
                a = rule[(k, x)]
                acc = _LD(0.0)
                for z, q in q_ld:
                    x2 = x - a + z
                    acc += q * (_LD(1.0) if x2 < 0
                                else val.get((k + 1, x2), _LD(1.0)))
                val[(k, x)] = np.exp(theta[k] * a) * acc
        j = val[(0, x0)]
        if best is None or j < best:
            best = j
    return float(best)
