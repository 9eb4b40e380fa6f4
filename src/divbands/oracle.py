"""Ground truth by exhaustive enumeration on desk-size instances.

Everything here is deliberately brute force: optimize over *history
dependent* plans on the full outcome tree, with probabilities and
accumulated discounted dividends s kept exact and utilities taken in
80-bit floats only at the leaves.  Solver tolerances can then be
attributed to tail closures and grids, never to the reference values.
A history reaches the objective only through the extended state (depth,
surplus x, dividends s), the wealth-augmented state of Bauerle & Rieder,
so the walk enumerates the reachable states one depth at a time and values
each once, by backward induction from the horizon, and its optimum is still
the optimum over every history-dependent plan.  A leaf (ruined, or at the
horizon) is a terminal state x = -1 of its depth, keyed by s alone.
``Fraction(beta)`` is dyadic, p / 2^k, so a horizon-H tree carries s as
the integer s * scale, scale = max(2^(k(H-1)), denominator of y0), a power
of two as ``Fraction(y0)`` is dyadic too.  Each leaf payout is valued once,
after the states are listed, a block of payouts at a time: (y0 + s) * scale
becomes a long double by exact power-of-two scaling of two doubles while
scale <= 2^1022 and the integer fits a double, and by integer division
otherwise, the same bits either way.

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
from itertools import islice, product, repeat
from operator import sub

import numpy as np

from .errors import TooLarge, UndefinedAction, ValidationError
from .model import (IncomeDistribution, ProblemConfig, Utility, cash, check_y0,
                    policy_actions)

NODE_GUARD = 10_000_000  # most node visits of one walk, read at call time
MARKOV_RULE_GUARD = 500_000  # most rules markov_optimum enumerates
_BLOCK = 1 << 14  # most payout numbers the payout index lists as Python ints at once
_LEAF_BLOCK = 1 << 11  # most leaf payouts valued in one array

_LD = np.longdouble


def _ld(n: int, d: int) -> np.longdouble:
    """n / d -> longdouble via a two-step split, ~1e-35 relative error.

    Direct conversion of big integers would round through a 53-bit float;
    splitting off the nearest double first keeps full extended precision.
    Integer true division rounds correctly, so neither step needs a Fraction.
    ``_ld_many`` gives the same bits for many n over one d at a time.
    """
    head = n / d
    hn, hd = head.as_integer_ratio()
    return _LD(head) + _LD((n * hd - hn * d) / (d * hd))


def _ld_many(ns: list[int], d: int) -> np.ndarray:
    """``[_ld(n, d) for n in ns]`` as one long double array, bit for bit.

    For d = 2^k, ``_ld``'s head n / d is float(n) * 2^-k and its remainder
    is float(n - int(float(n))) * 2^-k: ``float`` of an integer rounds
    correctly, as integer true division does, and scaling by a power of two
    is exact while the result stays a normal double, which holds for every
    nonzero integer once k <= 1022.  Any other d, a larger k, or a float(n)
    that overflows sends each n through ``_ld``.
    """
    k = d.bit_length() - 1
    if d == 1 << k and k <= 1022:
        try:
            heads = list(map(float, ns))
        except OverflowError:
            pass
        else:
            rests = np.fromiter(map(float, map(sub, ns, map(int, heads))), float, len(ns))
            return np.ldexp(heads, -k).astype(_LD) + np.ldexp(rests, -k).astype(_LD)
    return np.array([_ld(n, d) for n in ns], _LD)


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


def _tally(visits: int) -> int:
    """``visits``, or TooLarge when it passes ``NODE_GUARD``."""
    if visits > NODE_GUARD:
        raise TooLarge(f"oracle tree exceeds {NODE_GUARD} nodes")
    return visits


def _blocks(n: int, size: int):
    """Slices that cover range(n) ``size`` at a time, so that a loop lists
    a bounded number of Python ints at once."""
    return (slice(at, at + size) for at in range(0, n, size))


class _Payouts:
    """Every payout paid = s * scale a walk meets, numbered in one index."""

    def __init__(self):
        self.index = {0: 0}  # paid -> payout number
        self.paid = [0]  # payout number -> paid

    def add(self, nums: np.ndarray, acts: np.ndarray, pays: list[int]) -> np.ndarray:
        """The number of paid[p] + pays[a] for each p in ``nums``, a in ``acts``;
        a payout not met before takes the next number."""
        index, paid = self.index, self.paid
        out = np.empty(len(nums), dtype=np.int32)
        for cut in _blocks(len(nums), _BLOCK):
            out[cut] = [index.setdefault(paid[p] + pays[a], len(index))
                        for p, a in zip(nums[cut].tolist(), acts[cut].tolist())]
        paid += reversed([*islice(reversed(index), len(index) - len(paid))])  # the new ones
        return out


def _children(xs: np.ndarray, ps: np.ndarray, owner: np.ndarray, acts: np.ndarray,
              step: int, zs: list[int], book: _Payouts, last: bool):
    """One depth's children: (child, next xs, next ps).

    Pair j takes action acts[j] at the solvent state owner[j] of (xs, ps).
    Each distinct (payout, action) some pair takes numbers its children's
    payout in ``book`` once.  The children are the next depth's states,
    ordered by payout number, then surplus: a ruined child is the terminal
    state (-1, payout), and at the last depth every child is the terminal
    state of its payout.  ``child[k, j]`` is the place, among them, of pair
    j's child under the k-th income.
    """
    width = int(acts.max()) + 1
    pairs, slot = np.unique(ps[owner].astype(np.int64) * width + acts, return_inverse=True)
    target = book.add(pairs // width, pairs % width, [step * a for a in range(width)])[slot]
    del pairs, slot  # each depth's temporaries go before the next depth's arrays
    if last:  # one terminal state per payout reached, numbered without a sort
        reached = np.zeros(len(book.paid), dtype=bool)
        reached[target] = True
        child = (np.cumsum(reached, dtype=np.int32) - 1)[target]
        next_ps = np.flatnonzero(reached).astype(np.int32)
        return np.broadcast_to(child, (len(zs), len(child))), np.full(len(next_ps), -1), next_ps
    span = int(xs.max()) + max(zs[-1], 0) + 2
    base = target.astype(np.int64) * span  # the key of the payout's terminal state
    key = base + (xs[owner] - acts + 1)  # + the surplus after the dividend, + 1
    states, child = np.unique(np.concatenate([np.maximum(key + z, base) for z in zs]),
                              return_inverse=True)
    return (child.reshape(len(zs), -1).astype(np.int32), states % span - 1,
            (states // span).astype(np.int32))


def _walk(config: ProblemConfig, x0: int, horizon: int, y0: float | None, policy) -> OracleTree:
    """Backward induction over the outcome tree, one depth at a time.

    Every node of the walk is a state (x, paid) of its depth, paid = s *
    scale.  A state with x < 0 is terminal, keyed by its payout alone: a
    ruined child, every child at the horizon, and a root with x0 < 0 or
    horizon 0.  The forward pass lists each depth's reachable states and
    the (state, action) pairs of its solvent ones.  With ``policy`` None a
    solvent state tries every dividend 0..x; else it takes policy(depth,
    x, s), s the exact Fraction, asked once per state and checked by
    ``model.policy_actions``.  A child's payout
    takes one integer add per distinct (payout, action) and is numbered in
    one payout index.  A terminal state is worth cash(y0 + s), which
    depends on its payout alone, so after the forward pass each payout some
    terminal state holds is valued once, ``_LEAF_BLOCK`` payouts to one
    ``cash`` call.  The backward pass forms every pair's expectation in
    long double, income terms added to 0 in ascending z, and keeps each
    solvent state's best (minimized for exponential objectives, maximized
    otherwise), ties going to the larger action: the operations of a
    recursive walk that caches every state, so its values bit for bit.
    Each depth's arrays are freed as the backward pass consumes them.
    Raises TooLarge past ``NODE_GUARD`` node visits, 1 + the sum over
    solvent states of |actions| * |Z|, checked before a depth's pairs are
    formed.
    """
    if horizon < 0:
        raise ValidationError(f"horizon must be >= 0, got {horizon}")
    y0 = check_y0(config.utility, y0)
    probs = exact_probabilities(config.dist)
    terms = [(z, _ld(q.numerator, q.denominator)) for z, q in sorted(probs.items())]
    zs = [z for z, _ in terms]
    beta, y0_frac = Fraction(config.beta), Fraction(y0)
    scale = max(beta.denominator ** max(horizon - 1, 0), y0_frac.denominator)
    tree = OracleTree(config=config, y0=y0_frac, x0=x0, horizon=horizon, scale=scale,
                      decisions={})
    visits = _tally(1)  # the root

    book = _Payouts()
    levels = []
    xs, ps = np.array([max(x0, -1) if horizon else -1]), np.zeros(1, dtype=np.int32)
    while xs.max() >= 0:
        depth, live = len(levels), xs >= 0
        counts = xs + 1 if policy is None else live.astype(np.int64)  # 0 at x = -1
        visits = _tally(visits + int(counts.sum()) * len(zs))
        starts = np.cumsum(counts) - counts
        owner = np.repeat(np.arange(len(xs), dtype=np.int32), counts)
        if policy is None:
            acts = (np.arange(len(owner)) - starts[owner]).astype(np.int32)
        else:
            acts = np.array([policy_actions(policy, depth, x, Fraction(book.paid[p], scale),
                                            "depth", UndefinedAction)[0]
                             for x, p in zip(xs[live].tolist(), ps[live].tolist())],
                            dtype=np.int32)
        step = beta.numerator ** depth * scale // beta.denominator ** depth
        child, next_xs, next_ps = _children(xs, ps, owner, acts, step, zs, book,
                                            depth + 1 == horizon)
        levels.append((xs, ps, starts[live], owner, acts, child))
        xs, ps = next_xs, next_ps
    paid = book.paid
    del book  # the payout index; the payouts stay

    leaf = np.zeros(len(paid), dtype=bool)
    leaf[ps] = True  # the last depth's states, all terminal
    for level_xs, level_ps, *_ in levels:
        leaf[level_ps[level_xs < 0]] = True
    leaf = np.flatnonzero(leaf)
    worth = np.zeros(len(paid), _LD)
    base = int(y0_frac * scale)
    for cut in _blocks(len(leaf), _LEAF_BLOCK):
        ns = [base + paid[p] for p in leaf[cut].tolist()]
        worth[leaf[cut]] = cash(config.utility, config.gamma, _ld_many(ns, scale))
    del leaf

    best_of = np.minimum if config.utility is Utility.EXPONENTIAL else np.maximum
    val = worth[ps]
    while levels:
        xs, ps, starts, owner, acts, child = levels.pop()
        acc, term = np.zeros(len(acts), _LD), np.empty(len(acts), _LD)
        for (_, q), row in zip(terms, child):
            np.take(val, row, out=term)
            term *= q
            acc += term
        val, live = worth[ps], xs >= 0  # a terminal state's worth, or its best below
        val[live] = best_of.reduceat(acc, starts)
        best = np.maximum.reduceat(np.where(acc == np.take(val, owner, out=term), acts, -1),
                                   starts)
        keys = zip(repeat(len(levels)), xs[live].tolist(),
                   map(paid.__getitem__, ps[live].tolist()))
        tree.decisions.update(zip(keys, best.tolist()))
    tree.value = float(val[0])
    return tree


def exact_optimal(config: ProblemConfig, x0: int, horizon: int, *,
                  y0: float | None = None) -> tuple[float, OracleTree]:
    """Optimum over history-dependent plans on the full outcome tree.

    Backward induction over every (depth, x, s) state and action;
    exponential objectives are minimized (J-convention), all others
    maximized.  Ties go to the largest action.  Raises TooLarge past
    ``NODE_GUARD`` visits.
    """
    tree = _walk(config, x0, horizon, y0, None)
    return tree.value, tree


def exact_policy_value(config: ProblemConfig, policy, x0: int, horizon: int,
                       *, y0: float | None = None) -> float:
    """Exact expectation of the objective under a fixed policy.

    ``policy`` is called as policy(depth, x, s) with scalar surplus
    x >= 0 and the exact accumulated payout s as a Fraction: a solver
    policy, an OracleTree or any callable returning an integer action.
    Each answer is checked by ``model.policy_actions``, which raises
    UndefinedAction for an answer that is not of an integer dtype (bool
    and float included), has more than one element, or leaves {0..x}; an
    OracleTree raises it too, at a state it holds no decision for.
    """
    if not callable(policy):
        raise UndefinedAction(f"cannot interpret {type(policy).__name__} as a policy")
    return _walk(config, x0, horizon, y0, policy).value


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
