"""Canonical Harder-Narasimhan filtrations and brute-force oracles.

The canonical filtration climbs from bot by repeatedly taking the greatest
element of the maximal-destabilizer set of the game restricted to [current,
top].  Validation checks the two defining conditions of a filtration: each
step's restricted game is semistable, and consecutive step values strictly
drop (in the negated form "not <=", which matters for non-total values).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptySt, NoGreatest, PreconditionFailed, TooLarge
from .game import _mu_a_code, interval_semistable, is_convex
from .order import _iter_bits, check_chain, iter_chains

MAX_ENUMERATION_ELEMENTS = 16


@dataclass(frozen=True)
class Filtration:
    """A strict chain bot = a_0 < ... < a_n = top with step annotations.

    ``mu_a_steps[i]`` is mu_a(a_i, a_{i+1}); ``steps`` holds element indices.
    """

    steps: tuple
    mu_a_steps: tuple

    @property
    def length(self):
        return len(self.steps) - 1

    def labels(self, lattice):
        return tuple(lattice.names[i] for i in self.steps)


@dataclass(frozen=True)
class HNReport:
    """Per-condition outcome of validating a candidate filtration."""

    filtration: Filtration
    piecewise_semistable: tuple
    mu_a_decreasing: tuple
    valid: bool


def _st_set_on(g, lo, hi):
    """Members of the maximal-destabilizer set of the restriction to [lo, hi].

    x in (lo, hi] belongs when no y in (lo, hi] has mu_a(lo, y) strictly above
    mu_a(lo, x), and every y attaining mu_a(lo, x) sits below x.
    """
    l = g.lattice
    code = _mu_a_code(g)
    members = list(_iter_bits(l.between(lo, hi) & ~(1 << lo)))
    mu = {x: code(lo, x) for x in members}
    lt = g.values.code_order.lt
    out = []
    for x in members:
        vx = mu[x]
        ok = True
        for y in members:
            vy = mu[y]
            if lt(vx, vy):
                ok = False
                break
            if vy == vx and not l.le(y, x):
                ok = False
                break
        if ok:
            out.append(x)
    return frozenset(out)


def st_set(g):
    """The maximal-destabilizer set of the whole game."""
    return _st_set_on(g, g.lattice.bot, g.lattice.top)


def _greatest_st_on(g, lo, hi):
    s = _st_set_on(g, lo, hi)
    if not s:
        raise EmptySt(
            "maximal-destabilizer set is empty; with a convex admissible "
            "payoff this cannot happen"
        )
    for x in s:
        if all(g.lattice.le(y, x) for y in s):
            return x
    raise NoGreatest(
        "maximal-destabilizer set has no greatest element; with a convex "
        "admissible payoff this cannot happen"
    )


def mu_admissible(g):
    """Total values, or the infimum defining mu_a attained on every pair."""
    if g.values.is_total:
        return True
    t = g.tables()
    l = g.lattice
    for x, y in l.strict_pairs():
        target = t.mu_a[(x, y)]
        witnesses = [x] + list(_iter_bits(l.strictly_between(x, y)))
        if all(t.mu_max[(a, y)] != target for a in witnesses):
            return False
    return True


def greatest_st(g):
    """Greatest element of the maximal-destabilizer set.

    Requires a convex, admissible payoff; under those hypotheses the set is
    nonempty and has a greatest element, so :class:`EmptySt` and
    :class:`NoGreatest` are theorem-violation diagnostics rather than
    expected outcomes.
    """
    _check_filtration_preconditions(g)
    return _greatest_st_on(g, g.lattice.bot, g.lattice.top)


def _check_filtration_preconditions(g):
    if not is_convex(g):
        raise PreconditionFailed("payoff is convex")
    if not mu_admissible(g):
        raise PreconditionFailed(
            "mu-admissible", "values not total and the mu_a infimum is not attained"
        )


def canonical_hn_filtration(g):
    """Construct the canonical filtration and validate it.

    Starting at bot, each next step is the greatest maximal-destabilizer of
    the game on [current, top].  The loop strictly ascends, so it terminates
    on a finite lattice.
    """
    _check_filtration_preconditions(g)
    l = g.lattice
    steps = [l.bot]
    while steps[-1] != l.top:
        nxt = _greatest_st_on(g, steps[-1], l.top)
        assert l.lt(steps[-1], nxt), "canonical step failed to ascend"
        steps.append(nxt)
    return validate_hn(g, steps)


def validate_hn(g, f):
    """Check the two filtration conditions and report per step.

    Condition one: the restriction to every [a_i, a_{i+1}] is semistable.
    Condition two: consecutive mu_a values satisfy not(mu_a_i <= mu_a_{i+1}).
    """
    l = g.lattice
    steps = check_chain(l, f, l.bot, l.top)
    pairs = tuple(zip(steps, steps[1:]))
    mu_a = g.tables().mu_a
    mu_steps = tuple(mu_a[p] for p in pairs)
    piecewise = tuple(interval_semistable(g, a, b) for a, b in pairs)
    code = _mu_a_code(g)
    codes = [code(a, b) for a, b in pairs]
    le = g.values.code_order.le
    decreasing = tuple(not le(a, b) for a, b in zip(codes, codes[1:]))
    return HNReport(
        filtration=Filtration(steps, mu_steps),
        piecewise_semistable=piecewise,
        mu_a_decreasing=decreasing,
        valid=all(piecewise) and all(decreasing),
    )


def enumerate_hn_filtrations(g, max_elements=MAX_ENUMERATION_ELEMENTS):
    """All strict bot-to-top chains passing validation, by exhaustive search.

    This is the uniqueness oracle: with total values and a convex payoff it
    must return exactly one chain, the canonical one.  Both conditions of
    :func:`validate_hn` are local to a step (and its predecessor), so the
    search prunes a chain at its first failing step.
    """
    l = g.lattice
    TooLarge.check("lattice size", l.n, max_elements)
    code = _mu_a_code(g)
    le = g.values.code_order.le

    def step_ok(chain, nxt):
        lo = chain[-1]
        if len(chain) > 1 and le(code(chain[-2], lo), code(lo, nxt)):
            return False
        return interval_semistable(g, lo, nxt)

    return [
        validate_hn(g, chain).filtration
        for chain in iter_chains(l, l.bot, l.top, step_ok)
    ]
