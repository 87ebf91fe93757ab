"""Harder-Narasimhan games: payoff tables, the mu-series, and predicates.

A game is a nontrivial bounded lattice L, a value lattice S, and a payoff
defined on exactly the strict pairs x < y of L.  The four derived series are

    mu_max(x, y) = sup { mu(x, w) | x < w <= y }
    mu_min(x, y) = inf { mu(w, y) | x <= w < y }
    mu_a(x, y)   = inf { mu_max(a, y) | x <= a < y }
    mu_b(x, y)   = sup { mu_min(x, b) | x < b <= y }

and all witness sets only involve elements between x and y, so the values of
the series on a pair inside an interval agree with the ambient ones.  Every
per-interval notion (semistability on [lo, hi], the maximal-destabilizer set,
...) is therefore computed from ambient pair tables, and the test suite
verifies exhaustively that this matches honest restriction.  The table engine
fills those tables by interval size with a Hasse-diagram recursion, as sups
and infs are associative: mu_max(x, y) = sup(mu(x, y), mu_max(x, c) : c a
lower cover of y, x < c), mu_a(x, y) = inf(mu_max(x, y), mu_a(c, y) : c an
upper cover of x, c < y), mu_min and mu_b dually, and all four equal the
payoff on a cover.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    MissingBottom,
    NotAChain,
    NotAntitone,
    NotStrict,
    PreconditionFailed,
    TheoremViolation,
)
from .order import _iter_bits

INCREASING, DECREASING, FLAT, VIOLATION = (
    "increasing",
    "decreasing",
    "flat",
    "violation",
)


class Game:
    """A payoff function on the strict pairs of a bounded lattice."""

    __slots__ = ("lattice", "values", "payoff", "_tables", "_slope_like")

    def __init__(self, lattice, values, payoff):
        pairs = lattice.strict_pairs()
        if set(payoff) != set(pairs):
            missing = set(pairs) - set(payoff)
            extra = set(payoff) - set(pairs)
            raise ValueError(
                "payoff must be defined on exactly the strict pairs; "
                f"missing {sorted(missing)}, extra {sorted(extra)}"
            )
        for pair, v in payoff.items():
            if not values.contains(v):
                raise ValueError(f"payoff value {v!r} at {pair} not in value lattice")
        self.lattice = lattice
        self.values = values
        self.payoff = dict(payoff)
        self._tables = None
        self._slope_like = None

    @classmethod
    def _trusted(cls, lattice, values, payoff):
        """Construction bypassing domain validation; for internal sweeps."""
        g = cls.__new__(cls)
        g.lattice = lattice
        g.values = values
        g.payoff = payoff
        g._tables = None
        g._slope_like = None
        return g

    def mu(self, x, y):
        if not self.lattice.lt(x, y):
            raise NotStrict(
                f"payoff needs {self.lattice.names[x]} < {self.lattice.names[y]}"
            )
        return self.payoff[(x, y)]

    def tables(self):
        if self._tables is None:
            self._tables = _compute_tables(self)
        return self._tables

    def __eq__(self, other):
        return (
            isinstance(other, Game)
            and self.lattice == other.lattice
            and self.values == other.values
            and self.payoff == other.payoff
        )

    def __repr__(self):
        return f"Game({self.lattice!r}, {self.values!r}, {len(self.payoff)} pairs)"


@dataclass(frozen=True)
class MuTables:
    """All four series tabulated over every strict pair."""

    mu_max: dict
    mu_min: dict
    mu_a: dict
    mu_b: dict


def _cover_ids(lattice):
    """Per-pair cover index lists, cached on the lattice.

    For pair p = (x, y): below[p] indexes the pairs (x, c) with c a lower
    cover of y and x < c, above[p] the pairs (c, y) with c an upper cover of x
    and c < y.  Both are empty exactly on covers; ``order`` lists the other
    pairs by interval size, so every pair comes after the pairs it reads.
    """
    cached = lattice._cache.get("covers")
    if cached is not None:
        return cached
    pairs = lattice.strict_pairs()
    pid = {p: k for k, p in enumerate(pairs)}
    covers = lattice.covers()
    lower = [[a for a, b in covers if b == y] for y in lattice.elements()]
    upper = [[b for a, b in covers if a == x] for x in lattice.elements()]
    below, above = [], []
    for x, y in pairs:
        inside = lattice.strictly_between(x, y)
        below.append([pid[(x, c)] for c in lower[y] if (inside >> c) & 1])
        above.append([pid[(c, y)] for c in upper[x] if (inside >> c) & 1])
    order = sorted(
        (k for k in range(len(pairs)) if below[k]),
        key=lambda k: lattice.between(*pairs[k]).bit_count(),
    )
    cached = (pairs, below, above, order)
    lattice._cache["covers"] = cached
    return cached


def _compute_tables(g):
    pairs, below, above, order = _cover_ids(g.lattice)
    sup, inf = g.values.sup, g.values.inf
    vals = [g.payoff[p] for p in pairs]
    tmax, tmin, ta, tb = vals[:], vals[:], vals[:], vals[:]
    for k in order:
        tmax[k] = sup([vals[k]] + [tmax[q] for q in below[k]])
        tmin[k] = inf([vals[k]] + [tmin[q] for q in above[k]])
        ta[k] = inf([tmax[k]] + [ta[q] for q in above[k]])
        tb[k] = sup([tmin[k]] + [tb[q] for q in below[k]])
    return MuTables(
        mu_max=dict(zip(pairs, tmax)),
        mu_min=dict(zip(pairs, tmin)),
        mu_a=dict(zip(pairs, ta)),
        mu_b=dict(zip(pairs, tb)),
    )


def _require_strict(g, x, y):
    if not g.lattice.lt(x, y):
        raise NotStrict(
            f"need {g.lattice.names[x]} < {g.lattice.names[y]}"
        )


def mu_max(g, x, y):
    """Best payoff the first mover can force in one step inside [x, y]."""
    _require_strict(g, x, y)
    return g.tables().mu_max[(x, y)]


def mu_min(g, x, y):
    _require_strict(g, x, y)
    return g.tables().mu_min[(x, y)]


def mu_a(g, x, y):
    """Second-mover optimum against the best one-step response."""
    _require_strict(g, x, y)
    return g.tables().mu_a[(x, y)]


def mu_b(g, x, y):
    _require_strict(g, x, y)
    return g.tables().mu_b[(x, y)]


def mu_a_star(g):
    return mu_a(g, g.lattice.bot, g.lattice.top)


def mu_b_star(g):
    return mu_b(g, g.lattice.bot, g.lattice.top)


@dataclass(frozen=True)
class MuSeries:
    """The four series at one interval plus the whole-game star values."""

    mu_max: object
    mu_min: object
    mu_a: object
    mu_b: object
    mu_a_star: object
    mu_b_star: object


def mu_series(g, ival):
    """Evaluate the series at the endpoints of an interval of g's lattice."""
    t = g.tables()
    pair = (ival.lo, ival.hi)
    star = (g.lattice.bot, g.lattice.top)
    return MuSeries(
        mu_max=t.mu_max[pair],
        mu_min=t.mu_min[pair],
        mu_a=t.mu_a[pair],
        mu_b=t.mu_b[pair],
        mu_a_star=t.mu_a[star],
        mu_b_star=t.mu_b[star],
    )


def restrict(g, ival):
    """The game induced on an interval; payoff agrees with the ambient one."""
    sub = ival.as_lattice()
    amb = ival.member_indices()
    payoff = {
        (i, j): g.payoff[(amb[i], amb[j])] for (i, j) in sub.strict_pairs()
    }
    return Game._trusted(sub, g.values, payoff)


def dual(g):
    """The game on the order-dual lattice with order-dual values.

    The payoff of the dual pair (x, y) is the original payoff of (y, x); the
    star values swap roles, mu_b* of the dual being mu_a* of the original.
    """
    dlat = g.lattice.dual()
    payoff = {(j, i): v for (i, j), v in g.payoff.items()}
    return Game._trusted(dlat, g.values.dual(), payoff)


def is_convex(g):
    """Whether mu(x ^ y, x) <= mu(y, x v y) whenever x is not below y."""
    return _convexity(g, require_equal=False)


def is_affine(g):
    """Whether mu(x ^ y, x) == mu(y, x v y) whenever x is not below y."""
    return _convexity(g, require_equal=True)


def _convexity(g, require_equal):
    l = g.lattice
    leq = g.values.leq
    payoff = g.payoff
    for x in range(l.n):
        up_x = l.poset.up[x]
        for y in range(l.n):
            if (up_x >> y) & 1:
                continue
            left = payoff[(l.meet[x][y], x)]
            right = payoff[(y, l.join[x][y])]
            if require_equal:
                if left != right:
                    return False
            elif not leq(left, right):
                return False
    return True


def interval_semistable(g, lo, hi):
    """Semistability of the restriction of g to [lo, hi].

    Verbatim form: no x above lo in the interval has mu_a(lo, x) strictly
    greater than mu_a(lo, hi).  For non-total value lattices this is weaker
    than mu_a(lo, x) <= mu_a(lo, hi).
    """
    t = g.tables()
    ref = t.mu_a[(lo, hi)]
    gt = g.values.gt
    for x in _iter_bits(g.lattice.strictly_between(lo, hi)):
        if gt(t.mu_a[(lo, x)], ref):
            return False
    return True


def interval_stable(g, lo, hi):
    """Stability of the restriction of g to [lo, hi]: semistable and no
    proper intermediate x attains mu_a(lo, hi)."""
    if not interval_semistable(g, lo, hi):
        return False
    t = g.tables()
    ref = t.mu_a[(lo, hi)]
    for x in _iter_bits(g.lattice.strictly_between(lo, hi)):
        if t.mu_a[(lo, x)] == ref:
            return False
    return True


def is_semistable(g):
    """No x above bot strictly beats the whole game."""
    return interval_semistable(g, g.lattice.bot, g.lattice.top)


def is_stable(g):
    """Semistable, and no proper x strictly between bot and top ties the
    whole-game value.

    The quantifier deliberately excludes x = top, where equality is automatic;
    on a two-element lattice stability therefore coincides with semistability.
    """
    return interval_stable(g, g.lattice.bot, g.lattice.top)


def _chain_triples(lattice):
    cached = lattice._cache.get("triples")
    if cached is not None:
        return cached
    pairs = lattice.strict_pairs()
    pid = {p: k for k, p in enumerate(pairs)}
    triples = []
    for x, z in pairs:
        for y in _iter_bits(lattice.strictly_between(x, z)):
            triples.append((pid[(x, y)], pid[(x, z)], pid[(y, z)], (x, y, z)))
    cached = (pairs, triples)
    lattice._cache["triples"] = cached
    return cached


def is_slope_like(g):
    """The four disjunctions of the slope-like condition on every chain triple.

    For x < y < z:
      (1) mu(x,y) <= mu(x,z)  or  mu(y,z) < mu(x,z)
      (2) mu(x,y) <  mu(x,z)  or  mu(y,z) <= mu(x,z)
      (3) mu(x,z) <  mu(x,y)  or  mu(x,z) <= mu(y,z)
      (4) mu(x,z) <= mu(x,y)  or  mu(x,z) <  mu(y,z)

    The verdict is cached on the game, like its tables.
    """
    if g._slope_like is None:
        g._slope_like = _scan_slope_like(g)
    return g._slope_like


def _scan_slope_like(g):
    pairs, triples = _chain_triples(g.lattice)
    vals = [g.payoff[p] for p in pairs]
    leq, lt = g.values.leq, g.values.lt
    for pxy, pxz, pyz, _ in triples:
        vxy, vxz, vyz = vals[pxy], vals[pxz], vals[pyz]
        if not (leq(vxy, vxz) or lt(vyz, vxz)):
            return False
        if not (lt(vxy, vxz) or leq(vyz, vxz)):
            return False
        if not (lt(vxz, vxy) or leq(vxz, vyz)):
            return False
        if not (leq(vxz, vxy) or lt(vxz, vyz)):
            return False
    return True


def seesaw_classify(g, x, y, z):
    """Classify a chain triple as increasing, decreasing, flat, or violation.

    For total value lattices, the game is slope-like exactly when no triple is
    a violation.
    """
    l = g.lattice
    if not (l.lt(x, y) and l.lt(y, z)):
        raise NotAChain(
            f"need {l.names[x]} < {l.names[y]} < {l.names[z]}"
        )
    vxy, vxz, vyz = g.payoff[(x, y)], g.payoff[(x, z)], g.payoff[(y, z)]
    lt = g.values.lt
    if lt(vxy, vxz) and lt(vxz, vyz):
        return INCREASING
    if lt(vxz, vxy) and lt(vyz, vxz):
        return DECREASING
    if vxy == vxz == vyz:
        return FLAT
    return VIOLATION


def has_seesaw_violation(g):
    """Whether some chain triple x < y < z classifies as a violation."""
    l = g.lattice
    return any(
        seesaw_classify(g, x, y, z) == VIOLATION
        for x, z in l.strict_pairs()
        for y in _iter_bits(l.strictly_between(x, z))
    )


def has_nash_equilibrium(g):
    """Whether the second-mover optima coincide: mu_a* == mu_b*."""
    return mu_a_star(g) == mu_b_star(g)


@dataclass(frozen=True)
class NashReport:
    """The four equivalent first-mover-advantage statements plus context.

    Under the checked hypotheses (total values, slope-like payoff; the chain
    conditions hold vacuously on finite lattices) the four items agree, a
    semistable game satisfies them, and conversely.
    """

    mu_max_attains_payoff: bool
    mu_min_attains_payoff: bool
    mu_min_equals_mu_max: bool
    nash: bool
    semistable: bool

    @property
    def items(self):
        return (
            self.mu_max_attains_payoff,
            self.mu_min_attains_payoff,
            self.mu_min_equals_mu_max,
            self.nash,
        )


def nash_tfae_report(g):
    """Evaluate the four equivalent conditions and their semistability link.

    Requires total values and a slope-like payoff; raises
    :class:`PreconditionFailed` otherwise and :class:`TheoremViolation` if the
    guaranteed agreements fail (which would indicate a bug, not an input
    problem).
    """
    if not g.values.is_total:
        raise PreconditionFailed("value lattice is totally ordered")
    if not is_slope_like(g):
        raise PreconditionFailed("payoff is slope-like")
    t = g.tables()
    bt = (g.lattice.bot, g.lattice.top)
    v = g.payoff[bt]
    report = NashReport(
        mu_max_attains_payoff=t.mu_max[bt] == v,
        mu_min_attains_payoff=t.mu_min[bt] == v,
        mu_min_equals_mu_max=t.mu_min[bt] == t.mu_max[bt],
        nash=t.mu_a[bt] == t.mu_b[bt],
        semistable=is_semistable(g),
    )
    if len(set(report.items)) != 1:
        raise TheoremViolation(f"equivalent conditions diverged: {report.items}")
    if report.semistable and not report.nash:
        raise TheoremViolation("semistable game without Nash equilibrium")
    if report.nash and not report.semistable:
        raise TheoremViolation("Nash equilibrium without semistability")
    return report


def compress_antitone(lattice, seq, pred=None):
    """Extract the strictly decreasing subsequence of an antitone sequence.

    ``seq`` must start at top, be weakly decreasing, and reach bot; the output
    keeps the first element of each constant run up to the first bot, so it is
    a strict top-to-bot chain containing every value of the input.  When
    ``pred`` is given it must hold on every strict consecutive input pair, and
    it then holds on every consecutive output pair (those pairs were adjacent
    in the input).
    """
    seq = list(seq)
    if not seq or seq[0] != lattice.top:
        raise NotAntitone("sequence must start at the top element")
    for a, b in zip(seq, seq[1:]):
        if not lattice.le(b, a):
            raise NotAntitone(
                f"{lattice.names[b]} does not sit below {lattice.names[a]}"
            )
        if pred is not None and b != a and not pred(b, a):
            raise ValueError("predicate fails on a strict consecutive input pair")
    if lattice.bot not in seq:
        raise MissingBottom("sequence never reaches the bottom element")
    out = [seq[0]]
    for b in seq[1:]:
        if b != out[-1]:
            out.append(b)
        if b == lattice.bot:
            break
    return out
