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

The engine does not compare values.  A game's payoff is encoded once as
order-preserving ints (:meth:`~hngame.values.ValueLattice.encode`), kept as
one flat list indexed by pair id, the position of a pair in
``strict_pairs()``.  The public constructor encodes while it validates, and a
trusted game, such as a restriction or a dual, encodes on first use.  The
table recursion and the convexity, slope-like and interval (semi)stability
predicates read only codes and the code tables, compared and folded by
``values.code_order`` (builtins for total value kinds); the searches of
:mod:`hngame.filtration` and :mod:`hngame.jordan_holder` read them through
:func:`_payoff_code` and :func:`_mu_a_code`.  Decoding happens once, where
:meth:`Game.tables` builds the public :class:`MuTables` dicts; ``payoff`` and
every value handed out are values, not codes.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from itertools import compress, repeat

from .errors import (
    NotAChain,
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
    """A payoff function on the strict pairs of a bounded lattice.

    ``payoff`` maps each strict pair to its value.  The engine reads the
    payoff codes instead (see the module docstring): the public constructor
    validates and encodes the values in one pass, while :meth:`_trusted`
    leaves the encoding to the first computation that needs it.
    """

    __slots__ = (
        "lattice", "values", "payoff", "_codes", "_series", "_tables",
        "_slope_like",
    )

    def __init__(self, lattice, values, payoff):
        pairs = lattice.strict_pairs()
        if set(payoff) != set(pairs):
            missing = set(pairs) - set(payoff)
            extra = set(payoff) - set(pairs)
            raise ValueError(
                "payoff must be defined on exactly the strict pairs; "
                f"missing {sorted(missing)}, extra {sorted(extra)}"
            )
        self.lattice = lattice
        self.values = values
        self.payoff = dict(payoff)
        self._codes = None
        self._series = None
        self._tables = None
        self._slope_like = None
        try:
            _codes(self)
        except ValueError:
            pair, v = next(
                (p, v) for p, v in self.payoff.items() if not values.contains(v)
            )
            raise ValueError(
                f"payoff value {v!r} at {pair} not in value lattice"
            ) from None

    @classmethod
    def _trusted(cls, lattice, values, payoff):
        """Construction bypassing domain validation; for internal sweeps."""
        g = cls.__new__(cls)
        g.lattice = lattice
        g.values = values
        g.payoff = payoff
        g._codes = None
        g._series = None
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
            self._series = _compute_tables(self)
            decode = _codes(self)[1].__getitem__
            pairs = self.lattice.strict_pairs()
            self._tables = MuTables(
                *(dict(zip(pairs, map(decode, s))) for s in self._series)
            )
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


def _pair_ids(lattice):
    """Pair ids by row, cached on the lattice: ``ids[x][y]`` is the index of
    the strict pair (x, y) in ``strict_pairs()``."""
    cached = lattice._cache.get("pair_ids")
    if cached is None:
        cached = [{} for _ in lattice.elements()]
        for k, (x, y) in enumerate(lattice.strict_pairs()):
            cached[x][y] = k
        lattice._cache["pair_ids"] = cached
    return cached


def _codes(g):
    """The payoff codes by pair id and the map from code back to value,
    encoded on first use."""
    if g._codes is None:
        g._codes = g.values.encode(
            list(map(g.payoff.__getitem__, g.lattice.strict_pairs()))
        )
    return g._codes


def _series(g):
    """mu_max, mu_min, mu_a and mu_b as code lists by pair id, computed with
    the tables."""
    if g._series is None:
        g.tables()
    return g._series


def _payoff_code(g):
    """The payoff code lookup of g: ``code(x, y)`` for a strict pair x < y.

    With :func:`_mu_a_code`, the way other modules read codes, so that the
    code layout stays inside this module.
    """
    codes, pid = _codes(g)[0], _pair_ids(g.lattice)
    return lambda x, y: codes[pid[x][y]]


def _mu_a_code(g):
    """The mu_a code lookup of g: ``code(x, y)`` for a strict pair x < y."""
    ta, pid = _series(g)[2], _pair_ids(g.lattice)
    return lambda x, y: ta[pid[x][y]]


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
    pid = _pair_ids(lattice)
    up, down = lattice.up, lattice.down
    lower = [[] for _ in lattice.elements()]
    upper = [[] for _ in lattice.elements()]
    for a, b in lattice.covers():
        lower[b].append(a)
        upper[a].append(b)
    below, above, size = [], [], []
    for x, y in pairs:
        inside = up[x] & down[y] & ~(1 << x | 1 << y)
        row = pid[x]
        below.append([row[c] for c in lower[y] if (inside >> c) & 1])
        above.append([pid[c][y] for c in upper[x] if (inside >> c) & 1])
        size.append(inside.bit_count())
    order = sorted((k for k in range(len(pairs)) if below[k]), key=size.__getitem__)
    cached = (pairs, below, above, order)
    lattice._cache["covers"] = cached
    return cached


def _compute_tables(g):
    """The four series as code lists by pair id, along the cover index."""
    _, below, above, order = _cover_ids(g.lattice)
    codes = _codes(g)[0]
    sup, inf = g.values.code_order.sup, g.values.code_order.inf
    tmax, tmin, ta, tb = codes[:], codes[:], codes[:], codes[:]
    gmax, gmin = tmax.__getitem__, tmin.__getitem__
    ga, gb = ta.__getitem__, tb.__getitem__
    for k in order:
        tmax[k] = sup([codes[k], *map(gmax, below[k])])
        tmin[k] = inf([codes[k], *map(gmin, above[k])])
        ta[k] = inf([tmax[k], *map(ga, above[k])])
        tb[k] = sup([tmin[k], *map(gb, below[k])])
    return tmax, tmin, ta, tb


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
    l = g.lattice
    payoff = {(j, i): v for (i, j), v in g.payoff.items()}
    return Game._trusted(l.dual(), g.values.dual(), payoff)


def is_convex(g):
    """Whether mu(x ^ y, x) <= mu(y, x v y) whenever x is not below y."""
    return _convexity(g, require_equal=False)


def is_affine(g):
    """Whether mu(x ^ y, x) == mu(y, x v y) whenever x is not below y."""
    return _convexity(g, require_equal=True)


def _convexity(g, require_equal):
    left, right = _convexity_ids(g.lattice)
    code = _codes(g)[0].__getitem__
    holds = operator.eq if require_equal else g.values.code_order.le
    return all(map(holds, map(code, left), map(code, right)))


def _convexity_ids(lattice):
    """The pair ids of (x ^ y, x) and of (y, x v y) over all incomparable
    x, y, as two int arrays; cached on the lattice.

    A row x with incomparable elements is read for every y in C loops: a
    non-strict pair reads as -1, so on comparable x, y both ids are -1
    (x <= y) or both are the id of (y, x) (y < x), and only the incomparable
    ones have different ids.
    """
    cached = lattice._cache.get("convexity")
    if cached is None:
        pid = _pair_ids(lattice)
        up, down, full = lattice.up, lattice.down, lattice.full_mask
        cached = left, right = array("i"), array("i")
        for x in lattice.elements():
            if up[x] | down[x] == full:
                continue
            meets = map(pid.__getitem__, lattice.meet[x])
            lrow = list(map(dict.get, meets, repeat(x), repeat(-1)))
            rrow = list(map(dict.get, pid, lattice.join[x], repeat(-1)))
            keep = list(map(operator.ne, lrow, rrow))
            left.extend(compress(lrow, keep))
            right.extend(compress(rrow, keep))
        lattice._cache["convexity"] = cached
    return cached


def interval_semistable(g, lo, hi):
    """Semistability of the restriction of g to [lo, hi].

    Verbatim form: no x above lo in the interval has mu_a(lo, x) strictly
    greater than mu_a(lo, hi).  For non-total value lattices this is weaker
    than mu_a(lo, x) <= mu_a(lo, hi).
    """
    ta = _series(g)[2]
    row = _pair_ids(g.lattice)[lo]
    ref = ta[row[hi]]
    lt = g.values.code_order.lt
    for x in _iter_bits(g.lattice.strictly_between(lo, hi)):
        if lt(ref, ta[row[x]]):
            return False
    return True


def interval_stable(g, lo, hi):
    """Stability of the restriction of g to [lo, hi]: semistable and no
    proper intermediate x attains mu_a(lo, hi)."""
    ta = _series(g)[2]
    row = _pair_ids(g.lattice)[lo]
    ref = ta[row[hi]]
    lt = g.values.code_order.lt
    for x in _iter_bits(g.lattice.strictly_between(lo, hi)):
        v = ta[row[x]]
        if v == ref or lt(ref, v):
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
    """The pair ids (x, y), (x, z), (y, z) of every chain x < y < z; cached
    on the lattice."""
    cached = lattice._cache.get("triples")
    if cached is not None:
        return cached
    pid = _pair_ids(lattice)
    cached = [
        (pid[x][y], pxz, pid[y][z])
        for pxz, (x, z) in enumerate(lattice.strict_pairs())
        for y in _iter_bits(lattice.strictly_between(x, z))
    ]
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
    codes = _codes(g)[0]
    leq, lt = g.values.code_order.le, g.values.code_order.lt
    for pxy, pxz, pyz in _chain_triples(g.lattice):
        vxy, vxz, vyz = codes[pxy], codes[pxz], codes[pyz]
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
