"""Slope-like payoffs from rank/degree data.

A payoff of the form degree/rank (with +inf at rank zero) is slope-like
whenever both tables are additive along chain triples and zero-rank pairs
have strictly positive degree.  Rationals keep every check exact; data can be
given as raw pair tables (fully validated) or as per-element potentials,
whose differences are additive by construction.  Potentials are scaled once
to integers over the least common denominator of all their values, so the
differences along the strict pairs are int subtractions, and the slopes
are ranked once as int quotients, which gives the game its value codes.  A
slope becomes an exact ``Fraction`` of two ints only when it is read, once
per distinct slope.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import compress
from math import lcm
from operator import eq, itemgetter, not_, sub, truediv

from .errors import AdditivityViolation, NegativeRank, ZeroRankNonpositiveDegree
from .game import Game
from .order import _iter_bits
from .values import NEG_INF, POS_INF, ExtendedRationals


@dataclass(frozen=True)
class RankDegreeData:
    """Validated rank/degree tables on the strict pairs of a lattice."""

    lattice: object
    rank: dict
    degree: dict

    @classmethod
    def from_tables(cls, lattice, rank, degree):
        """Validate raw tables: domain, nonnegative rank, additivity on all
        chain triples, and positive degree at rank zero."""
        pairs = lattice.strict_pairs()
        rank = {p: Fraction(rank[p]) for p in pairs}
        degree = {p: Fraction(degree[p]) for p in pairs}
        names = lattice.names
        for (x, y), r in rank.items():
            if r < 0:
                raise NegativeRank(f"rank({names[x]}, {names[y]}) is negative")
            if r == 0 and degree[(x, y)] <= 0:
                raise ZeroRankNonpositiveDegree(names[x], names[y])
        for x, z in pairs:
            for y in _iter_bits(lattice.strictly_between(x, z)):
                if degree[(x, z)] != degree[(x, y)] + degree[(y, z)]:
                    raise AdditivityViolation("degree", names[x], names[y], names[z])
                if rank[(x, z)] != rank[(x, y)] + rank[(y, z)]:
                    raise AdditivityViolation("rank", names[x], names[y], names[z])
        return cls(lattice, rank, degree)


@dataclass(frozen=True)
class PotentialData:
    """Per-element potentials R, D keyed by element label.

    The induced tables rank = R(y) - R(x), degree = D(y) - D(x) are additive
    automatically; R must be order-preserving so ranks are nonnegative.  Both
    are computed as ints over the common denominator L of all potentials
    (see :func:`_scaled_increments`), and rank = rv / L, degree = dv / L.
    """

    rank_potential: dict
    degree_potential: dict

    def tables(self, lattice):
        scale, rvs, dvs = _scaled_increments(lattice, self)
        pairs = lattice.strict_pairs()
        rank = {p: Fraction(rv, scale) for p, rv in zip(pairs, rvs)}
        degree = {p: Fraction(dv, scale) for p, dv in zip(pairs, dvs)}
        return RankDegreeData(lattice, rank, degree)


def _scaled_increments(lattice, data):
    """The potentials of ``data`` as ints, validated along the strict pairs.

    Returns ``(L, rvs, dvs)``: L is the least common denominator of every
    rank and degree potential, and for the k-th strict pair (x, y) of
    ``strict_pairs()``, ``rvs[k]`` = L (R(y) - R(x)) and ``dvs[k]`` =
    L (D(y) - D(x)) are ints.  It raises :class:`NegativeRank` or
    :class:`ZeroRankNonpositiveDegree` at the first pair whose rank is
    negative, or zero with a nonpositive degree.
    """
    names = lattice.names
    r = [Fraction(data.rank_potential[name]) for name in names]
    d = [Fraction(data.degree_potential[name]) for name in names]
    scale = lcm(*(f.denominator for f in r), *(f.denominator for f in d))
    ri = [f.numerator * (scale // f.denominator) for f in r]
    di = [f.numerator * (scale // f.denominator) for f in d]
    pairs = lattice.strict_pairs()
    lo = list(map(itemgetter(0), pairs))
    hi = list(map(itemgetter(1), pairs))
    rvs = list(map(sub, map(ri.__getitem__, hi), map(ri.__getitem__, lo)))
    dvs = list(map(sub, map(di.__getitem__, hi), map(di.__getitem__, lo)))
    if min(rvs) < 0 or min(compress(dvs, map(not_, rvs)), default=1) <= 0:
        for (x, y), rv, dv in zip(pairs, rvs, dvs):
            if rv < 0:
                raise NegativeRank(
                    f"rank potential decreases along {names[x]} < {names[y]}"
                )
            if rv == 0 and dv <= 0:
                raise ZeroRankNonpositiveDegree(names[x], names[y])
    return scale, rvs, dvs


def quotient_payoff(lattice, data):
    """The game with payoff degree/rank, +inf where rank vanishes.

    ``data`` is a :class:`RankDegreeData` (already validated) or a
    :class:`PotentialData` (validated on expansion).  For potentials the
    common denominator cancels, so each payoff is the slope dv/rv of the
    scaled int increments of :func:`_scaled_increments`.  The slopes are
    ranked once (:func:`_ranked_slopes`) and the game is built from those
    codes: no slope is a value until it is read, and the payoff dict is
    built on first access of ``Game.payoff``.  Values are extended
    rationals; -inf never occurs.
    """
    values = ExtendedRationals()
    if isinstance(data, PotentialData):
        _, rvs, dvs = _scaled_increments(lattice, data)
        return Game._encoded(lattice, values, _ranked_slopes(rvs, dvs))
    degree = data.degree
    payoff = {
        pair: degree[pair] / r if r > 0 else POS_INF
        for pair, r in data.rank.items()
    }
    return Game(lattice, values, payoff)


def _nearest_float(dv, rv):
    """The float nearest dv / rv for ints with rv >= 0: +inf at rv = 0 (where
    dv > 0), and ±inf beyond the float range."""
    if not rv:
        return POS_INF
    try:
        return dv / rv
    except OverflowError:
        return POS_INF if dv > 0 else NEG_INF


def _ranked_slopes(rvs, dvs):
    """The slopes dv/rv of int increments, encoded as
    ``ExtendedRationals.encode`` encodes them.

    Returns ``(codes, decode)``: ``codes[k]`` is the rank of the slope
    ``Fraction(dvs[k], rvs[k])``, or of +inf where ``rvs[k]`` is 0 (so
    ``dvs[k]`` > 0), among the distinct slopes, and ``decode`` maps each
    rank back to its slope (:class:`_Slopes`), built on first lookup.  One
    sort by the nearest floats orders the slopes up to runs of equal floats;
    only such a run is compared exactly, by cross-multiplying, which also
    ranks +inf above every finite slope, even one beyond the float range.
    """
    n = len(rvs)
    try:
        near = list(map(truediv, dvs, rvs))
    except (OverflowError, ZeroDivisionError):
        near = list(map(_nearest_float, dvs, rvs))
    order = sorted(range(n), key=near.__getitem__)

    def exact(i, j):
        return dvs[i] * rvs[j] - dvs[j] * rvs[i]

    # Position p ties when order[p - 1] and order[p] have the same float.
    sorted_near = list(map(near.__getitem__, order))
    ties = list(compress(range(1, n), map(eq, sorted_near, sorted_near[1:])))
    done = 0
    for p in ties:
        if p > done:
            done = p
            while done + 1 < n and sorted_near[done + 1] == sorted_near[p]:
                done += 1
            order[p - 1:done + 1] = sorted(
                order[p - 1:done + 1], key=cmp_to_key(exact)
            )
    new_rank = [True] * n
    for p in ties:
        if not exact(order[p - 1], order[p]):
            new_rank[p] = False
    codes = [0] * n
    rank = -1
    for k, new in zip(order, new_rank):
        if new:
            rank += 1
        codes[k] = rank
    firsts = list(compress(order, new_rank))
    return codes, _Slopes(
        list(map(dvs.__getitem__, firsts)), list(map(rvs.__getitem__, firsts))
    )


class _Slopes(Mapping):
    """Slopes by rank: rank c is dvs[c] / rvs[c], +inf where rvs[c] is 0.

    Each slope is built on its first lookup and kept, so every lookup of a
    rank returns the same object.
    """

    __slots__ = ("dvs", "rvs", "built")

    def __init__(self, dvs, rvs):
        self.dvs, self.rvs, self.built = dvs, rvs, {}

    def __getitem__(self, c):
        v = self.built.get(c)
        if v is None:
            if not 0 <= c < len(self.rvs):
                raise KeyError(c)
            rv = self.rvs[c]
            v = self.built[c] = Fraction(self.dvs[c], rv) if rv else POS_INF
        return v

    def __iter__(self):
        return iter(range(len(self.rvs)))

    def __len__(self):
        return len(self.rvs)
