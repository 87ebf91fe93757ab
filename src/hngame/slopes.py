"""Slope-like payoffs from rank/degree data.

A payoff of the form degree/rank (with +inf at rank zero) is slope-like
whenever both tables are additive along chain triples and zero-rank pairs
have strictly positive degree.  Rationals keep every check exact; data can be
given as raw pair tables (fully validated) or as per-element potentials,
whose differences are additive by construction.  Potentials are scaled once
to integers over the least common denominator of all their values, so the
differences along the strict pairs are int subtractions; tables give each
pair's rank and degree over their common denominator.  Either way every
slope is an int quotient dv/rv, and the quotients are ranked once by the
extended-rational encoding of :mod:`hngame.values`, which gives the game its
value codes.  A slope becomes an exact ``Fraction`` of two ints only when it
is read, once per distinct slope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import itemgetter, not_, sub

from .errors import AdditivityViolation, NegativeRank, ZeroRankNonpositiveDegree
from .game import Game
from .order import _iter_bits
from .values import ExtendedRationals, _ranked_slopes


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
    :class:`PotentialData` (validated on expansion).  Either gives each
    strict pair a slope dv/rv of ints with rv >= 0: for potentials the scaled
    increments of :func:`_scaled_increments`, whose common denominator
    cancels, and for tables the rank and degree over their common
    denominator.  The slopes are ranked once
    (:func:`~hngame.values._ranked_slopes`) and the game is built from those
    codes: no slope is a value until it is read, and the payoff dict is
    built on first access of ``Game.payoff``.  Values are extended
    rationals; -inf never occurs.
    """
    if isinstance(data, PotentialData):
        _, rvs, dvs = _scaled_increments(lattice, data)
    else:
        rd = [(data.rank[p], data.degree[p]) for p in lattice.strict_pairs()]
        rvs = [r.numerator * d.denominator for r, d in rd]
        dvs = [d.numerator * r.denominator for r, d in rd]
    return Game._encoded(lattice, ExtendedRationals(), _ranked_slopes(rvs, dvs))
