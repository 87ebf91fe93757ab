"""Slope-like payoffs from rank/degree data.

A payoff of the form degree/rank (with +inf at rank zero) is slope-like
whenever both tables are additive along chain triples and zero-rank pairs
have strictly positive degree.  Rationals keep every check exact; data can be
given as raw pair tables (fully validated) or as per-element potentials,
whose differences are additive by construction.  Potentials are scaled once
to integers over the least common denominator of all their values, so the
differences along the strict pairs are int subtractions and each slope is
one exact ``Fraction`` of two ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import AdditivityViolation, NegativeRank, ZeroRankNonpositiveDegree
from .game import Game
from .order import _iter_bits
from .values import POS_INF, ExtendedRationals


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
        scale, increments = _scaled_increments(lattice, self)
        rank, degree = {}, {}
        for pair, rv, dv in increments:
            rank[pair] = Fraction(rv, scale)
            degree[pair] = Fraction(dv, scale)
        return RankDegreeData(lattice, rank, degree)


def _scaled_increments(lattice, data):
    """The potentials of ``data`` as ints, validated along the strict pairs.

    Returns ``(L, increments)``: L is the least common denominator of every
    rank and degree potential, and ``increments`` yields ``(pair, rv, dv)``
    for each strict pair (x, y) in ``strict_pairs()`` order, where
    rv = L (R(y) - R(x)) and dv = L (D(y) - D(x)) are ints.  It raises
    :class:`NegativeRank` or :class:`ZeroRankNonpositiveDegree` at the first
    pair whose rank is negative, or zero with a nonpositive degree.
    """
    names = lattice.names
    r = [Fraction(data.rank_potential[name]) for name in names]
    d = [Fraction(data.degree_potential[name]) for name in names]
    scale = lcm(*(f.denominator for f in r), *(f.denominator for f in d))
    ri = [f.numerator * (scale // f.denominator) for f in r]
    di = [f.numerator * (scale // f.denominator) for f in d]

    def increments():
        for pair in lattice.strict_pairs():
            x, y = pair
            rv = ri[y] - ri[x]
            if rv < 0:
                raise NegativeRank(
                    f"rank potential decreases along {names[x]} < {names[y]}"
                )
            dv = di[y] - di[x]
            if rv == 0 and dv <= 0:
                raise ZeroRankNonpositiveDegree(names[x], names[y])
            yield pair, rv, dv

    return scale, increments()


def quotient_payoff(lattice, data):
    """The game with payoff degree/rank, +inf where rank vanishes.

    ``data`` is a :class:`RankDegreeData` (already validated) or a
    :class:`PotentialData` (validated on expansion).  For potentials the
    common denominator cancels, so each payoff is ``Fraction(dv, rv)`` of the
    scaled int increments of :func:`_scaled_increments`, with no Fraction
    arithmetic per pair.  Values are extended rationals; -inf never occurs.
    """
    if isinstance(data, PotentialData):
        _, increments = _scaled_increments(lattice, data)
        payoff = {
            pair: Fraction(dv, rv) if rv else POS_INF
            for pair, rv, dv in increments
        }
    else:
        degree = data.degree
        payoff = {
            pair: degree[pair] / r if r > 0 else POS_INF
            for pair, r in data.rank.items()
        }
    return Game(lattice, ExtendedRationals(), payoff)
