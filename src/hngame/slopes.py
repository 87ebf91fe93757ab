"""Slope-like payoffs from rank/degree data.

A payoff of the form degree/rank (with +inf at rank zero) is slope-like
whenever both tables are additive along chain triples and zero-rank pairs
have strictly positive degree.  Rationals keep every check exact; data can be
given as raw pair tables (fully validated) or as per-element potentials,
whose differences are additive by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AdditivityViolation, NegativeRank, ZeroRankNonpositiveDegree
from .game import Game
from .order import _iter_bits
from .values import POS_INF, ExtendedRationals, as_rational


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
    automatically; R must be order-preserving so ranks are nonnegative.
    """

    rank_potential: dict
    degree_potential: dict

    def tables(self, lattice):
        names = lattice.names
        r = {name: Fraction(self.rank_potential[name]) for name in names}
        d = {name: Fraction(self.degree_potential[name]) for name in names}
        rank, degree = {}, {}
        for x, y in lattice.strict_pairs():
            rv = r[names[y]] - r[names[x]]
            if rv < 0:
                raise NegativeRank(
                    f"rank potential decreases along {names[x]} < {names[y]}"
                )
            dv = d[names[y]] - d[names[x]]
            if rv == 0 and dv <= 0:
                raise ZeroRankNonpositiveDegree(names[x], names[y])
            rank[(x, y)] = rv
            degree[(x, y)] = dv
        return RankDegreeData(lattice, rank, degree)


def quotient_payoff(lattice, data):
    """The game with payoff degree/rank, +inf where rank vanishes.

    ``data`` is a :class:`RankDegreeData` (already validated) or a
    :class:`PotentialData` (validated on expansion).  Values are extended
    rationals; -inf never occurs.
    """
    if isinstance(data, PotentialData):
        data = data.tables(lattice)
    payoff = {}
    for pair, r in data.rank.items():
        d = data.degree[pair]
        payoff[pair] = as_rational(d / r) if r > 0 else POS_INF
    return Game(lattice, ExtendedRationals(), payoff)
