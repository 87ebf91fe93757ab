"""Slope-like payoffs from rank/degree data.

A payoff of the form degree/rank (with +inf at rank zero) is slope-like
whenever both tables are additive along chain triples and zero-rank pairs
have strictly positive degree: the slope of [x, z] is then the mediant of
those of [x, y] and [y, z].  :func:`quotient_payoff` checks those hypotheses
and builds its game with the verdict.  On a bounded lattice, additive tables
are exactly differences of potentials, R(y) = rank(bot, y) and D(y) =
degree(bot, y), so data is given as per-element potentials or as pair tables
that reduce to theirs.  Potentials are scaled to ints over their least
common denominator, so each slope is an int quotient dv/rv, and the
quotients are ranked once by the extended-rational encoding of
:mod:`hngame.values` into the game's value codes.  A slope becomes a
``Fraction`` only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import itemgetter, not_, sub

from .errors import AdditivityViolation, NegativeRank, ZeroRankNonpositiveDegree
from .game import _SLOPE_LIKE, Game, _derived
from .values import ExtendedRationals, _ranked_slopes


@dataclass(frozen=True)
class RankDegreeData:
    """Rank/degree tables on the strict pairs of a lattice, validated on
    construction: an entry (x, y) other than R(y) - R(x) for the potentials
    raises :class:`AdditivityViolation` on the chain bot < x < y."""

    lattice: object
    rank: dict
    degree: dict

    @classmethod
    def from_tables(cls, lattice, rank, degree):
        """The tables on the strict pairs as Fractions, validated."""
        pairs = lattice.strict_pairs()
        rank = {p: Fraction(rank[p]) for p in pairs}
        degree = {p: Fraction(degree[p]) for p in pairs}
        return cls(lattice, rank, degree)

    def __post_init__(self):
        _scaled_increments(self.lattice, self._potentials(), self)

    @classmethod
    def _trusted(cls, lattice, rank, degree):
        """Tables made from validated potentials, taken over unchecked."""
        self = object.__new__(cls)
        self.__dict__.update(lattice=lattice, rank=rank, degree=degree)
        return self

    def _potentials(self):
        bot, names = self.lattice.bot, self.lattice.names
        return PotentialData(*(
            {name: t[(bot, y)] if y != bot else 0 for y, name in enumerate(names)}
            for t in (self.rank, self.degree)
        ))


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
        return RankDegreeData._trusted(lattice, rank, degree)


def _scaled_increments(lattice, data, tables=None):
    """The potentials of ``data`` as ints, validated along the strict pairs.

    Returns ``(L, rvs, dvs)``: L is the least common denominator of every
    rank and degree potential, and for the k-th strict pair (x, y) of
    ``strict_pairs()``, ``rvs[k]`` = L (R(y) - R(x)) and ``dvs[k]`` =
    L (D(y) - D(x)) are ints.  Given the ``tables`` (a
    :class:`RankDegreeData`) those potentials come from, every entry is
    first compared with its increment by cross-multiplying, the degree table
    first, and a mismatch raises :class:`AdditivityViolation` on the chain
    bot < x < y.  Then it raises :class:`NegativeRank` or
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
    if tables is not None:
        bot = names[lattice.bot]
        for table, vs in (("degree", dvs), ("rank", rvs)):
            entries = getattr(tables, table)
            for (x, y), v in zip(pairs, vs):
                num, den = entries[(x, y)].as_integer_ratio()
                if num * scale != v * den:
                    raise AdditivityViolation(table, bot, names[x], names[y])
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

    ``data`` is a :class:`PotentialData`, or a :class:`RankDegreeData`
    (already validated, by construction) read through its potentials.  The
    int slopes dv/rv of :func:`_scaled_increments` are ranked once
    (:func:`~hngame.values._ranked_slopes`) into the game's codes, so no
    slope is a value until it is read.  Values are extended rationals; -inf
    never occurs.  The game holds its slope-like verdict.
    """
    if isinstance(data, RankDegreeData):
        data = data._potentials()
    _, rvs, dvs = _scaled_increments(lattice, data)
    g = Game._encoded(lattice, ExtendedRationals(), _ranked_slopes(rvs, dvs))
    _derived(g)[_SLOPE_LIKE] = True
    return g
