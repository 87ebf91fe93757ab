"""Payoff value lattices.

A game's payoff lands in a complete lattice S.  Three effective kinds cover
everything this library needs: the extended rationals, an explicit finite
lattice (total or not), and the Lex'-ordered finite subsets of a prime base.
All sups and infs taken by the library are over finite sets, so completeness
is only ever used through ``sup``/``inf`` on finite iterables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .order import FinsetOrder

POS_INF = float("inf")
NEG_INF = float("-inf")

LT, EQ, GT, INCOMPARABLE = "lt", "eq", "gt", "incomparable"


def as_rational(v):
    """Coerce an int/Fraction/±inf into the canonical extended-rational form."""
    if v == POS_INF:
        return POS_INF
    if v == NEG_INF:
        return NEG_INF
    return Fraction(v)


class ValueLattice:
    """Common interface: order queries plus finite sup/inf with top/bot."""

    kind = None
    is_total = False
    top = None
    bot = None

    def leq(self, a, b):
        raise NotImplementedError

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def gt(self, a, b):
        return a != b and self.leq(b, a)

    def compare(self, a, b):
        """Four-way comparison; non-total lattices can return 'incomparable'."""
        if a == b:
            return EQ
        if self.leq(a, b):
            return LT
        if self.leq(b, a):
            return GT
        return INCOMPARABLE

    def sup(self, values):
        raise NotImplementedError

    def inf(self, values):
        raise NotImplementedError

    def contains(self, v):
        raise NotImplementedError

    def dual(self):
        return _DualValues(self)


class ExtendedRationals(ValueLattice):
    """The chain Q ∪ {-inf, +inf} with exact rational comparisons.

    Finite values are ``fractions.Fraction``; the two infinities are the float
    sentinels, which compare exactly against Fraction.
    """

    kind = "extended_rational"
    is_total = True
    top = POS_INF
    bot = NEG_INF

    def leq(self, a, b):
        return a <= b

    def sup(self, values):
        return max(values, default=NEG_INF)

    def inf(self, values):
        return min(values, default=POS_INF)

    def contains(self, v):
        return isinstance(v, Fraction) or v == POS_INF or v == NEG_INF

    def __eq__(self, other):
        return isinstance(other, ExtendedRationals)

    def __hash__(self):
        return hash("extended_rational")

    def __repr__(self):
        return "ExtendedRationals()"


class FiniteChain(ValueLattice):
    """An explicit finite chain of values, listed from bot to top."""

    kind = "explicit_lattice"
    is_total = True

    def __init__(self, elements):
        elements = tuple(elements)
        if not elements:
            raise ValueError("a chain needs at least one element")
        self.elements = elements
        self.bot = elements[0]
        self.top = elements[-1]
        self._rank = {v: k for k, v in enumerate(elements)}
        if len(self._rank) != len(elements):
            raise ValueError("chain elements must be distinct")

    def leq(self, a, b):
        return self._rank[a] <= self._rank[b]

    def sup(self, values):
        return max(values, key=self._rank.__getitem__, default=self.bot)

    def inf(self, values):
        return min(values, key=self._rank.__getitem__, default=self.top)

    def contains(self, v):
        return v in self._rank

    def __eq__(self, other):
        return isinstance(other, FiniteChain) and self.elements == other.elements

    def __hash__(self):
        return hash(("chain", self.elements))

    def __repr__(self):
        return f"FiniteChain({list(self.elements)!r})"


class FiniteLatticeValues(ValueLattice):
    """Values forming an explicit finite lattice, not necessarily total.

    Elements are the labels of a :class:`~hngame.order.BoundedLattice`; sups
    and infs fold the join/meet tables.
    """

    kind = "explicit_lattice"

    def __init__(self, lattice):
        self.lattice = lattice
        self.elements = lattice.names
        self.bot = lattice.names[lattice.bot]
        self.top = lattice.names[lattice.top]
        self._index = {name: i for i, name in enumerate(lattice.names)}
        self.is_total = lattice.poset.is_total()

    def leq(self, a, b):
        return self.lattice.le(self._index[a], self._index[b])

    def sup(self, values):
        idx = reduce(
            lambda acc, v: self.lattice.join[acc][self._index[v]],
            values,
            self.lattice.bot,
        )
        return self.lattice.names[idx]

    def inf(self, values):
        idx = reduce(
            lambda acc, v: self.lattice.meet[acc][self._index[v]],
            values,
            self.lattice.top,
        )
        return self.lattice.names[idx]

    def contains(self, v):
        return v in self._index

    def __eq__(self, other):
        return (
            isinstance(other, FiniteLatticeValues) and self.lattice == other.lattice
        )

    def __hash__(self):
        return hash(("lattice_values", self.lattice))

    def __repr__(self):
        return f"FiniteLatticeValues({self.lattice!r})"


class PrimeFinsets(ValueLattice):
    """Finite subsets of a fixed prime base under the Lex' total order.

    The base is finite here, so the order is already a complete lattice: the
    empty set is bot and the full base is top.
    """

    kind = "prime_finsets"
    is_total = True

    def __init__(self, primes):
        self.order = FinsetOrder(sorted(primes))
        self.bot = self.order.least
        self.top = self.order.greatest
        self._key = self.order.key

    @property
    def primes(self):
        return self.order.base

    def leq(self, a, b):
        return self._key(a) <= self._key(b)

    def sup(self, values):
        return max(values, key=self._key, default=self.bot)

    def inf(self, values):
        return min(values, key=self._key, default=self.top)

    def contains(self, v):
        return isinstance(v, frozenset) and v <= set(self.order.base)

    def __eq__(self, other):
        return isinstance(other, PrimeFinsets) and self.order == other.order

    def __hash__(self):
        return hash(("prime_finsets", self.order.base))

    def __repr__(self):
        return f"PrimeFinsets({list(self.order.base)!r})"


class _DualValues(ValueLattice):
    """Order-dual view of a value lattice; dual of the dual is the original."""

    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.is_total = inner.is_total
        self.top = inner.bot
        self.bot = inner.top

    def leq(self, a, b):
        return self.inner.leq(b, a)

    def sup(self, values):
        return self.inner.inf(values)

    def inf(self, values):
        return self.inner.sup(values)

    def contains(self, v):
        return self.inner.contains(v)

    def dual(self):
        return self.inner

    def __eq__(self, other):
        return isinstance(other, _DualValues) and self.inner == other.inner

    def __hash__(self):
        return hash(("dual", self.inner))

    def __repr__(self):
        return f"{self.inner!r}.dual()"
