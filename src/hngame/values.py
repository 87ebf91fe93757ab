"""Payoff value lattices and their integer codes.

A game's payoff lands in a complete lattice S.  Three effective kinds cover
everything this library needs: the extended rationals, an explicit finite
lattice (total or not), and the Lex'-ordered finite subsets of a prime base.
All sups and infs taken by the library are over finite sets, so completeness
is only ever used through ``sup``/``inf`` on finite iterables.

Only the order of S matters to the game engine, so each value lattice also
encodes values as ints: :meth:`ValueLattice.encode` validates a sequence of
values and returns their codes together with a map from code back to value,
and ``code_order`` compares and folds codes.  Per kind:

- ``ExtendedRationals``: the rank among the distinct values encoded together,
  so -inf and +inf get the least and the greatest code;
- ``FiniteChain``: the rank in the chain;
- ``PrimeFinsets``: the bitmask of base positions, whose integer order is the
  Lex' order (:meth:`PrimeFinsets.key`);
- ``FiniteLatticeValues``: the element index, ordered by the lattice itself
  (an up-set bit test, and sup and inf through the join and meet tables);
- the dual of a total kind negates the codes, and the dual of lattice values
  keeps the indices under the dual lattice.

For the integer codes ``code_order`` is :data:`INT_ORDER`, whose operations
are builtins.  Equal values get equal codes, so ``==`` on codes is ``==`` on
values.  The value-level methods (``leq``, ``sup``, ...) stay the public
interface; :mod:`hngame.game` decodes codes back to values only where it
hands results out.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from itertools import groupby
from types import SimpleNamespace

from .errors import UnknownLabel
from .order import _iter_bits

POS_INF = float("inf")
NEG_INF = float("-inf")

LT, EQ, GT, INCOMPARABLE = "lt", "eq", "gt", "incomparable"


# The order on integer codes.  A code order has ``le`` and ``lt``, which
# compare two codes, and ``sup`` and ``inf``, which fold a nonempty iterable
# of codes; a BoundedLattice has the same four methods on element indices.
INT_ORDER = SimpleNamespace(le=operator.le, lt=operator.lt, sup=max, inf=min)


def _not_a_value(v):
    return ValueError(f"payoff value {v!r} not in value lattice")


def _nearest_float(v):
    """The float nearest an extended rational (±inf beyond the float range);
    raises ValueError for anything else."""
    if isinstance(v, Fraction):
        try:
            return v.numerator / v.denominator
        except OverflowError:
            return POS_INF if v > 0 else NEG_INF
    if v == POS_INF or v == NEG_INF:
        return float(v)
    raise _not_a_value(v)


def as_rational(v):
    """Coerce an int/Fraction/±inf into the canonical extended-rational form."""
    if v == POS_INF:
        return POS_INF
    if v == NEG_INF:
        return NEG_INF
    return Fraction(v)


class ValueLattice:
    """Common interface: order queries plus finite sup/inf with top/bot, and
    the integer codes of values with their order."""

    kind = None
    is_total = False
    top = None
    bot = None
    code_order = INT_ORDER

    def encode(self, values):
        """Validate and encode a sequence of values.

        Returns ``(codes, decode)``: ``codes[k]`` is the code of
        ``values[k]``, and ``decode[c]`` is a value with code ``c``.  Raises
        ``ValueError`` for a value outside the lattice.
        """
        raise NotImplementedError

    def dual_codes(self, codes, decode):
        """The same values encoded for the dual lattice: negated codes."""
        return [-c for c in codes], {-c: v for c, v in decode.items()}

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

    def encode(self, values):
        """Ranks among the distinct values.

        One sort by the nearest floats orders the values up to runs of equal
        floats; only such a run is compared exactly, by a second sort and by
        ``!=`` between neighbours, which also gives equal values one rank.
        """
        near = [_nearest_float(v) for v in values]
        codes = [0] * len(values)
        decode = {}
        rank = -1
        order = sorted(range(len(values)), key=near.__getitem__)
        for _, run in groupby(order, key=near.__getitem__):
            last = None
            for k in sorted(run, key=values.__getitem__):
                if last is None or values[k] != last:
                    rank += 1
                    decode[rank] = last = values[k]
                codes[k] = rank
        return codes, decode

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
        self._decode = dict(enumerate(elements))

    def leq(self, a, b):
        return self._rank[a] <= self._rank[b]

    def sup(self, values):
        return max(values, key=self._rank.__getitem__, default=self.bot)

    def inf(self, values):
        return min(values, key=self._rank.__getitem__, default=self.top)

    def contains(self, v):
        return v in self._rank

    def encode(self, values):
        rank = self._rank
        try:
            return [rank[v] for v in values], self._decode
        except KeyError as exc:
            raise _not_a_value(exc.args[0]) from None

    def __eq__(self, other):
        return isinstance(other, FiniteChain) and self.elements == other.elements

    def __hash__(self):
        return hash(("chain", self.elements))

    def __repr__(self):
        return f"FiniteChain({list(self.elements)!r})"


class FiniteLatticeValues(ValueLattice):
    """Values forming an explicit finite lattice, not necessarily total.

    Elements are the labels of a :class:`~hngame.order.BoundedLattice`; sups
    and infs fold the join/meet tables.  A value's code is its element index,
    ordered by the lattice, even when the lattice is a chain.
    """

    kind = "explicit_lattice"

    def __init__(self, lattice):
        self.lattice = lattice
        self.elements = lattice.names
        self.bot = lattice.names[lattice.bot]
        self.top = lattice.names[lattice.top]
        self._index = {name: i for i, name in enumerate(lattice.names)}
        self.is_total = lattice.is_total()
        self.code_order = lattice

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

    def encode(self, values):
        index = self._index
        try:
            return [index[v] for v in values], self.elements
        except KeyError as exc:
            raise _not_a_value(exc.args[0]) from None

    def dual_codes(self, codes, decode):
        """The same indices: the dual lattice reverses their order."""
        return codes, decode

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

    Lex' is the max-first lexicographic order: subsets are compared by their
    descending sequence of primes, a proper prefix is smaller and the empty
    set is least.  This order extends inclusion, and on singletons it agrees
    with the numeric order.  It is the integer order of the bitmask of base
    positions (:meth:`key`): the highest position where two subsets differ
    decides, and a proper prefix lacks a lower bit.  The base is finite here,
    so the order is already a complete lattice: the empty set is bot and the
    full base is top.
    """

    kind = "prime_finsets"
    is_total = True

    def __init__(self, primes):
        self.primes = tuple(sorted(primes))
        self._pos = {p: k for k, p in enumerate(self.primes)}
        if len(self._pos) != len(self.primes):
            raise ValueError("base labels must be distinct")
        self.bot = frozenset()
        self.top = frozenset(self.primes)

    def key(self, subset):
        """Sort key realizing the order: the bitmask of base positions."""
        try:
            return sum(1 << self._pos[x] for x in subset)
        except KeyError as exc:
            raise UnknownLabel(f"{exc.args[0]!r} is not in the base chain") from None

    def all_subsets(self):
        """Every subset of the base, in increasing order."""
        return [
            frozenset(self.primes[k] for k in _iter_bits(mask))
            for mask in range(1 << len(self.primes))
        ]

    def leq(self, a, b):
        return self.key(a) <= self.key(b)

    def sup(self, values):
        return max(values, key=self.key, default=self.bot)

    def inf(self, values):
        return min(values, key=self.key, default=self.top)

    def contains(self, v):
        return isinstance(v, frozenset) and v <= self.top

    def encode(self, values):
        """Lex' bitmasks, computed once per distinct prime set."""
        key = self.key
        seen = {}
        codes = []
        for v in values:
            if not isinstance(v, frozenset):
                raise _not_a_value(v)
            code = seen.get(v)
            if code is None:
                try:
                    code = seen[v] = key(v)
                except UnknownLabel:
                    raise _not_a_value(v) from None
            codes.append(code)
        return codes, {code: v for v, code in seen.items()}

    def __eq__(self, other):
        return isinstance(other, PrimeFinsets) and self.primes == other.primes

    def __hash__(self):
        return hash(("prime_finsets", self.primes))

    def __repr__(self):
        return f"PrimeFinsets({list(self.primes)!r})"


class _DualValues(ValueLattice):
    """Order-dual view of a value lattice; dual of the dual is the original."""

    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.is_total = inner.is_total
        self.top = inner.bot
        self.bot = inner.top
        # Total kinds negate their codes, so the integer order still applies.
        order = inner.code_order
        self.code_order = order if order is INT_ORDER else order.dual()

    def leq(self, a, b):
        return self.inner.leq(b, a)

    def sup(self, values):
        return self.inner.inf(values)

    def inf(self, values):
        return self.inner.sup(values)

    def contains(self, v):
        return self.inner.contains(v)

    def encode(self, values):
        return self.inner.dual_codes(*self.inner.encode(values))

    def dual(self):
        return self.inner

    def __eq__(self, other):
        return isinstance(other, _DualValues) and self.inner == other.inner

    def __hash__(self):
        return hash(("dual", self.inner))

    def __repr__(self):
        return f"{self.inner!r}.dual()"
