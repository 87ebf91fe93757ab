"""Payoff value lattices and their integer codes.

A game's payoff lands in a complete lattice S.  Three effective kinds cover
everything this library needs: the extended rationals, an explicit finite
lattice (total or not), and the Lex'-ordered finite subsets of a prime base.
Each kind knows its values (``contains``), its bounds ``top`` and ``bot``,
and its order dual (``dual``).

Only the order of S matters to the game engine, and it sees that order only
through codes: :meth:`ValueLattice.encode` validates a sequence of values
and returns their codes together with a map from code back to value, and
``code_order`` compares and folds codes.  Per kind:

- ``ExtendedRationals``: the rank among the distinct values encoded together,
  so -inf and +inf get the least and the greatest code.  Each value is an
  int quotient dv/rv, ±inf being (±1, 0), and :func:`_ranked_slopes` ranks
  such quotients; it is the only ranking of extended rationals, and slope
  games call it on their int quotients directly;
- ``PrimeFinsets``: the bitmask of base positions, whose integer order is the
  Lex' order (:meth:`PrimeFinsets.key`);
- ``FiniteLatticeValues``: on a chain, the rank in the chain; otherwise the
  element index, ordered by the lattice itself (an up-set bit test, and sup
  and inf through the join and meet tables).  ``FiniteChain`` builds lattice
  values on the chain of the values it is given;
- the dual of a kind with integer codes negates the codes, and the dual of
  lattice values keeps the indices under the dual lattice.

``dual_codes`` turns codes of a kind into codes of its dual without looking
at the values, so a dual game takes the codes of its game: a kind with
integer codes negates them and reads code c of the dual as code -c of the
kind, so not even the decode map is copied.  As the dual of the dual is the
kind itself, ``dual_codes`` of a dual kind is that of the kind.  For the
integer codes ``code_order`` is :data:`INT_ORDER`, whose operations are
builtins, and a kind is total exactly when its codes are integers
(:attr:`ValueLattice.is_total`).
Equal values get equal codes, so ``==`` on codes is ``==`` on values.
There is no value-level order: values are compared by comparing their codes.

A decode map is anything indexed by code: a dict, a tuple, a view such as
:class:`_NegatedCodes`, or the extended rationals of :class:`_Slopes`, which
build each value on first lookup.  :mod:`hngame.game` decodes a code
only when it hands the value out (a point read, a payoff entry, a
:class:`~hngame.game.MuTables` field on first access), so a caller that
reads a few pairs decodes a few codes.
"""
from __future__ import annotations

import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import cmp_to_key
from itertools import compress
from types import SimpleNamespace

from .errors import UnknownLabel
from .order import BoundedLattice, build_poset

POS_INF = float("inf")
NEG_INF = float("-inf")


# The order on integer codes.  A code order has ``le`` and ``lt``, which
# compare two codes, and ``sup`` and ``inf``, which fold a nonempty iterable
# of codes; a BoundedLattice has the same four methods on element indices.
INT_ORDER = SimpleNamespace(le=operator.le, lt=operator.lt, sup=max, inf=min)


def _not_a_value(v):
    return ValueError(f"payoff value {v!r} not in value lattice")


class _NegatedCodes(Mapping):
    """The decode map of negated codes: code c reads ``decode[-c]``."""

    __slots__ = ("decode",)

    def __init__(self, decode):
        self.decode = decode

    def __getitem__(self, c):
        return self.decode[-c]

    def __iter__(self):
        return map(operator.neg, self.decode)

    def __len__(self):
        return len(self.decode)


class ValueLattice:
    """Common interface: membership, the bounds ``top`` and ``bot``, the
    dual, and the codes of values with ``code_order``, the only order on
    them: :data:`INT_ORDER` for a total kind, a lattice for any other."""

    kind = None
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

    @property
    def is_total(self):
        """Whether the values form a chain, which is when their codes are
        compared as integers."""
        return self.code_order is INT_ORDER

    def dual_codes(self, codes, decode):
        """The same values encoded for the dual lattice: integer codes are
        negated, and codes under a lattice order are kept, as the dual
        lattice reverses that order."""
        if self.code_order is not INT_ORDER:
            return codes, decode
        return list(map(operator.neg, codes)), _NegatedCodes(decode)

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
    top = POS_INF
    bot = NEG_INF

    def contains(self, v):
        return isinstance(v, Fraction) or v == POS_INF or v == NEG_INF

    def encode(self, values):
        """Ranks among the distinct values: each value is the quotient of
        its numerator and denominator, and ±inf is (±1, 0)
        (:func:`_ranked_slopes`)."""
        dvs, rvs = [], []
        for v in values:
            if isinstance(v, Fraction):
                dvs.append(v.numerator)
                rvs.append(v.denominator)
            elif v == POS_INF or v == NEG_INF:
                dvs.append(1 if v > 0 else -1)
                rvs.append(0)
            else:
                raise _not_a_value(v)
        return _ranked_slopes(rvs, dvs)

    def __eq__(self, other):
        return isinstance(other, ExtendedRationals)

    def __hash__(self):
        return hash("extended_rational")

    def __repr__(self):
        return "ExtendedRationals()"


def _nearest_float(dv, rv):
    """The float nearest dv / rv for ints with rv >= 0, and ±inf by the sign
    of dv at rv = 0 and beyond the float range."""
    try:
        return dv / rv
    except (OverflowError, ZeroDivisionError):
        return POS_INF if dv > 0 else NEG_INF


def _ranked_slopes(rvs, dvs):
    """The extended rationals dv/rv of int pairs with rv >= 0, encoded.

    ``(dv, 0)`` stands for +inf where dv > 0 and for -inf where dv < 0.
    Returns ``(codes, decode)``: ``codes[k]`` is the rank of
    ``dvs[k] / rvs[k]`` among the distinct quotients, and ``decode`` maps
    each rank back to its value (:class:`_Slopes`), built on first lookup.
    One sort by the nearest floats orders the quotients up to runs of equal
    floats; only such a run is compared exactly, by cross-multiplying, which
    also ranks ±inf beyond every finite quotient, even one beyond the float
    range.
    """
    n = len(rvs)
    try:
        near = list(map(operator.truediv, dvs, rvs))
    except (OverflowError, ZeroDivisionError):
        near = list(map(_nearest_float, dvs, rvs))
    order = sorted(range(n), key=near.__getitem__)

    def exact(i, j):
        return dvs[i] * rvs[j] - dvs[j] * rvs[i]

    # Position p ties when order[p - 1] and order[p] have the same float.
    sorted_near = list(map(near.__getitem__, order))
    ties = list(compress(range(1, n), map(operator.eq, sorted_near, sorted_near[1:])))
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
    """Extended rationals by rank: rank c is dvs[c] / rvs[c], ±inf where
    rvs[c] is 0.

    Each value is built on its first lookup and kept, so every lookup of a
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
            dv, rv = self.dvs[c], self.rvs[c]
            v = self.built[c] = Fraction(dv, rv) if rv else _nearest_float(dv, rv)
        return v

    def __iter__(self):
        return iter(range(len(self.rvs)))

    def __len__(self):
        return len(self.rvs)


class FiniteLatticeValues(ValueLattice):
    """Values forming an explicit finite lattice, total or not.

    Elements are the labels of a :class:`~hngame.order.BoundedLattice`.  On
    a chain a value's code is its rank, ``down[i].bit_count() - 1``, under
    :data:`INT_ORDER`, whatever order the labels are listed in; otherwise it
    is its element index, ordered, joined and met by the lattice itself.
    """

    kind = "explicit_lattice"

    def __init__(self, lattice):
        self.lattice = lattice
        self.elements = names = lattice.names
        self.bot = names[lattice.bot]
        self.top = names[lattice.top]
        if lattice.is_total():
            codes = [d.bit_count() - 1 for d in lattice.down]
            self._decode = dict(zip(codes, names))
        else:
            codes = range(lattice.n)
            self._decode = names
            self.code_order = lattice
        self._code = dict(zip(names, codes))

    def contains(self, v):
        return v in self._code

    def encode(self, values):
        code = self._code
        try:
            return [code[v] for v in values], self._decode
        except KeyError as exc:
            raise _not_a_value(exc.args[0]) from None

    def __eq__(self, other):
        return (
            isinstance(other, FiniteLatticeValues) and self.lattice == other.lattice
        )

    def __hash__(self):
        return hash(("lattice_values", self.lattice))

    def __repr__(self):
        return f"FiniteLatticeValues({self.lattice!r})"


class FiniteChain(FiniteLatticeValues):
    """Lattice values on the chain of ``elements``, listed from bot to top."""

    def __init__(self, elements):
        elements = tuple(elements)
        if not elements:
            raise ValueError("a chain needs at least one element")
        chain = build_poset(elements, zip(elements, elements[1:]))
        super().__init__(BoundedLattice(chain, 0, len(elements) - 1))


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
        self.top = inner.bot
        self.bot = inner.top
        # Total kinds negate their codes, so the integer order still applies.
        order = inner.code_order
        self.code_order = order if order is INT_ORDER else order.dual()

    def contains(self, v):
        return self.inner.contains(v)

    def encode(self, values):
        return self.inner.dual_codes(*self.inner.encode(values))

    def dual_codes(self, codes, decode):
        """The inner kind's codes back: its ``dual_codes`` is an involution."""
        return self.inner.dual_codes(codes, decode)

    def dual(self):
        return self.inner

    def __eq__(self, other):
        return isinstance(other, _DualValues) and self.inner == other.inner

    def __hash__(self):
        return hash(("dual", self.inner))

    def __repr__(self):
        return f"{self.inner!r}.dual()"
