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
verifies exhaustively that this matches honest restriction.

The table engine is one kernel, :func:`_peel`, that fills a series line by
line: a row x holds the pairs (x, y), a column y the pairs (x, y).  mu_max
is a sup along rows, reaching from (x, w) every (x, y) with w <= y; mu_min
an inf along columns, reaching from (w, y) every (x, y) with x <= w; mu_a
peels mu_max the way mu_min peels the payoff, and mu_b peels mu_min the way
mu_max does.  For a total value kind the kernel visits a line's pairs best
first and writes each source value to the pairs it reaches that are not
written yet, so every pair is written once; for a non-total one it folds
all the values that reach a pair.  Each series is computed on first use, so
a caller that reads only mu_a builds mu_max and mu_a and nothing else.  No
cover index is kept.  A dual runs no peel: series i of the dual is series
``i ^ 1`` of its game (mu_max and mu_min swap, as do mu_a and mu_b), which
the dual builds on its game if need be and reads off with the pair order
and codes of the dual, so a dual keeps its game alive.  A payoff with one
value runs no peel either: each of its series is its codes.

The engine does not compare values.  A game's payoff is encoded once as
order-preserving ints (:meth:`~hngame.values.ValueLattice.encode`), kept as
one flat sequence indexed by pair id, the position of a pair in
``strict_pairs()``: a list, or for a sweep game the tuple that
``itertools.product`` made.  A game holds its payoff only as codes: the
public constructor encodes while it validates, a dual takes the codes of
its game, a restriction slices them, and slope and coprimary games are
built from codes (:func:`hngame.slopes.quotient_payoff`,
``coprimary_game``).  Sweep games come in bulk
(:func:`hngame.sweeps.iter_sweep_games`, through
:meth:`Game._encoded_each`), each holding its product tuple as it is, with
no copy, count or call of its own.  Construction writes only the lattice,
the value lattice and the codes; everything derived from them (series,
tables, verdicts) lives in one slot that stays None until the first
analysis reads it, or a constructor writes a verdict that a theorem gives
it there (:func:`_derived`).  The kernel and the convexity, slope-like,
seesaw and interval (semi)stability predicates read only codes, compared
and folded by ``values.code_order`` (builtins for total value kinds); the
searches of :mod:`hngame.filtration` and :mod:`hngame.jordan_holder` read
them through :func:`_payoff_code` and :func:`_series_code`.

The slope-like check, :func:`is_slope_like`, runs once per strict pair
(x, z), not once per chain triple, by ``bisect`` on lines of codes sorted
once.  The convexity check, :func:`_convexity`, gives both verdicts,
convex and affine, from one pass over a dense code matrix, and reads no
meet/join table on a lattice with no incomparable pair or a payoff with
one value.  Each verdict is cached on the game.  A quotient game is built
slope-like (:mod:`hngame.slopes`) and a coprimary game convex and affine
(``coprimary_game``), as theorems say they are, so no scan runs for them
and no coprimary filtration reads the meet/join tables that a subgroup
lattice builds on first read.

Values are built only where they are handed out.  Every game builds its
payoff dict on the first read of ``payoff``, and :meth:`Game.mu` decodes
the one code it reads.  :meth:`Game.tables` computes the four series, and
each :class:`MuTables` field decodes its dict on first access; the point
reads (:func:`mu_max`, ...) decode one code each.  ``payoff`` and every
value handed out are values, not codes.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    NotAChain,
    NotStrict,
    PreconditionFailed,
    TheoremViolation,
)
from .order import _iter_bits
from .values import INT_ORDER

INCREASING, DECREASING, FLAT, VIOLATION = (
    "increasing",
    "decreasing",
    "flat",
    "violation",
)


class Game:
    """A payoff function on the strict pairs of a bounded lattice.

    ``payoff`` maps each strict pair to its value, decoded on first read: a
    game holds only the ``(codes, decode)`` pair, the codes any sequence
    indexed by pair id (see the module docstring).  The public constructor
    encodes the values it validates; :meth:`_encoded` and
    :meth:`_encoded_each` take codes.  The derived state (:func:`_derived`)
    stays None until read.
    """

    __slots__ = (
        "lattice", "values", "_codes", "_payoff", "_dual_of", "_derived",
        "__weakref__",
    )

    def __init__(self, lattice, values, payoff):
        pairs = lattice.strict_pairs()
        if len(payoff) != len(pairs) or not all(map(payoff.__contains__, pairs)):
            raise ValueError(
                "payoff must be defined on exactly the strict pairs; "
                f"missing {sorted(set(pairs) - payoff.keys())}, "
                f"extra {sorted(payoff.keys() - set(pairs))}"
            )
        try:
            codes = values.encode(list(map(payoff.__getitem__, pairs)))
        except ValueError:
            pair, v = next(
                (p, v) for p, v in payoff.items() if not values.contains(v)
            )
            raise ValueError(
                f"payoff value {v!r} at {pair} not in value lattice"
            ) from None
        self.lattice, self.values, self._codes = lattice, values, codes
        self._payoff = self._dual_of = self._derived = None

    @classmethod
    def _encoded(cls, lattice, values, codes):
        """A game given by ``codes``, the ``(codes, decode)`` pair of
        ``values.encode`` over ``strict_pairs()``, with no payoff dict until
        it is read; only the number of codes is checked.  The codes are
        kept as given, not copied."""
        n = len(lattice.strict_pairs())
        if len(codes[0]) != n:
            raise ValueError(f"need {n} payoff codes, got {len(codes[0])}")
        g = cls.__new__(cls)
        g.lattice, g.values, g._codes = lattice, values, codes
        g._payoff = g._dual_of = g._derived = None
        return g

    @classmethod
    def _encoded_each(cls, lattice, values, code_seqs, decode):
        """One game per code sequence of ``code_seqs``, in order, each
        holding that sequence itself with the shared ``decode`` map.

        The caller vouches that every sequence has one code per strict
        pair, as the ``itertools.product`` over the codes of the value
        lattice does: nothing is counted or copied, and the fields are
        written here, with no call per game.
        """
        new = cls.__new__
        for codes in code_seqs:
            g = new(cls)
            g.lattice = lattice
            g.values = values
            g._codes = (codes, decode)
            g._payoff = g._dual_of = g._derived = None
            yield g

    @property
    def payoff(self):
        """The value of each strict pair, as a dict built on first read."""
        if self._payoff is None:
            codes, decode = self._codes
            self._payoff = dict(
                zip(self.lattice.strict_pairs(), map(decode.__getitem__, codes))
            )
        return self._payoff

    def mu(self, x, y):
        if not self.lattice.lt(x, y):
            raise NotStrict(
                f"payoff needs {self.lattice.names[x]} < {self.lattice.names[y]}"
            )
        codes, decode = self._codes
        return decode[codes[_pair_ids(self.lattice)[x][y]]]

    def tables(self):
        d = _derived(self)
        if d[_TABLES] is None:
            d[_TABLES] = MuTables._from_codes(
                self.lattice.strict_pairs(),
                [_series(self, i) for i in range(4)],
                self._codes[1],
            )
        return d[_TABLES]

    @property
    def _tables(self):
        """The tables if built, else None, without building anything: what
        ``bench/tracing.py`` reads to count table work once per game."""
        return self._derived and self._derived[_TABLES]

    def __eq__(self, other):
        return (
            isinstance(other, Game)
            and self.lattice == other.lattice
            and self.values == other.values
            and self.payoff == other.payoff
        )

    def __repr__(self):
        pairs = len(self.lattice.strict_pairs())
        return f"Game({self.lattice!r}, {self.values!r}, {pairs} pairs)"


# Indices into a game's derived state (:func:`_derived`) past its four
# series, which sit at 0 to 3.
_TABLES, _SLOPE_LIKE, _CONVEXITY, _ADMISSIBLE = 4, 5, 6, 7


def _derived(g):
    """The derived state of g, made on first use: one list of the four code
    series by pair id (:func:`_series`), their :class:`MuTables`, and the
    slope-like, ``(convex, affine)`` and mu-admissible verdicts, at 0 to 7
    (``_TABLES`` on), each None until built or recorded."""
    d = g._derived
    if d is None:
        d = g._derived = [None] * 8
    return d


def _cached(g, slot, scan):
    """Slot ``slot`` of the derived state of g, filled by ``scan(g)`` first."""
    d = _derived(g)
    if d[slot] is None:
        d[slot] = scan(g)
    return d[slot]


class MuTables:
    """All four series tabulated over every strict pair, one dict each.

    The fields are read-only, and ``==`` and ``repr`` are those of the
    four dicts.  :meth:`Game.tables` builds the tables from the game's code
    series and decode map, not from the game, and each field decodes its
    dict on first access.
    """

    __slots__ = ("_dicts", "_pairs", "_series", "_decode")
    _FIELDS = ("mu_max", "mu_min", "mu_a", "mu_b")

    def __init__(self, mu_max, mu_min, mu_a, mu_b):
        self._dicts = [mu_max, mu_min, mu_a, mu_b]

    @classmethod
    def _from_codes(cls, pairs, series, decode):
        t = cls.__new__(cls)
        t._dicts = [None] * 4
        t._pairs, t._series, t._decode = pairs, series, decode
        return t

    def _field(self, i):
        d = self._dicts[i]
        if d is None:
            d = self._dicts[i] = dict(
                zip(self._pairs, map(self._decode.__getitem__, self._series[i]))
            )
        return d

    mu_max = property(lambda self: self._field(0))
    mu_min = property(lambda self: self._field(1))
    mu_a = property(lambda self: self._field(2))
    mu_b = property(lambda self: self._field(3))

    def __eq__(self, other):
        if not isinstance(other, MuTables):
            return NotImplemented
        return all(self._field(i) == other._field(i) for i in range(4))

    __hash__ = None

    def __repr__(self):
        fields = (f"{name}={self._field(i)!r}" for i, name in enumerate(self._FIELDS))
        return f"MuTables({', '.join(fields)})"


def _pair_ids(lattice):
    """Pair ids by row, cached on the lattice: ``ids[x][y]`` is the index of
    the strict pair (x, y) in ``strict_pairs()``."""
    cached = lattice._cache.get("pair_ids")
    if cached is None:
        pairs = lattice.strict_pairs()
        cached = []
        start = 0
        for up in lattice.up:
            stop = start + up.bit_count() - 1
            cached.append(dict(zip(
                map(operator.itemgetter(1), pairs[start:stop]), range(start, stop)
            )))
            start = stop
        lattice._cache["pair_ids"] = cached
    return cached


def _lines(lattice, rows):
    """The nonempty rows (or columns) of the strict pairs, cached on the
    lattice, as ``(ends, ids)`` per line: ``ids`` maps the free end of each
    pair of the line (y for (x, y) in row x, x for (x, y) in column y), in
    ascending order, to the pair's id, and ``ends`` is the bitmask of those
    free ends."""
    key = "rows" if rows else "columns"
    cached = lattice._cache.get(key)
    if cached is None:
        if rows:
            by_line = _pair_ids(lattice)
        else:
            by_line = [{} for _ in lattice.elements()]
            for x, row in enumerate(_pair_ids(lattice)):
                for y, k in row.items():
                    by_line[y][x] = k
        reach = lattice.up if rows else lattice.down
        cached = [(reach[e] ^ (1 << e), ids) for e, ids in enumerate(by_line) if ids]
        lattice._cache[key] = cached
    return cached


def _series(g, i):
    """Series i of g as a code list by pair id, computed on first use; i
    indexes the fields of :class:`MuTables` (mu_max, mu_min, mu_a, mu_b).

    mu_max and mu_b are sups along rows, mu_min and mu_a infs along columns;
    mu_a peels mu_max and mu_b peels mu_min.

    A game made by :func:`dual` peels nothing: its series i is series
    ``i ^ 1`` of its game (mu_max and mu_min swap, as do mu_a and mu_b),
    built there on first use and kept, then read through :func:`_dual_read`
    like the payoff codes.

    A payoff with one value peels nothing either: every series of it is its
    codes, the same sequence.
    """
    d = _derived(g)
    s = d[i]
    if s is None:
        base = g._dual_of
        codes = g._codes[0]
        if base is not None:
            s = _dual_read(base, _series(base, i ^ 1))[0]
        elif _one_valued(codes):
            s = codes
        else:
            l = g.lattice
            src = codes if i < 2 else _series(g, i - 2)
            rows = i in (0, 3)
            reach = l.up if rows else l.down
            s = _peel(src, _lines(l, rows), reach, g.values.code_order, rows)
        d[i] = s
    return s


def _one_valued(codes):
    """Whether all the codes of a game, never empty, are equal.  They are
    counted only when the first and the last agree, so most payoffs pay
    nothing for the test."""
    fill = codes[0]
    return fill == codes[-1] and codes.count(fill) == len(codes)


def _peel(src, lines, reach, order, top_first):
    """One series as a code list indexed like ``src``.

    ``lines`` holds ``(ends, ids)`` per line as :func:`_lines` gives them,
    and ``reach[w]`` is the up-set (for rows) or down-set (for columns) of
    w.  A pair gets the sup (``top_first``) or the inf under ``order`` of
    ``src`` over the pairs of its line whose free end w has the pair's free
    end in ``reach[w]``.

    For the integer order a line's pairs are visited best code first, and
    each writes its code to the pairs it reaches that are still unwritten,
    so every pair is written once.  For other orders all codes reaching a
    pair are folded with the order's sup or inf.
    """
    out = [None] * len(src)
    get = src.__getitem__
    fold = order.sup if top_first else order.inf
    for rest, ids in lines:
        if len(ids) == 1:
            # A lone pair reaches only itself.
            for k in ids.values():
                out[k] = src[k]
            continue
        ranked = zip(map(get, ids.values()), ids)
        if order is INT_ORDER:
            for c, w in sorted(ranked, reverse=top_first):
                hit = reach[w] & rest
                if not hit:
                    continue
                rest ^= hit
                while hit:
                    low = hit & -hit
                    out[ids[low.bit_length() - 1]] = c
                    hit ^= low
                if not rest:
                    break
        else:
            reached = {}
            for c, w in ranked:
                reached[c] = reached.get(c, 0) | reach[w]
            for y, k in ids.items():
                out[k] = fold([c for c, m in reached.items() if m >> y & 1])
    return out


def _payoff_code(g):
    """The payoff code lookup of g: ``code(x, y)`` for a strict pair x < y.

    With :func:`_series_code`, the way other modules read codes, so that the
    code layout stays inside this module.
    """
    codes, pid = g._codes[0], _pair_ids(g.lattice)
    return lambda x, y: codes[pid[x][y]]


def _series_code(g, i):
    """The code lookup of series i of g (see :func:`_series`): ``code(x, y)``
    for a strict pair x < y."""
    s, pid = _series(g, i), _pair_ids(g.lattice)
    return lambda x, y: s[pid[x][y]]


def _value(g):
    """The map from a code of g back to its value: ``value(code)``."""
    return g._codes[1].__getitem__


def _require_strict(g, x, y):
    if not g.lattice.lt(x, y):
        raise NotStrict(
            f"need {g.lattice.names[x]} < {g.lattice.names[y]}"
        )


def _point(g, i, x, y):
    """The value of series i of g at the strict pair (x, y)."""
    _require_strict(g, x, y)
    return g._codes[1][_series(g, i)[_pair_ids(g.lattice)[x][y]]]


def mu_max(g, x, y):
    """Best payoff the first mover can force in one step inside [x, y]."""
    return _point(g, 0, x, y)


def mu_min(g, x, y):
    return _point(g, 1, x, y)


def mu_a(g, x, y):
    """Second-mover optimum against the best one-step response."""
    return _point(g, 2, x, y)


def mu_b(g, x, y):
    return _point(g, 3, x, y)


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
    lo, hi = ival.lo, ival.hi
    return MuSeries(
        mu_max=mu_max(g, lo, hi),
        mu_min=mu_min(g, lo, hi),
        mu_a=mu_a(g, lo, hi),
        mu_b=mu_b(g, lo, hi),
        mu_a_star=mu_a_star(g),
        mu_b_star=mu_b_star(g),
    )


def restrict(g, ival):
    """The game induced on an interval; payoff agrees with the ambient one.

    The ambient codes, sliced through the pair ids, are handed down with the
    same decode map, so the restriction decodes nothing.  The sub-game keeps
    that map, and with it every value of the ambient game, alive.
    """
    sub = ival.as_lattice()
    amb = ival.member_indices()
    pairs = sub.strict_pairs()
    codes, decode = g._codes
    pid = _pair_ids(g.lattice)
    sliced = [codes[pid[amb[i]][amb[j]]] for i, j in pairs]
    return Game._encoded(sub, g.values, (sliced, decode))


def dual(g):
    """The game on the order-dual lattice with order-dual values.

    The payoff of the dual pair (x, y) is the original payoff of (y, x); the
    star values swap roles, mu_b* of the dual being mu_a* of the original.
    The codes are handed down, permuted into the dual's pair order and
    re-encoded by ``dual_codes``, and the dual builds its payoff dict only
    when it is read.  The dual reads its four series off g the same way
    (see :func:`_series`), so it runs no peel of its own, and it keeps g
    alive.  A game built on ``l.dual()`` by the public constructor is not
    linked to g and peels its own series.
    """
    d = Game._encoded(g.lattice.dual(), g.values.dual(), _dual_read(g, g._codes[0]))
    d._dual_of = g
    return d


def _dual_read(g, codes):
    """Codes of g by pair id, as ``(codes, decode)`` of the dual of g:
    permuted into the dual's pair order and re-encoded by ``dual_codes``."""
    return g.values.dual_codes(
        list(map(codes.__getitem__, _dual_ids(g.lattice))), g._codes[1]
    )


def _dual_ids(lattice):
    """The pair ids of ``lattice`` in the pair order of its dual, cached on
    the lattice: the dual's pairs are the pairs of the lattice column by
    column."""
    cached = lattice._cache.get("dual_ids")
    if cached is None:
        cached = [k for _, ids in _lines(lattice, False) for k in ids.values()]
        lattice._cache["dual_ids"] = cached
    return cached


def is_convex(g):
    """Whether mu(x ^ y, x) <= mu(y, x v y) whenever x is not below y.

    Both convexity verdicts come from one pass, :func:`_convexity`, cached
    on the game: a later :func:`is_convex` or :func:`is_affine` of the same
    game reads the cache.
    """
    return _convexity(g)[0]


def is_affine(g):
    """Whether mu(x ^ y, x) == mu(y, x v y) whenever x is not below y.

    Computed and cached with :func:`is_convex`.
    """
    return _convexity(g)[1]


def _convexity(g):
    """``(convex, affine)`` for g, from one pass on first use, cached on the
    game.

    The pass builds a dense n x n code matrix for the call: the code of a
    strict pair x < y sits at both [x][y] and [y][x], and every other entry
    holds one code of g.  Row x holds mu(x ^ y, x) at column x ^ y, and row
    y holds mu(y, x v y) at column x v y.  On comparable x, y both sides
    read one entry, (x, x) and (y, y) when x <= y, (y, x) when y < x, so
    they pass with no filtering.  A lattice with no incomparable pair, or
    a game whose codes are all equal (:func:`_one_valued`), builds no
    matrix and reads no meet/join table: both sides of every inequality
    are one code.

    For each x with an incomparable element, the two sides over all y are
    compared as lists while they are equal.  From the first unequal x on
    the game is not affine, and ``code_order.le`` checks convexity on that
    x and the rest.
    """
    return _cached(g, _CONVEXITY, _scan_convexity)


def _scan_convexity(g):
    l = g.lattice
    up, down, full = l.up, l.down, l.full_mask
    split = [x for x in l.elements() if up[x] | down[x] != full]
    codes = g._codes[0]
    if not split or _one_valued(codes):
        return True, True
    n = l.n
    fill = codes[0]
    rows = [[fill] * n for _ in range(n)]
    for (x, y), c in zip(l.strict_pairs(), codes):
        rows[x][y] = rows[y][x] = c
    le = g.values.code_order.le
    affine = True
    for x in split:
        left = list(map(rows[x].__getitem__, l.meet[x]))
        right = list(map(list.__getitem__, rows, l.join[x]))
        if affine:
            if left == right:
                continue
            affine = False
        if not all(map(le, left, right)):
            return False, False
    return True, affine


def _row_witness(g, codes, lo, hi, beats):
    """The first x by index with lo < x < hi and ``beats(ref, c)``, ref and c
    the codes of (lo, hi) and (lo, x), or None.  ``codes`` is a code list by
    pair id: the payoff codes, or a series of :func:`_series`."""
    row = _pair_ids(g.lattice)[lo]
    ref = codes[row[hi]]
    for x in _iter_bits(g.lattice.strictly_between(lo, hi)):
        if beats(ref, codes[row[x]]):
            return x
    return None


def interval_semistable(g, lo, hi):
    """Semistability of the restriction of g to [lo, hi].

    Verbatim form: no x above lo in the interval has mu_a(lo, x) strictly
    greater than mu_a(lo, hi).  For non-total value lattices this is weaker
    than mu_a(lo, x) <= mu_a(lo, hi).
    """
    return _row_witness(g, _series(g, 2), lo, hi, g.values.code_order.lt) is None


def interval_stable(g, lo, hi):
    """Stability of the restriction of g to [lo, hi]: semistable and no
    proper intermediate x attains mu_a(lo, hi)."""
    return _row_witness(g, _series(g, 2), lo, hi, g.values.code_order.le) is None


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


def is_slope_like(g):
    """The four disjunctions of the slope-like condition on every chain triple.

    For x < y < z:
      (1) mu(x,y) <= mu(x,z)  or  mu(y,z) < mu(x,z)
      (2) mu(x,y) <  mu(x,z)  or  mu(y,z) <= mu(x,z)
      (3) mu(x,z) <  mu(x,y)  or  mu(x,z) <= mu(y,z)
      (4) mu(x,z) <= mu(x,y)  or  mu(x,z) <  mu(y,z)

    The check runs once per strict pair (x, z) over the bits of
    I = ``strictly_between(x, z)``.  Under a total code order, with
    a = mu(x,y), b = mu(x,z) and c = mu(y,z), the disjunctions allow exactly
    a < b < c, a > b > c and a = b = c, so the pair passes iff the y in I
    with a < b are the y in I with c > b, and those with a > b the ones with
    c < b.  Each row x and column z of codes is then sorted once, with the
    OR of the free-end bits over every prefix, and the four sets are two
    ``bisect`` lookups per line.  A line's first use checks its pair
    directly, y by y, and its sorted form is built on a later use, so a game
    that fails early builds none; the sorted lines live for one call.  A
    non-total code order checks the four disjunctions y by y.

    The verdict is cached on the game, like its tables.
    """
    return _cached(g, _SLOPE_LIKE, _scan_slope_like)


def _scan_slope_like(g):
    l = g.lattice
    codes = g._codes[0]
    pid = _pair_ids(l)
    down = l.down
    order = g.values.code_order
    if order is not INT_ORDER:
        leq, lt = order.le, order.lt
        for ends, ids in _lines(l, True):
            for z, k in ids.items():
                b = codes[k]
                for y in _iter_bits((ends & down[z]) ^ (1 << z)):
                    a, c = codes[ids[y]], codes[pid[y][z]]
                    if not (
                        (leq(a, b) or lt(c, b)) and (lt(a, b) or leq(c, b))
                        and (lt(b, a) or leq(b, c)) and (leq(b, a) or lt(b, c))
                    ):
                        return False
        return True
    # A line is None before its first use, False after it, and its sorted
    # form from its second use on.
    cols = {}
    for ends, ids in _lines(l, True):
        row = None
        for z, k in ids.items():
            inside = (ends & down[z]) ^ (1 << z)
            if not inside:
                continue
            b = codes[k]
            col = cols.get(z)
            if row is None or col is None:
                if row is None:
                    row = False
                if col is None:
                    cols[z] = False
                # The bits inline, not through _iter_bits: most small games
                # fail here, where a generator costs more than the check.
                rest = inside
                while rest:
                    low = rest & -rest
                    y = low.bit_length() - 1
                    a, c = codes[ids[y]], codes[pid[y][z]]
                    if (a < b) != (b < c) or (b < a) != (c < b):
                        return False
                    rest ^= low
                continue
            if not row:
                row = _ranked_line(codes, ids.items())
            if not col:
                col = cols[z] = _ranked_line(
                    codes, ((y, pid[y][z]) for y in _iter_bits(down[z] ^ (1 << z)))
                )
            rkeys, rpre = row
            ckeys, cpre = col
            # On I, {a < b} and {c <= b} must split it, as must {a <= b}
            # and {c < b}.
            if (
                (rpre[bisect_left(rkeys, b)] ^ cpre[bisect_right(ckeys, b)])
                & inside != inside
                or (rpre[bisect_right(rkeys, b)] ^ cpre[bisect_left(ckeys, b)])
                & inside != inside
            ):
                return False
    return True


def _ranked_line(codes, ends):
    """A line's codes, sorted, and the OR of ``1 << y`` over each prefix of
    that order, given ``(y, pair id)`` per free end y: ``pre[bisect_left(
    keys, b)]`` is the set of free ends with code below b, and
    ``pre[bisect_right(keys, b)]`` of those with code at most b."""
    ranked = sorted((codes[k], y) for y, k in ends)
    keys = [c for c, _ in ranked]
    pre = list(accumulate((1 << y for _, y in ranked), operator.or_, initial=0))
    return keys, pre


def _classify(lt, vxy, vxz, vyz):
    if lt(vxy, vxz) and lt(vxz, vyz):
        return INCREASING
    if lt(vxz, vxy) and lt(vyz, vxz):
        return DECREASING
    if vxy == vxz == vyz:
        return FLAT
    return VIOLATION


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
    code = _payoff_code(g)
    return _classify(g.values.code_order.lt, code(x, y), code(x, z), code(y, z))


def has_seesaw_violation(g):
    """Whether some chain triple x < y < z classifies as a violation."""
    l = g.lattice
    codes = g._codes[0]
    pid = _pair_ids(l)
    lt = g.values.code_order.lt
    for x, row in enumerate(pid):
        for z, k in row.items():
            b = codes[k]
            for y in _iter_bits(l.strictly_between(x, z)):
                if _classify(lt, codes[row[y]], b, codes[pid[y][z]]) == VIOLATION:
                    return True
    return False


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
    bot, top = g.lattice.bot, g.lattice.top
    v = g.mu(bot, top)
    vmax, vmin = mu_max(g, bot, top), mu_min(g, bot, top)
    report = NashReport(
        mu_max_attains_payoff=vmax == v,
        mu_min_attains_payoff=vmin == v,
        mu_min_equals_mu_max=vmin == vmax,
        nash=mu_a(g, bot, top) == mu_b(g, bot, top),
        semistable=is_semistable(g),
    )
    if len(set(report.items)) != 1:
        raise TheoremViolation(f"equivalent conditions diverged: {report.items}")
    if report.semistable and not report.nash:
        raise TheoremViolation("semistable game without Nash equilibrium")
    if report.nash and not report.semistable:
        raise TheoremViolation("Nash equilibrium without semistability")
    return report
