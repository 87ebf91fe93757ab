"""Finite posets, bounded lattices, intervals and chain search.

Relations are stored densely: each element keeps an up-set and a down-set
bitmask, so subset iteration and bound computations are single integer
operations.  A :class:`BoundedLattice` is a :class:`FinitePoset` that also
carries its bounds and meet/join tables, so every poset query applies to a
lattice directly.  Everything is immutable after construction; element
identity is index-based internally and label-based at the I/O boundary.

Each closed structure is built once from its generators: a poset from its
generating pairs in one topological pass, its covers by peeling minimal
elements off each up-set, a dual by swapping masks and tables, an interval
lattice by slicing the ambient masks.  Only the public :class:`FinitePoset`
constructor and :func:`as_bounded_lattice` verify what they are given.

The meet/join tables take n^2 entries.  :func:`as_bounded_lattice` builds
them at once, since building them is how it checks the lattice laws; every
document, fixture, sweep class, random lattice and completion goes through
it.  A lattice by construction, such as an interval lattice or a subgroup
lattice, builds them from its own order on the first read of ``meet`` or
``join``.  A dual shares the tables of its lattice, built or not, so the
two make one build between them whichever reads first.
:func:`is_modular` reads covers and masks only, so a modularity check
builds no tables.
"""

from __future__ import annotations

from .errors import (
    CycleError,
    MalformedFiltration,
    NoBounds,
    NotALattice,
    NotStrict,
    TrivialLattice,
    UnknownLabel,
)


def _iter_bits(mask):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """A finite partially ordered set over labelled elements.

    ``up[i]`` is the bitmask of ``{j | i <= j}`` and ``down[j]`` the bitmask
    of ``{i | i <= j}``.  The public constructor verifies reflexivity,
    antisymmetry and transitivity; use :func:`build_poset` to close an
    arbitrary relation first.  Masks that are closed by construction (the
    closure :func:`build_poset` computes, the swapped masks of a dual, the
    induced order on an interval) go through :meth:`_trusted` instead and
    are not verified again.
    """

    __slots__ = ("n", "names", "up", "down", "_index")

    def __init__(self, names, up):
        names = tuple(names)
        up = tuple(up)
        n = len(names)
        if len(set(names)) != n:
            raise ValueError("element labels must be distinct")
        if len(up) != n:
            raise ValueError("relation size does not match element count")
        full = (1 << n) - 1
        down = [0] * n
        for i, mask in enumerate(up):
            if mask & ~full:
                raise ValueError("relation references unknown elements")
            if not (mask >> i) & 1:
                raise ValueError(f"relation not reflexive at {names[i]}")
            for j in _iter_bits(mask):
                down[j] |= 1 << i
        for i in range(n):
            for j in _iter_bits(up[i]):
                if i != j and (up[j] >> i) & 1:
                    raise ValueError(
                        f"relation not antisymmetric on {names[i]}, {names[j]}"
                    )
                if up[j] & ~up[i]:
                    raise ValueError(
                        f"relation not transitive through {names[i]} <= {names[j]}"
                    )
        self.n = n
        self.names = names
        self.up = up
        self.down = tuple(down)
        self._index = {name: i for i, name in enumerate(names)}

    @classmethod
    def _trusted(cls, names, up, down, index=None):
        """A poset from label and mask tuples that already form a closed
        order, taken over without verification.  ``index`` may share the
        label map of a poset on the same labels."""
        self = object.__new__(cls)
        self.n = len(names)
        self.names = names
        self.up = up
        self.down = down
        self._index = (
            {name: i for i, name in enumerate(names)} if index is None else index
        )
        return self

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"unknown element label {label!r}") from None

    def le(self, i, j):
        return (self.up[i] >> j) & 1 == 1

    def lt(self, i, j):
        return i != j and (self.up[i] >> j) & 1 == 1

    def elements(self):
        return range(self.n)

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def strictly_between(self, lo, hi):
        """Bitmask of ``{z | lo < z < hi}``."""
        return self.up[lo] & self.down[hi] & ~(1 << lo) & ~(1 << hi)

    def between(self, lo, hi):
        """Bitmask of ``{z | lo <= z <= hi}``."""
        return self.up[lo] & self.down[hi]

    def covers(self):
        """List of cover pairs (i, j): i < j with nothing strictly between,
        ordered by i and then j.

        The upper covers of i are the minimal elements of its strict up-set.
        They are peeled off one at a time: probe the lowest remaining index,
        step down to a lower remaining element until the probe has none
        below it, record that cover and drop its whole up-set from the
        remainder.  When indices follow the order or its reverse (chains,
        subgroup lattices, labels listed bottom up, and their duals) each
        cover takes at most two probes; in any case an element is probed at
        most once per up-set.
        """
        up, down = self.up, self.down
        out = []
        for i in range(self.n):
            rest = up[i] ^ (1 << i)
            found = []
            while rest:
                j = (rest & -rest).bit_length() - 1
                below = down[j] & rest
                while below != 1 << j:
                    j = (below ^ (1 << j)).bit_length() - 1
                    below = down[j] & rest
                found.append(j)
                rest &= ~up[j]
            found.sort()
            out.extend((i, j) for j in found)
        return out

    def dual(self):
        """The order-dual poset on the same labels: the two mask tuples
        swap roles, so nothing is recomputed or verified again."""
        return FinitePoset._trusted(self.names, self.down, self.up, self._index)

    def is_total(self):
        """Whether every element is comparable to every other one."""
        full = self.full_mask
        return all(u | d == full for u, d in zip(self.up, self.down))

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.names == other.names
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.names, self.up))

    def __repr__(self):
        return f"FinitePoset({list(self.names)!r}, {self.n} elements)"


def build_poset(names, relation_pairs):
    """Build a poset from generating pairs, taking the reflexive-transitive
    closure.

    The pairs are sorted topologically (Kahn); then one pass in reverse
    order fills each up-set as the union of its successors' up-sets, and one
    pass forward fills the down-sets likewise, so the closure takes
    O(n + m) mask unions for n labels and m pairs.  Pairs may repeat, and a
    pair (a, a) adds nothing.  The result is closed by construction and is
    not verified again.

    Raises :class:`CycleError` if the closure violates antisymmetry, naming
    the lowest index on a cycle and the lowest other index in its strongly
    connected component, and :class:`UnknownLabel` for pairs referencing
    undeclared labels.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError("element labels must be distinct")
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    succ = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in relation_pairs:
        if a not in index:
            raise UnknownLabel(f"unknown element label {a!r}")
        if b not in index:
            raise UnknownLabel(f"unknown element label {b!r}")
        i, j = index[a], index[b]
        if i != j:
            succ[i].append(j)
            indegree[j] += 1
    order = [i for i in range(n) if not indegree[i]]
    for i in order:
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < n:
        raise _cycle_error(names, succ, [i for i in range(n) if indegree[i]])
    up = [1 << i for i in range(n)]
    for i in reversed(order):
        acc = up[i]
        for j in succ[i]:
            acc |= up[j]
        up[i] = acc
    down = [1 << i for i in range(n)]
    for i in order:
        below = down[i]
        for j in succ[i]:
            down[j] |= below
    return FinitePoset._trusted(names, tuple(up), tuple(down), index)


def _cycle_error(names, succ, stuck):
    """The :class:`CycleError` for a relation whose topological sort left
    ``stuck`` (every element on a cycle or after one) unplaced.

    It names the lowest element i on a cycle and the lowest other element j
    of its strongly connected component, the elements both reachable from i
    and reaching it.
    """
    pred = [[] for _ in names]
    for i, targets in enumerate(succ):
        for j in targets:
            pred[j].append(i)

    def reach(start, edges):
        seen, stack = 1 << start, [start]
        while stack:
            for j in edges[stack.pop()]:
                if not seen >> j & 1:
                    seen |= 1 << j
                    stack.append(j)
        return seen

    for i in stuck:
        component = reach(i, succ) & ~(1 << i)
        if component:
            component &= reach(i, pred)
        if component:
            a, b = names[i], names[(component & -component).bit_length() - 1]
            return CycleError(f"pairs force {a} <= {b} and {b} <= {a}")
    raise AssertionError("a relation without a topological order has a cycle")


class BoundedLattice(FinitePoset):
    """A finite bounded lattice: a poset that also carries bot/top and
    meet/join tables.

    Use :func:`as_bounded_lattice` to build one from a poset with full
    verification of the lattice laws.  The constructor takes over the
    fields of a poset and its bounds without checking them again, and so
    serves a poset that is a lattice by construction, such as a dual, an
    interval lattice or a subgroup lattice.  ``meet`` and ``join`` may be
    given; otherwise :func:`_tables` builds both from the order on the
    first read of either.  A lattice and its dual share one build, held in
    a one-item list that the dual reads swapped, so neither refers to the
    other.  ``meet[i][j]`` / ``join[i][j]`` give element indices.
    """

    __slots__ = ("bot", "top", "_pair", "_flip", "_cache")

    def __init__(self, poset, bot, top, meet=None, join=None):
        for field in FinitePoset.__slots__:
            setattr(self, field, getattr(poset, field))
        self.bot = bot
        self.top = top
        self._pair = [None if meet is None else (meet, join)]
        self._flip = 0
        self._cache = {}

    def _meet_join(self):
        """The shared (meet, join) pair, in the orientation of whichever of
        the lattice and its dual was made first, built on first call."""
        pair = self._pair[0]
        if pair is None:
            meet, join = _tables(self)
            pair = self._pair[0] = (join, meet) if self._flip else (meet, join)
        return pair

    @property
    def meet(self):
        return self._meet_join()[self._flip]

    @property
    def join(self):
        return self._meet_join()[1 - self._flip]

    def sup(self, elems):
        """Join of a finite iterable of elements (bot for the empty one)."""
        join = self.join
        acc = self.bot
        for e in elems:
            acc = join[acc][e]
        return acc

    def inf(self, elems):
        meet = self.meet
        acc = self.top
        for e in elems:
            acc = meet[acc][e]
        return acc

    def dual(self):
        """Order-dual lattice: reversed order, bot/top and meet/join swapped.
        It shares the table build of this lattice, built or not."""
        cached = self._cache.get("dual")
        if cached is None:
            cached = BoundedLattice(super().dual(), self.top, self.bot)
            cached._pair = self._pair
            cached._flip = 1 - self._flip
            self._cache["dual"] = cached
        return cached

    def strict_pairs(self):
        """All pairs (i, j) with i < j, in a fixed deterministic order."""
        cached = self._cache.get("pairs")
        if cached is None:
            cached = tuple(
                (i, j)
                for i in range(self.n)
                for j in _iter_bits(self.up[i] & ~(1 << i))
            )
            self._cache["pairs"] = cached
        return cached

    def __eq__(self, other):
        return (
            isinstance(other, BoundedLattice)
            and super().__eq__(other)
            and self.bot == other.bot
            and self.top == other.top
        )

    def __hash__(self):
        return hash((self.names, self.up, self.bot, self.top))

    def __repr__(self):
        return (
            f"BoundedLattice({list(self.names)!r}, bot={self.names[self.bot]!r}, "
            f"top={self.names[self.top]!r})"
        )


def as_bounded_lattice(p):
    """Verify that a poset is a nontrivial bounded lattice and equip it with
    meet/join tables.  :func:`_tables` builds them at once, since building
    them is how the lattice laws are checked, and the lattice takes them
    over.

    Raises :class:`NoBounds` if there is no global least or greatest element,
    :class:`NotALattice` naming the first pair without a glb or lub, and
    :class:`TrivialLattice` if bot equals top.
    """
    n = p.n
    full = p.full_mask
    bots = [i for i in range(n) if p.up[i] == full]
    tops = [j for j in range(n) if p.down[j] == full]
    if not bots or not tops:
        raise NoBounds("poset has no global least or greatest element")
    bot, top = bots[0], tops[0]
    if bot == top:
        raise TrivialLattice("least and greatest elements coincide")
    return BoundedLattice(p, bot, top, *_tables(p))


def _tables(p):
    """The meet and join tables of a poset, as tuples of rows.

    The common lower bounds of i and j are ``down[i] & down[j]``, and their
    greatest lower bound is the element whose down-set is exactly that mask
    (a lower bound's down-set already lies inside it).  So each meet is one
    lookup in a map from down-set to element, each join one lookup in a map
    from up-set to element, and the tables take O(n^2) lookups.  Raises
    :class:`NotALattice` naming the first pair, row by row, without a glb
    or lub.
    """
    n = p.n
    by_down = {mask: z for z, mask in enumerate(p.down)}
    by_up = {mask: z for z, mask in enumerate(p.up)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            glb = by_down.get(p.down[i] & p.down[j])
            if glb is None:
                raise NotALattice(p.names[i], p.names[j], "greatest lower bound")
            lub = by_up.get(p.up[i] & p.up[j])
            if lub is None:
                raise NotALattice(p.names[i], p.names[j], "least upper bound")
            meet[i][j] = meet[j][i] = glb
            join[i][j] = join[j][i] = lub
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def is_modular(l):
    """Whether l is modular, checked on covers.

    A finite lattice is modular iff it is upper and lower semimodular
    (Birkhoff, *Lattice Theory*, ch. II): whenever x != y both cover z,
    x v y covers both x and y, and dually, whenever x != y are both covered
    by z, both x and y cover x ^ y.  A join is the element whose up-set is
    the intersection of the two up-sets, and a meet dually, so the check
    reads masks and covers only and never builds the meet/join tables.  It
    takes one pass over each pair of upper covers and each pair of lower
    covers of every element.
    """
    n = l.n
    above = [[] for _ in range(n)]
    below = [[] for _ in range(n)]
    for i, j in l.covers():
        above[i].append(j)
        below[j].append(i)
    for masks, other, neighbours in ((l.up, l.down, above), (l.down, l.up, below)):
        by_mask = {mask: z for z, mask in enumerate(masks)}
        for near in neighbours:
            for k, x in enumerate(near):
                for y in near[k + 1:]:
                    w = by_mask[masks[x] & masks[y]]
                    if masks[x] & other[w] != 1 << x | 1 << w:
                        return False
                    if masks[y] & other[w] != 1 << y | 1 << w:
                        return False
    return True


class Interval:
    """The interval ``[lo, hi]`` of a bounded lattice.

    ``members`` is the bitmask of ``{z | lo <= z <= hi}``.  The induced order
    is itself a nontrivial bounded lattice (intervals of lattices are
    sublattices); :meth:`as_lattice` materializes it with the ambient labels.
    """

    __slots__ = ("lattice", "lo", "hi", "members", "_as_lattice")

    def __init__(self, lattice, lo, hi):
        if not lattice.lt(lo, hi):
            raise NotStrict(
                f"interval needs {lattice.names[lo]} < {lattice.names[hi]}"
            )
        self.lattice = lattice
        self.lo = lo
        self.hi = hi
        self.members = lattice.between(lo, hi)
        self._as_lattice = None

    def member_indices(self):
        return tuple(_iter_bits(self.members))

    def __contains__(self, i):
        return (self.members >> i) & 1 == 1

    def as_lattice(self):
        """The interval as a bounded lattice carrying the ambient labels,
        built once per interval and kept on it, so it lives as long as the
        interval does.

        The induced order is sliced from the ambient masks; no verification
        is needed because intervals of lattices are lattices.  The meet/join
        tables are built from that order on first read, like everything
        computed later on the result, such as its cover index, and belong to
        the interval lattice itself.
        """
        if self._as_lattice is not None:
            return self._as_lattice
        amb = self.lattice
        members = self.members
        elems = self.member_indices()
        pos = {e: k for k, e in enumerate(elems)}

        def induced(masks):
            return tuple(
                sum(1 << pos[j] for j in _iter_bits(masks[e] & members))
                for e in elems
            )

        names = tuple(amb.names[e] for e in elems)
        poset = FinitePoset._trusted(names, induced(amb.up), induced(amb.down))
        self._as_lattice = BoundedLattice(poset, pos[self.lo], pos[self.hi])
        return self._as_lattice

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.lattice == other.lattice
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __repr__(self):
        names = self.lattice.names
        return f"Interval[{names[self.lo]!r}, {names[self.hi]!r}]"


def iter_chains(lattice, start, stop, step_ok):
    """Yield, as tuples, the strict chains from ``start`` to ``stop`` whose
    every step passes ``step_ok(chain, nxt)``.

    A chain takes at least one step, so ``start == stop`` yields nothing.
    The chains climb when ``start <= stop`` and descend otherwise.  The walk
    is depth-first and tries successors in increasing element index, so the
    output order is deterministic; ``chain`` is the list of steps taken so
    far, ending at the element ``nxt`` would follow.  The pending successors
    of each level live on an explicit stack, so chain length is not bounded
    by the interpreter's recursion limit.
    """
    up, down = lattice.up, lattice.down
    ahead, behind = (up, down) if lattice.le(start, stop) else (down, up)
    reach = behind[stop]
    chain = [start]
    pending = [ahead[start] & reach & ~(1 << start)]
    while pending:
        mask = pending[-1]
        if not mask:
            pending.pop()
            chain.pop()
            continue
        low = mask & -mask
        pending[-1] = mask ^ low
        nxt = low.bit_length() - 1
        if not step_ok(chain, nxt):
            continue
        if nxt == stop:
            yield (*chain, nxt)
        else:
            chain.append(nxt)
            pending.append(ahead[nxt] & reach & ~low)


def check_chain(lattice, f, start, stop):
    """The steps of ``f`` (a filtration or a sequence of element indices) as
    a tuple, checked to form a strict chain from ``start`` to ``stop``.

    Raises :class:`MalformedFiltration` naming the first defect.
    """
    steps = tuple(getattr(f, "steps", f))
    names = lattice.names
    if len(steps) < 2:
        raise MalformedFiltration("a filtration has at least two steps")
    if steps[0] != start:
        raise MalformedFiltration(f"filtration must start at {names[start]!r}")
    if steps[-1] != stop:
        raise MalformedFiltration(f"filtration must end at {names[stop]!r}")
    rising = lattice.le(start, stop)
    for a, b in zip(steps, steps[1:]):
        if not (lattice.lt(a, b) if rising else lattice.lt(b, a)):
            direction = "increase" if rising else "decrease"
            raise MalformedFiltration(
                f"steps {names[a]!r}, {names[b]!r} do not strictly {direction}"
            )
    return steps


def linear_extension(p):
    """A total order extending the poset order, as a tuple of element indices.

    Kahn-style topological sort with smallest-input-index tie-breaking, so the
    output is deterministic and every downstream choice built on it is
    reproducible.
    """
    n = p.n
    remaining = p.full_mask
    out = []
    while remaining:
        for i in _iter_bits(remaining):
            if p.down[i] & remaining == 1 << i:
                out.append(i)
                remaining &= ~(1 << i)
                break
    return tuple(out)
