"""Finite posets, bounded lattices, intervals and chain search.

Relations are stored densely: each element keeps an up-set and a down-set
bitmask, so subset iteration and bound computations are single integer
operations.  A :class:`BoundedLattice` is a :class:`FinitePoset` that also
carries its bounds and meet/join tables, so every poset query applies to a
lattice directly.  Everything is immutable after construction; element
identity is index-based internally and label-based at the I/O boundary.
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
    of ``{i | i <= j}``.  The constructor verifies reflexivity, antisymmetry
    and transitivity; use :func:`build_poset` to close an arbitrary relation
    first.
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
        """List of cover pairs (i, j): i < j with nothing strictly between."""
        out = []
        for i in range(self.n):
            for j in _iter_bits(self.up[i] & ~(1 << i)):
                if not self.strictly_between(i, j):
                    out.append((i, j))
        return out

    def dual(self):
        """The order-dual poset on the same labels."""
        return FinitePoset(self.names, self.down)

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

    Raises :class:`CycleError` if the closure violates antisymmetry and
    :class:`UnknownLabel` for pairs referencing undeclared labels.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError("element labels must be distinct")
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    up = [1 << i for i in range(n)]
    for a, b in relation_pairs:
        if a not in index:
            raise UnknownLabel(f"unknown element label {a!r}")
        if b not in index:
            raise UnknownLabel(f"unknown element label {b!r}")
        up[index[a]] |= 1 << index[b]
    # Warshall closure over bitmask rows.
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in _iter_bits(acc):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in _iter_bits(up[i]):
            if i != j and (up[j] >> i) & 1:
                raise CycleError(
                    f"pairs force {names[i]} <= {names[j]} and {names[j]} <= {names[i]}"
                )
    return FinitePoset(names, up)


class BoundedLattice(FinitePoset):
    """A finite bounded lattice: a poset that also carries bot/top and
    meet/join tables.

    Use :func:`as_bounded_lattice` to build one from a poset with full
    verification; the constructor takes over the fields of that already
    verified poset without checking them again.  ``meet[i][j]`` /
    ``join[i][j]`` give element indices.
    """

    __slots__ = ("bot", "top", "meet", "join", "_cache")

    def __init__(self, poset, bot, top, meet, join):
        for field in FinitePoset.__slots__:
            setattr(self, field, getattr(poset, field))
        self.bot = bot
        self.top = top
        self.meet = meet
        self.join = join
        self._cache = {}

    def sup(self, elems):
        """Join of a finite iterable of elements (bot for the empty one)."""
        acc = self.bot
        for e in elems:
            acc = self.join[acc][e]
        return acc

    def inf(self, elems):
        acc = self.top
        for e in elems:
            acc = self.meet[acc][e]
        return acc

    def dual(self):
        """Order-dual lattice: reversed order, bot/top and meet/join swapped."""
        cached = self._cache.get("dual")
        if cached is None:
            cached = BoundedLattice(
                super().dual(), self.top, self.bot, self.join, self.meet
            )
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
    meet/join tables.

    The common lower bounds of i and j are ``down[i] & down[j]``, and their
    greatest lower bound is the element whose down-set is exactly that mask
    (a lower bound's down-set already lies inside it).  So each meet is one
    lookup in a map from down-set to element, each join one lookup in a map
    from up-set to element, and the tables take O(n^2) lookups.

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
    return BoundedLattice(
        p, bot, top, tuple(map(tuple, meet)), tuple(map(tuple, join))
    )


def is_modular(l):
    """Whether ``x <= z`` implies ``x v (y ^ z) == (x v y) ^ z`` for all triples."""
    meet, join = l.meet, l.join
    for x in range(l.n):
        for z in _iter_bits(l.up[x]):
            jx = join[x]
            mz = meet[z]
            for y in range(l.n):
                if jx[mz[y]] != mz[jx[y]]:
                    return False
    return True


class Interval:
    """The interval ``[lo, hi]`` of a bounded lattice.

    ``members`` is the bitmask of ``{z | lo <= z <= hi}``.  The induced order
    is itself a nontrivial bounded lattice (intervals of lattices are
    sublattices); :meth:`as_lattice` materializes it with the ambient labels.
    """

    __slots__ = ("lattice", "lo", "hi", "members")

    def __init__(self, lattice, lo, hi):
        if not lattice.lt(lo, hi):
            raise NotStrict(
                f"interval needs {lattice.names[lo]} < {lattice.names[hi]}"
            )
        self.lattice = lattice
        self.lo = lo
        self.hi = hi
        self.members = lattice.between(lo, hi)

    def member_indices(self):
        return tuple(_iter_bits(self.members))

    def __contains__(self, i):
        return (self.members >> i) & 1 == 1

    def as_lattice(self):
        """The interval as a bounded lattice carrying the ambient labels.

        The meet/join tables are sliced from the ambient ones; no re-derivation
        is needed because intervals of lattices are closed under both.
        """
        amb = self.lattice
        elems = self.member_indices()
        pos = {e: k for k, e in enumerate(elems)}
        names = tuple(amb.names[e] for e in elems)
        up = tuple(
            sum(1 << pos[j] for j in _iter_bits(amb.up[e] & self.members))
            for e in elems
        )
        poset = FinitePoset(names, up)
        meet = tuple(
            tuple(pos[amb.meet[a][b]] for b in elems) for a in elems
        )
        join = tuple(
            tuple(pos[amb.join[a][b]] for b in elems) for a in elems
        )
        return BoundedLattice(poset, pos[self.lo], pos[self.hi], meet, join)

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
