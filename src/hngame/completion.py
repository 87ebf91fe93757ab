"""Dedekind-MacNeille completion of finite posets.

The completion is realized as the family of subsets A with (A^u)^l = A,
ordered by inclusion.  Subsets are bitmasks over the base poset; the
upper/lower bound operators are bitmask intersections, and they form a Galois
connection whose induced closure operator has the completion as its closed
sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAnEmbedding, TooLarge
from .order import FinitePoset, _iter_bits, as_bounded_lattice

MAX_COMPLETION_ELEMENTS = 16


def upper_bounds(p, subset):
    """Bitmask of the common upper bounds of ``subset`` (everything if empty)."""
    acc = p.full_mask
    for a in _iter_bits(subset):
        acc &= p.up[a]
    return acc


def lower_bounds(p, subset):
    """Bitmask of the common lower bounds of ``subset``."""
    acc = p.full_mask
    for a in _iter_bits(subset):
        acc &= p.down[a]
    return acc


def dm_closure(p, subset):
    """The closure (A^u)^l of a subset: extensive, monotone, idempotent."""
    return lower_bounds(p, upper_bounds(p, subset))


@dataclass(frozen=True)
class CutLattice:
    """The completion of a base poset.

    ``closed_sets`` lists every closed bitmask, sorted by (popcount, mask) so
    that the ordering is deterministic and compatible with inclusion.
    ``embedding[i]`` is the position of the principal ideal of element ``i``.
    """

    base: FinitePoset
    closed_sets: tuple
    embedding: tuple

    def members(self, k):
        """Labels of the k-th closed set."""
        return tuple(self.base.names[i] for i in _iter_bits(self.closed_sets[k]))

    def as_lattice(self):
        """The completion as a bounded lattice ordered by inclusion, each
        closed set named by the tuple of its member labels."""
        names = tuple(self.members(k) for k in range(len(self.closed_sets)))
        sets = self.closed_sets
        m = len(sets)
        up = tuple(
            sum(1 << j for j in range(m) if sets[i] & ~sets[j] == 0) for i in range(m)
        )
        return as_bounded_lattice(FinitePoset(names, up))

    def is_linear(self):
        """Whether the closed sets form a chain under inclusion.  They are
        sorted by size, so it suffices that each lies inside the next."""
        sets = self.closed_sets
        return all(a & ~b == 0 for a, b in zip(sets, sets[1:]))


def dedekind_macneille(p, max_elements=MAX_COMPLETION_ELEMENTS):
    """Enumerate all closed subsets of ``p`` and assemble the completion.

    A closed set is the intersection of the principal down-sets of its upper
    bounds (the whole base for none), so folding in one down-set at a time
    reaches every closed set in O(n) set operations per closed set.  The
    completion can still have exponentially many elements, so inputs beyond
    ``max_elements`` are rejected rather than silently ground through.
    """
    if p.n == 0:
        raise ValueError("completion of the empty poset is not supported")
    if p.n > max_elements:
        raise TooLarge(
            f"poset has {p.n} elements; guard is {max_elements} "
            "(raise max_elements to override)"
        )
    closed = {p.full_mask}
    for down in p.down:
        closed |= {c & down for c in closed}
    closed = tuple(sorted(closed, key=lambda mask: (bin(mask).count("1"), mask)))
    position = {mask: k for k, mask in enumerate(closed)}
    embedding = tuple(position[p.down[i]] for i in range(p.n))
    return CutLattice(p, closed, embedding)


@dataclass(frozen=True)
class UniversalFactorization:
    """Witness for the completion's universal property.

    ``factor_map[k]`` is the target element assigned to the k-th closed set by
    the sup-formula; ``holds`` records that it factors the embedding and is
    order-preserving.  Uniqueness of the factorization is not certified here.
    """

    holds: bool
    factor_map: tuple


def check_universal_property(c, target, f):
    """Verify the factorization property of the completion against a target.

    ``target`` is a finite bounded lattice (hence complete); ``f`` maps base
    element indices to target element indices and must be an order-embedding,
    otherwise :class:`NotAnEmbedding` is raised.  Returns the constructed
    factor map A -> sup { f(a) | a in A } together with the verdict.
    """
    base = c.base
    fmap = [f[i] for i in range(base.n)]
    if len(set(fmap)) != base.n:
        raise NotAnEmbedding("map is not injective")
    for i in range(base.n):
        for j in range(base.n):
            if base.le(i, j) != target.le(fmap[i], fmap[j]):
                raise NotAnEmbedding(
                    f"map does not embed the order at "
                    f"({base.names[i]!r}, {base.names[j]!r})"
                )
    factor = tuple(
        target.sup(fmap[a] for a in _iter_bits(subset)) for subset in c.closed_sets
    )
    holds = all(factor[c.embedding[i]] == fmap[i] for i in range(base.n))
    sets = c.closed_sets
    for i in range(len(sets)):
        for j in range(len(sets)):
            if sets[i] & ~sets[j] == 0 and not target.le(factor[i], factor[j]):
                holds = False
    return UniversalFactorization(holds, factor)
