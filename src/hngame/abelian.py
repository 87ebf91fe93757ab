"""Coprimary filtrations of finite abelian groups.

A finite abelian group is a finitely generated module over the integers; its
submodules are its subgroups, its associated primes are the primes dividing
its order, and the payoff N1 < N2 |-> Ass(N2/N1) over the Lex'-ordered
finite subsets of primes is a game whose canonical filtration is the unique
coprimary filtration.

Subgroups are bitmasks over element indices.  They are enumerated by closing
the trivial subgroup under joins with the cyclic subgroups <x>, through one
index addition table per group.  Ass(N2/N1) is read from the index: by
Cauchy's theorem the primes of the quotient's element orders are exactly the
primes dividing |N2|/|N1|.  The explicit quotient N2/N1, built from cosets,
and the element-order computation of Ass are the test references for that
shortcut (``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import TooLarge
from .filtration import canonical_hn_filtration
from .game import Game
from .order import (
    BoundedLattice,
    FinitePoset,
    _iter_bits,
    as_bounded_lattice,
    iter_chains,
)
from .values import PrimeFinsets

MAX_GROUP_ORDER = 200


@lru_cache(maxsize=None)
def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


class FiniteAbelianGroup:
    """Product of cyclic groups of the given orders (each at least 2).

    The order is the product of the cyclic orders; the element tuples are
    built on first use, so a size guard on the order runs before them.
    """

    def __init__(self, cyclic_orders):
        orders = tuple(int(k) for k in cyclic_orders)
        if not orders or any(k < 2 for k in orders):
            raise ValueError("cyclic orders must all be at least 2")
        self.cyclic_orders = orders
        self.order = math.prod(orders)
        self.zero = (0,) * len(orders)

    @cached_property
    def elements(self):
        return tuple(itertools.product(*(range(k) for k in self.cyclic_orders)))

    def add(self, a, b):
        return tuple((x + y) % k for x, y, k in zip(a, b, self.cyclic_orders))

    def __repr__(self):
        return f"FiniteAbelianGroup({list(self.cyclic_orders)!r})"


def _index_primes(subgroups, lo, hi):
    """Ass(N2/N1) for subgroups N1 = subgroups[lo] < N2 = subgroups[hi]: the
    primes dividing the index, by Cauchy's theorem."""
    return _prime_factors(len(subgroups[hi]) // len(subgroups[lo]))


def _addition_table(group):
    """``table[i][j]`` is the index of ``elements[i] + elements[j]``."""
    elements = group.elements
    index = {e: k for k, e in enumerate(elements)}
    n = len(elements)
    table = [[0] * n for _ in range(n)]
    for i, a in enumerate(elements):
        for j in range(i, n):
            table[i][j] = table[j][i] = index[group.add(a, elements[j])]
    return table


def _subgroup_masks(group):
    """Every subgroup as a bitmask over element indices, sorted by (order,
    sorted element indices).

    {0} is closed under H v <x>, one distinct cyclic subgroup <x> at a time,
    skipping those already inside H.  Every subgroup is a join of cyclic
    subgroups, so every one is reached.  A join walks the cosets H + kx until
    kx lies in H, so it costs |H v <x>| table lookups.
    """
    table = _addition_table(group)
    zero = group.elements.index(group.zero)
    cyclic = {}
    for x in range(len(table)):
        mask, kx = 1 << zero, x
        while kx != zero:
            mask |= 1 << kx
            kx = table[kx][x]
        cyclic.setdefault(mask, x)
    members = {1 << zero: [zero]}
    frontier = [1 << zero]
    while frontier:
        h = frontier.pop()
        inside = members[h]
        for c, x in cyclic.items():
            if not c & ~h:
                continue
            joined, kx = h, x
            while not h >> kx & 1:
                coset = table[kx]
                for e in inside:
                    joined |= 1 << coset[e]
                kx = coset[x]
            if joined not in members:
                members[joined] = list(_iter_bits(joined))
                frontier.append(joined)
    return sorted(members, key=lambda m: (len(members[m]), members[m]))


def _subgroup_labels(group, subgroups):
    by_order = {}
    for s in subgroups:
        by_order.setdefault(len(s), []).append(s)
    labels = []
    for s in subgroups:
        if len(s) == 1:
            labels.append("0")
        elif len(s) == group.order:
            labels.append("G")
        else:
            peers = by_order[len(s)]
            if len(peers) == 1:
                labels.append(f"H{len(s)}")
            else:
                k = peers.index(s)
                suffix = "abcdefghijklmnopqrstuvwxyz"[k] if k < 26 else f"_{k}"
                labels.append(f"H{len(s)}{suffix}")
    return tuple(labels)


@dataclass(frozen=True)
class SubgroupLattice:
    """All subgroups of a group, ordered by inclusion.

    ``subgroups`` holds each subgroup as a frozenset of elements, sorted by
    order and then by sorted element indices; element ``i`` of ``lattice`` is
    ``subgroups[i]``.  Meet is intersection and join the generated subgroup
    (subgroup lattices of abelian groups are modular).  The general
    bounded-lattice construction verifies the inclusion order and reads both
    tables off it, since the meet of H and K is the subgroup whose down-set
    is the intersection of theirs, and dually for joins.
    """

    group: object
    subgroups: tuple
    lattice: BoundedLattice


def subgroup_lattice(group, max_order=MAX_GROUP_ORDER):
    """Enumerate every subgroup as a bitmask closed over the cyclic subgroups,
    and assemble the inclusion lattice from mask inclusion."""
    TooLarge.check("group order", group.order, max_order)
    masks = _subgroup_masks(group)
    elements = group.elements
    subgroups = tuple(frozenset(elements[k] for k in _iter_bits(m)) for m in masks)
    labels = _subgroup_labels(group, subgroups)
    n = len(masks)
    # Sorted by order, so a subgroup can only lie inside itself or later ones.
    up = tuple(
        sum(1 << j for j in range(i, n) if not masks[i] & ~masks[j])
        for i in range(n)
    )
    lattice = as_bounded_lattice(FinitePoset(labels, up))
    return SubgroupLattice(group, subgroups, lattice)


def coprimary_game(group, sl=None):
    """The game on the subgroup lattice paying Ass(N2/N1) on each pair.

    Values are finite subsets of the primes dividing the group order, totally
    ordered by the max-first Lex' order (its completion is trivial here since
    the base is finite).  Ass(N2/N1) is the set of primes dividing the index.
    """
    if sl is None:
        sl = subgroup_lattice(group)
    primes = sorted(_prime_factors(group.order))
    payoff = {
        (i, j): _index_primes(sl.subgroups, i, j)
        for i, j in sl.lattice.strict_pairs()
    }
    return Game(sl.lattice, PrimeFinsets(primes), payoff)


@dataclass(frozen=True)
class CoprimaryReport:
    """Canonical coprimary filtration of a group with its verifications.

    ``step_primes[i]`` is the unique associated prime of the i-th quotient;
    ``valid`` requires the underlying filtration report to pass, every
    quotient to be coprimary, the primes to strictly decrease, and their set
    to equal Ass of the whole group.
    """

    subgroup_lattice: SubgroupLattice
    hn_report: object
    step_labels: tuple
    step_primes: tuple
    quotients_coprimary: tuple
    primes_strictly_decreasing: bool
    ass_matches_step_primes: bool
    valid: bool


def coprimary_filtration(group, max_order=MAX_GROUP_ORDER):
    """Canonical filtration of the coprimary game, with coprimarity checks."""
    sl = subgroup_lattice(group, max_order=max_order)
    game = coprimary_game(group, sl)
    report = canonical_hn_filtration(game)
    steps = report.filtration.steps
    primes, coprimary = [], []
    for step in zip(steps, steps[1:]):
        ass = game.payoff[step]
        coprimary.append(len(ass) == 1)
        primes.append(min(ass))
    decreasing = all(p > q for p, q in zip(primes, primes[1:]))
    ass_match = frozenset(primes) == _prime_factors(group.order)
    return CoprimaryReport(
        subgroup_lattice=sl,
        hn_report=report,
        step_labels=report.filtration.labels(sl.lattice),
        step_primes=tuple(primes),
        quotients_coprimary=tuple(coprimary),
        primes_strictly_decreasing=decreasing,
        ass_matches_step_primes=ass_match,
        valid=report.valid
        and all(coprimary)
        and decreasing
        and ass_match,
    )


def enumerate_coprimary_filtrations(sl):
    """All chains 0 = N_0 < ... < N_n = G whose quotients are coprimary with
    strictly decreasing primes, each with its step primes.

    The search prunes by the defining conditions themselves, so the result
    is exactly the set of coprimary filtrations; the uniqueness statement
    says it is a singleton.  Ass of each step is read from the index.
    """
    l = sl.lattice

    def step_prime(lo, hi):
        """The single associated prime of hi/lo, or None if not coprimary."""
        ass = _index_primes(sl.subgroups, lo, hi)
        return min(ass) if len(ass) == 1 else None

    def step_ok(chain, nxt):
        p = step_prime(chain[-1], nxt)
        return p is not None and (
            len(chain) == 1 or step_prime(chain[-2], chain[-1]) > p
        )

    return [
        (steps, tuple(step_prime(*step) for step in zip(steps, steps[1:])))
        for steps in iter_chains(l, l.bot, l.top, step_ok)
    ]


def iter_invariant_factor_groups(max_order, max_factors=3):
    """All abelian groups of order <= max_order with at most ``max_factors``
    invariant factors d_1 | d_2 | ..., one representative per isomorphism
    class."""
    out = []
    stack = [((), 1)]
    while stack:
        factors, product = stack.pop()
        if len(factors) == max_factors:
            continue
        step = factors[-1] if factors else 1
        for d in range(max(step, 2), max_order // product + 1, step):
            out.append(factors + (d,))
            stack.append((factors + (d,), product * d))
    return [FiniteAbelianGroup(f) for f in sorted(out)]
