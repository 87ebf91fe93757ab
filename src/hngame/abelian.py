"""Coprimary filtrations of finite abelian groups.

A finite abelian group is a finitely generated module over the integers; its
submodules are its subgroups, its associated primes are the primes dividing
its order, and the payoff N1 < N2 |-> Ass(N2/N1) over the Lex'-ordered
finite subsets of primes is a game whose canonical filtration is the unique
coprimary filtration.

Subgroups are bitmasks over element indices.  They are enumerated upward
from the trivial subgroup by their covers, the subgroups one prime index
above, through one index addition table per group, and the inclusion order
is closed from those covers.  Ass(N2/N1) is read from the index: by
Cauchy's theorem the primes of the quotient's element orders are exactly the
primes dividing |N2|/|N1|.  The explicit quotient N2/N1, built from cosets,
and the element-order computation of Ass are the test references for that
shortcut (``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import or_

from .errors import TooLarge
from .filtration import canonical_hn_filtration
from .game import Game
from .order import BoundedLattice, _iter_bits, build_poset, iter_chains
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


def _addition_table(group):
    """``table[i][j]`` is the index of ``elements[i] + elements[j]``.

    Row x is the translation by x.  The first element not yet reached
    becomes a generator g, and its row is the one computed by ``group.add``;
    every reached x then gives row(x + g) as row(g) composed with row(x),
    one ``map`` per row, so the reached set grows to the subgroup the
    generators so far generate.  A product of k cyclic groups takes k rows
    of additions.
    """
    elements = group.elements
    index = {e: k for k, e in enumerate(elements)}
    table = [None] * len(elements)
    zero = index[group.zero]
    table[zero] = list(range(len(elements)))
    reached = [zero]
    for g, a in enumerate(elements):
        if table[g] is not None:
            continue
        shift = [index[group.add(a, b)] for b in elements]
        step = shift.__getitem__
        for x in reached:
            y = shift[x]
            if table[y] is None:
                table[y] = list(map(step, table[x]))
                reached.append(y)
    return table


def _subgroup_masks(group):
    """Every subgroup as a bitmask over element indices, sorted by (order,
    sorted element indices), and the cover pairs (i, j) between them.

    K covers H exactly when K/H has prime order p, so K is H + <x> for any x
    outside H with p x in H: the preimage of H under x -> p x, a union of
    fiber masks.  For each H, in breadth-first order from {0}, a cover is
    built from the lowest such x as the union of the cosets H + kx, k < p,
    and its elements leave the candidates, so each cover is built once, at
    |K| table lookups.  Composition series reach every subgroup.
    """
    table = _addition_table(group)
    n = len(table)
    fibers = []
    for p in _prime_factors(n):
        px = list(range(n))
        for _ in range(p - 1):
            px = [row[k] for row, k in zip(table, px)]
        fiber = [0] * n
        for x, y in enumerate(px):
            fiber[y] |= 1 << x
        fibers.append(fiber)
    zero = group.elements.index(group.zero)
    members = {1 << zero: [zero]}
    queue, edges = [1 << zero], []
    for h in queue:
        inside = members[h]
        for fiber in fibers:
            rest = reduce(or_, map(fiber.__getitem__, inside)) & ~h
            while rest:
                x = (rest & -rest).bit_length() - 1
                k, kx = h, x
                while not h >> kx & 1:
                    coset = table[kx]
                    for e in inside:
                        k |= 1 << coset[e]
                    kx = coset[x]
                rest &= ~k
                if k not in members:
                    members[k] = list(_iter_bits(k))
                    queue.append(k)
                edges.append((h, k))
    masks = sorted(members, key=lambda m: (len(members[m]), members[m]))
    position = {m: i for i, m in enumerate(masks)}
    return masks, [(position[h], position[k]) for h, k in edges]


def _subgroup_labels(group, orders):
    """"0", "G", and H<order> for the rest, with a suffix a, b, ... (then
    _26, _27, ...) counting the peers of one order in sorted order."""
    peers, seen, labels = Counter(orders), Counter(), []
    for k in orders:
        if k == 1 or k == group.order:
            labels.append("0" if k == 1 else "G")
        elif peers[k] == 1:
            labels.append(f"H{k}")
        else:
            i, seen[k] = seen[k], seen[k] + 1
            suffix = "abcdefghijklmnopqrstuvwxyz"[i] if i < 26 else f"_{i}"
            labels.append(f"H{k}{suffix}")
    return tuple(labels)


@dataclass(frozen=True)
class SubgroupLattice:
    """All subgroups of a group, ordered by inclusion.

    ``subgroups`` holds each subgroup as a frozenset of elements, sorted by
    order and then by sorted element indices; element ``i`` of ``lattice`` is
    ``subgroups[i]``.  Meet is intersection and join the generated subgroup
    (subgroup lattices of abelian groups are modular).  The inclusion order
    is closed from the covers.  It is a lattice by construction, with the
    trivial subgroup first and the group last, so the lattice is made by
    the :class:`BoundedLattice` constructor without checking the lattice
    laws.  Its meet/join tables are built on the first read of either: the
    meet of H and K is the subgroup whose down-set is the intersection of
    theirs, and dually for joins.  A p-group's coprimary filtration never
    reads them.
    """

    group: object
    subgroups: tuple
    lattice: BoundedLattice


def subgroup_lattice(group, max_order=MAX_GROUP_ORDER):
    """Every subgroup as a bitmask with its covers, closed into a lattice
    from the trivial subgroup to the group, whose meet/join tables are
    built on first read."""
    TooLarge.check("group order", group.order, max_order)
    masks, covers = _subgroup_masks(group)
    elements = group.elements
    subgroups = tuple(frozenset(elements[k] for k in _iter_bits(m)) for m in masks)
    labels = _subgroup_labels(group, list(map(len, subgroups)))
    order = build_poset(labels, [(labels[i], labels[j]) for i, j in covers])
    lattice = BoundedLattice(order, 0, len(masks) - 1)
    return SubgroupLattice(group, subgroups, lattice)


def coprimary_game(group, sl=None):
    """The game on the subgroup lattice paying Ass(N2/N1) on each pair.

    Values are finite subsets of the primes dividing the group order, totally
    ordered by the max-first Lex' order (its completion is trivial here since
    the base is finite).  Ass(N2/N1) is the set of primes dividing the index;
    the game is built from its codes, the Lex' key of that set, computed
    once per distinct index.
    """
    if sl is None:
        sl = subgroup_lattice(group)
    values = PrimeFinsets(_prime_factors(group.order))
    orders = list(map(len, sl.subgroups))
    indices = [orders[j] // orders[i] for i, j in sl.lattice.strict_pairs()]
    ass = {k: _prime_factors(k) for k in set(indices)}
    code = {k: values.key(primes) for k, primes in ass.items()}
    decode = {code[k]: primes for k, primes in ass.items()}
    codes = list(map(code.__getitem__, indices))
    return Game._encoded(sl.lattice, values, (codes, decode))


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
        ass = game.mu(*step)
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
        """The single associated prime of hi/lo, or None if not coprimary;
        Ass(hi/lo) is the set of primes dividing the index, by Cauchy's
        theorem."""
        ass = _prime_factors(len(sl.subgroups[hi]) // len(sl.subgroups[lo]))
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
