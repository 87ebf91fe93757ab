"""Coprimary filtrations of finite abelian groups.

A finite abelian group is a finitely generated module over the integers; its
submodules are its subgroups, its associated primes are the primes dividing
its order, and the payoff N1 < N2 |-> Ass(N2/N1) over the Lex'-ordered
finite subsets of primes is a game whose canonical filtration is the unique
coprimary filtration.  Quotients are materialized as explicit coset groups so
associated primes come from actual element orders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .errors import TooLarge, TrivialModule
from .filtration import canonical_hn_filtration
from .game import Game, interval_semistable, is_semistable
from .order import BoundedLattice, FinitePoset, as_bounded_lattice, iter_chains
from .values import PrimeFinsets

MAX_GROUP_ORDER = 200
MAX_RESTRICTION_SUBGROUPS = 128


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
    return out


class FiniteAbelianGroup:
    """Product of cyclic groups of the given orders (each at least 2)."""

    def __init__(self, cyclic_orders):
        orders = tuple(int(k) for k in cyclic_orders)
        if not orders or any(k < 2 for k in orders):
            raise ValueError("cyclic orders must all be at least 2")
        self.cyclic_orders = orders
        self.elements = tuple(itertools.product(*(range(k) for k in orders)))
        self.zero = (0,) * len(orders)

    @property
    def order(self):
        return len(self.elements)

    def add(self, a, b):
        return tuple((x + y) % k for x, y, k in zip(a, b, self.cyclic_orders))

    def element_order(self, a):
        out = 1
        for x, k in zip(a, self.cyclic_orders):
            o = k // gcd(k, x) if x else 1
            out = out * o // gcd(out, o)
        return out

    def element_key(self, a):
        return a

    def __repr__(self):
        return f"FiniteAbelianGroup({list(self.cyclic_orders)!r})"


class QuotientGroup:
    """The quotient N2/N1 of two nested subgroups, as explicit cosets.

    Elements are frozensets of ambient elements; addition goes through coset
    representatives, and element orders are computed honestly as the least k
    with k * rep landing in N1.
    """

    def __init__(self, parent, upper, lower):
        if not lower <= upper:
            raise ValueError("lower subgroup must be contained in the upper one")
        self.parent = parent
        self.lower = lower
        cosets = []
        elem_to_coset = {}
        for x in sorted(upper, key=parent.element_key):
            if x in elem_to_coset:
                continue
            coset = frozenset(parent.add(x, n) for n in lower)
            cosets.append(coset)
            for y in coset:
                elem_to_coset[y] = coset
        self.elements = tuple(cosets)
        self.zero = elem_to_coset[next(iter(lower))]
        self._elem_to_coset = elem_to_coset
        self._rep = {c: min(c, key=parent.element_key) for c in cosets}

    @property
    def order(self):
        return len(self.elements)

    def add(self, a, b):
        return self._elem_to_coset[self.parent.add(self._rep[a], self._rep[b])]

    def element_order(self, a):
        rep = self._rep[a]
        acc = rep
        k = 1
        while acc not in self.lower:
            acc = self.parent.add(acc, rep)
            k += 1
        return k

    def element_key(self, a):
        return tuple(sorted(a))

    def __repr__(self):
        return f"QuotientGroup(order={self.order})"


def associated_primes(group):
    """Primes p such that the group has an element of order p.

    For a finite abelian group these are exactly the primes dividing the
    order; the computation still walks element orders so quotients are
    handled by their actual structure rather than index arithmetic.
    """
    if group.order == 1:
        raise TrivialModule("the trivial group has no associated primes")
    primes = set()
    for e in group.elements:
        primes |= _prime_factors(group.element_order(e))
    return frozenset(primes)


def _multiples(group, x):
    out = [group.zero]
    acc = x
    while acc != group.zero:
        out.append(acc)
        acc = group.add(acc, x)
    return out


def _extend_subgroup(group, subgroup, x):
    """The subgroup generated by an existing subgroup and one more element."""
    return frozenset(
        group.add(h, m) for h in subgroup for m in _multiples(group, x)
    )


def _all_subgroups(group):
    trivial = frozenset({group.zero})
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        current = frontier.pop()
        for x in group.elements:
            if x in current:
                continue
            bigger = _extend_subgroup(group, current, x)
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    return sorted(seen, key=lambda s: (len(s), sorted(s, key=group.element_key)))


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

    Meet is intersection and join the generated subgroup; both are realized
    through the verified bounded-lattice construction over the inclusion
    order (subgroup lattices of abelian groups are complete and modular).
    """

    group: object
    subgroups: tuple
    lattice: BoundedLattice

    def quotient(self, upper_index, lower_index):
        return QuotientGroup(
            self.group,
            self.subgroups[upper_index],
            self.subgroups[lower_index],
        )


def subgroup_lattice(group, max_order=MAX_GROUP_ORDER):
    """Enumerate every subgroup and assemble the inclusion lattice."""
    if group.order > max_order:
        raise TooLarge(
            f"group has order {group.order}; guard is {max_order} "
            "(raise max_order to override)"
        )
    subgroups = tuple(_all_subgroups(group))
    labels = _subgroup_labels(group, subgroups)
    n = len(subgroups)
    up = tuple(
        sum(1 << j for j in range(n) if subgroups[i] <= subgroups[j])
        for i in range(n)
    )
    lattice = as_bounded_lattice(FinitePoset(labels, up))
    return SubgroupLattice(group, subgroups, lattice)


def coprimary_game(group, sl=None):
    """The game on the subgroup lattice paying Ass(N2/N1) on each pair.

    Values are finite subsets of the primes dividing the group order, totally
    ordered by the max-first Lex' order (its completion is trivial here since
    the base is finite).
    """
    if sl is None:
        sl = subgroup_lattice(group)
    primes = sorted(associated_primes(group))
    payoff = {}
    for i, j in sl.lattice.strict_pairs():
        payoff[(i, j)] = associated_primes(sl.quotient(j, i))
    return Game(sl.lattice, PrimeFinsets(primes), payoff)


def mu_a_least_prime_check(group, game=None):
    """Whether mu_a of every strict pair is the singleton of the least prime
    of that pair's payoff."""
    if game is None:
        game = coprimary_game(group)
    t = game.tables()
    for pair, ass in game.payoff.items():
        if t.mu_a[pair] != frozenset({min(ass)}):
            return False
    return True


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
    for lo, hi in zip(steps, steps[1:]):
        ass = associated_primes(sl.quotient(hi, lo))
        coprimary.append(len(ass) == 1)
        primes.append(min(ass))
    decreasing = all(p > q for p, q in zip(primes, primes[1:]))
    ass_match = frozenset(primes) == associated_primes(group)
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
    says it is a singleton.  Each pair's quotient is built at most once.
    """
    l = sl.lattice
    prime = {}

    def step_prime(lo, hi):
        """The single associated prime of hi/lo, or None if not coprimary."""
        if (lo, hi) not in prime:
            ass = associated_primes(sl.quotient(hi, lo))
            prime[(lo, hi)] = min(ass) if len(ass) == 1 else None
        return prime[(lo, hi)]

    def step_ok(chain, nxt):
        p = step_prime(chain[-1], nxt)
        return p is not None and (
            len(chain) == 1 or prime[(chain[-2], chain[-1])] > p
        )

    return [
        (steps, tuple(prime[step] for step in zip(steps, steps[1:])))
        for steps in iter_chains(l, l.bot, l.top, step_ok)
    ]


def semistable_restriction_check(group, max_subgroups=MAX_RESTRICTION_SUBGROUPS):
    """Verify on all strict pairs that semistability of the restricted game
    agrees with semistability of the quotient's own coprimary game."""
    sl = subgroup_lattice(group)
    if sl.lattice.n > max_subgroups:
        raise TooLarge(
            f"subgroup lattice has {sl.lattice.n} elements; guard is "
            f"{max_subgroups}"
        )
    game = coprimary_game(group, sl)
    for i, j in sl.lattice.strict_pairs():
        lhs = interval_semistable(game, i, j)
        rhs = is_semistable(coprimary_game(sl.quotient(j, i)))
        if lhs != rhs:
            return False
    return True


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
