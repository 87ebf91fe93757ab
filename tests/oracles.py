"""Independent brute-force evaluators used as test oracles.

These deliberately avoid the production table engine: each quantity is
recomputed per pair by looping over lattice elements and building the witness
set literally from its definition.  They stay slow and obvious on purpose.
The group references build a quotient N2/N1 as explicit cosets and read its
associated primes off the element orders, where the library reads them off
the index.  Nothing here imports from ``hngame`` except ``hngame.errors``.
"""

from fractions import Fraction
from math import gcd

from hngame.errors import HNGameError, NoBounds, NotALattice, TrivialLattice


class NotAntitone(HNGameError):
    """A sequence expected to be weakly decreasing is not."""


class MissingBottom(HNGameError):
    """A compressible sequence never reaches the least element."""


class TrivialModule(HNGameError):
    """Associated primes requested for a group of order one."""


def mu_max_oracle(g, x, y):
    l = g.lattice
    witnesses = [g.payoff[(x, w)] for w in l.elements() if l.lt(x, w) and l.le(w, y)]
    return g.values.sup(witnesses)


def mu_min_oracle(g, x, y):
    l = g.lattice
    witnesses = [g.payoff[(w, y)] for w in l.elements() if l.le(x, w) and l.lt(w, y)]
    return g.values.inf(witnesses)


def mu_a_oracle(g, x, y):
    l = g.lattice
    witnesses = [
        mu_max_oracle(g, a, y) for a in l.elements() if l.le(x, a) and l.lt(a, y)
    ]
    return g.values.inf(witnesses)


def mu_b_oracle(g, x, y):
    l = g.lattice
    witnesses = [
        mu_min_oracle(g, x, b) for b in l.elements() if l.lt(x, b) and l.le(b, y)
    ]
    return g.values.sup(witnesses)


def semistable_oracle(g):
    l = g.lattice
    ref = mu_a_oracle(g, l.bot, l.top)
    for x in l.elements():
        if x == l.bot:
            continue
        if g.values.gt(mu_a_oracle(g, l.bot, x), ref):
            return False
    return True


def convexity_oracle(g, require_equal):
    """Convexity (affinity when ``require_equal``) by the value methods:
    mu(x ^ y, x) <= mu(y, x v y), or ==, whenever x is not below y."""
    l = g.lattice
    for x in l.elements():
        for y in l.elements():
            if l.le(x, y):
                continue
            left = g.payoff[(l.meet[x][y], x)]
            right = g.payoff[(y, l.join[x][y])]
            if require_equal:
                if left != right:
                    return False
            elif not g.values.leq(left, right):
                return False
    return True


def slope_like_oracle(g):
    """The four disjunctions of the slope-like condition on every chain
    x < y < z, by the value methods."""
    l = g.lattice
    leq, lt = g.values.leq, g.values.lt
    for x in l.elements():
        for y in l.elements():
            for z in l.elements():
                if not (l.lt(x, y) and l.lt(y, z)):
                    continue
                vxy, vxz, vyz = g.payoff[(x, y)], g.payoff[(x, z)], g.payoff[(y, z)]
                if not (leq(vxy, vxz) or lt(vyz, vxz)):
                    return False
                if not (lt(vxy, vxz) or leq(vyz, vxz)):
                    return False
                if not (lt(vxz, vxy) or leq(vxz, vyz)):
                    return False
                if not (leq(vxz, vxy) or lt(vxz, vyz)):
                    return False
    return True


def _strictly_inside(l, lo, hi):
    return [x for x in l.elements() if l.lt(lo, x) and l.lt(x, hi)]


def interval_semistable_oracle(g, lo, hi):
    """No x with lo < x < hi has mu_a(lo, x) strictly above mu_a(lo, hi)."""
    ref = mu_a_oracle(g, lo, hi)
    inside = _strictly_inside(g.lattice, lo, hi)
    return not any(g.values.gt(mu_a_oracle(g, lo, x), ref) for x in inside)


def interval_stable_oracle(g, lo, hi):
    """Semistable on [lo, hi], and no lo < x < hi ties mu_a(lo, hi)."""
    ref = mu_a_oracle(g, lo, hi)
    return interval_semistable_oracle(g, lo, hi) and all(
        mu_a_oracle(g, lo, x) != ref for x in _strictly_inside(g.lattice, lo, hi)
    )


def st_set_on_oracle(g, lo, hi):
    """x in (lo, hi] with no y in (lo, hi] strictly above it in mu_a(lo, -),
    and every y tying it below x."""
    l = g.lattice
    members = [x for x in l.elements() if l.lt(lo, x) and l.le(x, hi)]
    mu = {x: mu_a_oracle(g, lo, x) for x in members}
    return frozenset(
        x
        for x in members
        if not any(
            g.values.gt(mu[y], mu[x]) or (mu[y] == mu[x] and not l.le(y, x))
            for y in members
        )
    )


def hn_filtrations_oracle(g):
    """Every bot-to-top chain whose steps are semistable and whose step values
    satisfy not(mu_a_i <= mu_a_{i+1}), with its step values."""
    out = []
    for chain in all_bot_top_chains(g.lattice):
        steps = list(zip(chain, chain[1:]))
        mu = [mu_a_oracle(g, a, b) for a, b in steps]
        if all(interval_semistable_oracle(g, a, b) for a, b in steps) and not any(
            g.values.leq(u, v) for u, v in zip(mu, mu[1:])
        ):
            out.append((chain, tuple(mu)))
    return out


def jh_filtrations_oracle(g):
    """Every top-to-bot chain whose steps pay mu(bot, top) and beat every
    intermediate deviation strictly, as a set of tuples."""
    l = g.lattice
    total = g.payoff[(l.bot, l.top)]

    def step_ok(lo, hi):
        return g.payoff[(lo, hi)] == total and all(
            g.values.lt(g.payoff[(lo, z)], total) for z in _strictly_inside(l, lo, hi)
        )

    return {
        chain[::-1]
        for chain in all_bot_top_chains(l)
        if all(step_ok(lo, hi) for lo, hi in zip(chain, chain[1:]))
    }


def upper_bounds_oracle(p, members):
    return {x for x in p.elements() if all(p.le(a, x) for a in members)}


def lower_bounds_oracle(p, members):
    return {x for x in p.elements() if all(p.le(x, a) for a in members)}


def closure_oracle(p, members):
    return lower_bounds_oracle(p, upper_bounds_oracle(p, members))


def lattice_tables_oracle(p):
    """Bot, top and the meet/join tables of a poset, each bound found by
    scanning the common lower (upper) bounds for one that lies above (below)
    all of them.  Pairs are taken row by row, the glb before the lub, and
    the errors are those of ``as_bounded_lattice``."""
    n = p.n
    full = (1 << n) - 1
    bots = [i for i in range(n) if p.up[i] == full]
    tops = [j for j in range(n) if p.down[j] == full]
    if not bots or not tops:
        raise NoBounds("poset has no global least or greatest element")
    if bots[0] == tops[0]:
        raise TrivialLattice("least and greatest elements coincide")
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lower = p.down[i] & p.down[j]
            glb = [z for z in range(n) if lower >> z & 1 and not lower & ~p.down[z]]
            if not glb:
                raise NotALattice(p.names[i], p.names[j], "greatest lower bound")
            upper = p.up[i] & p.up[j]
            lub = [z for z in range(n) if upper >> z & 1 and not upper & ~p.up[z]]
            if not lub:
                raise NotALattice(p.names[i], p.names[j], "least upper bound")
            meet[i][j] = meet[j][i] = glb[0]
            join[i][j] = join[j][i] = lub[0]
    return bots[0], tops[0], tuple(map(tuple, meet)), tuple(map(tuple, join))


def lex_key_oracle(base, subset):
    """The Lex' sort key spelled out: base positions in decreasing order,
    compared as tuples (a proper prefix is smaller)."""
    return tuple(sorted((list(base).index(x) for x in subset), reverse=True))


def compress_antitone(lattice, seq, pred=None):
    """Extract the strictly decreasing subsequence of an antitone sequence.

    ``seq`` must start at top, be weakly decreasing, and reach bot; the output
    keeps the first element of each constant run up to the first bot, so it is
    a strict top-to-bot chain containing every value of the input.  When
    ``pred`` is given it must hold on every strict consecutive input pair, and
    it then holds on every consecutive output pair (those pairs were adjacent
    in the input).
    """
    seq = list(seq)
    if not seq or seq[0] != lattice.top:
        raise NotAntitone("sequence must start at the top element")
    for a, b in zip(seq, seq[1:]):
        if not lattice.le(b, a):
            raise NotAntitone(
                f"{lattice.names[b]} does not sit below {lattice.names[a]}"
            )
        if pred is not None and b != a and not pred(b, a):
            raise ValueError("predicate fails on a strict consecutive input pair")
    if lattice.bot not in seq:
        raise MissingBottom("sequence never reaches the bottom element")
    out = [seq[0]]
    for b in seq[1:]:
        if b != out[-1]:
            out.append(b)
        if b == lattice.bot:
            break
    return out


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def prime_divisors(n):
    return {p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))}


def slope_oracle(rank, degree):
    """Literal slope: degree/rank with +inf at rank zero."""
    if rank == 0:
        return float("inf")
    return Fraction(degree) / Fraction(rank)


def all_bot_top_chains(lattice):
    """Every strictly increasing chain from bot to top, as tuples."""
    out = []

    def extend(chain):
        cur = chain[-1]
        if cur == lattice.top:
            out.append(tuple(chain))
            return
        for nxt in lattice.elements():
            if lattice.lt(cur, nxt):
                extend(chain + [nxt])

    extend([lattice.bot])
    return out


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


def all_subgroups_oracle(group):
    """Every subgroup, by closing {0} under adding one element at a time.

    Sorted by (order, sorted element indices), as frozensets of elements.
    """
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
    index = {e: k for k, e in enumerate(group.elements)}
    return sorted(seen, key=lambda s: (len(s), sorted(index[e] for e in s)))


def zm_zn_subgroup_count(m, n):
    """Subgroups of Z/m x Z/n: the sum of gcd(a, b) over a | m and b | n
    (Hampejs, Holighaus, Toth and Wiesmeyr, arXiv:1211.1797)."""
    return sum(gcd(a, b) for a in divisors(m) for b in divisors(n))


def gaussian_binomial(k, j, q):
    """Subspaces of dimension j in a k-dimensional space over GF(q)."""
    num = den = 1
    for i in range(j):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def elementary_abelian_subgroup_count(p, k):
    """Subgroups of (Z/p)^k: the subspaces of GF(p)^k of every dimension."""
    return sum(gaussian_binomial(k, j, p) for j in range(k + 1))


class QuotientGroup:
    """The quotient N2/N1 of two nested subgroups, as explicit cosets.

    Elements are frozensets of ambient elements, listed in the order of their
    least ambient element; addition goes through those least representatives.
    """

    def __init__(self, parent, upper, lower):
        if not lower <= upper:
            raise ValueError("lower subgroup must be contained in the upper one")
        cosets = []
        elem_to_coset = {}
        for x in sorted(upper):
            if x in elem_to_coset:
                continue
            coset = frozenset(parent.add(x, n) for n in lower)
            cosets.append(coset)
            for y in coset:
                elem_to_coset[y] = coset
        self.parent = parent
        self.elements = tuple(cosets)
        self.order = len(cosets)
        self.zero = elem_to_coset[parent.zero]
        self._elem_to_coset = elem_to_coset
        self._rep = {c: min(c) for c in cosets}

    def add(self, a, b):
        return self._elem_to_coset[self.parent.add(self._rep[a], self._rep[b])]

    def __repr__(self):
        return f"QuotientGroup(order={self.order})"


def quotient(sl, upper, lower):
    """The quotient of subgroup ``upper`` by subgroup ``lower`` (indices into
    ``sl.subgroups``)."""
    return QuotientGroup(sl.group, sl.subgroups[upper], sl.subgroups[lower])


def element_order(group, x):
    """The least k >= 1 with k * x = 0, by repeated addition."""
    acc, k = x, 1
    while acc != group.zero:
        acc = group.add(acc, x)
        k += 1
    return k


def associated_primes(group):
    """Primes p such that the group has an element of order p: the primes of
    the element orders, walked element by element."""
    if group.order == 1:
        raise TrivialModule("the trivial group has no associated primes")
    primes = set()
    for e in group.elements:
        primes |= prime_divisors(element_order(group, e))
    return frozenset(primes)
