"""Independent brute-force evaluators used as test oracles.

These deliberately avoid the production table engine: each quantity is
recomputed per pair by looping over lattice elements and building the witness
set literally from its definition.  They stay slow and obvious on purpose.
"""

from fractions import Fraction
from math import gcd

from hngame.errors import NoBounds, NotALattice, TrivialLattice


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
