"""Independent brute-force evaluators used as test oracles.

These deliberately avoid the production table engine: each quantity is
recomputed per pair by looping over lattice elements and building the witness
set literally from its definition.  They stay slow and obvious on purpose.
Values are compared by :func:`value_order_oracle`, an order built from the
definition of each value kind, never by the library's codes.
The group references build a quotient N2/N1 as explicit cosets and read its
associated primes off the element orders, where the library reads them off
the index.  The poset classes come from canonicalizing every triangular
relation, where the library generates lattice classes by coatom extension.
Nothing here imports from ``hngame`` except ``hngame.errors``.
"""

import functools
import itertools
import weakref
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from hngame.errors import (
    CycleError,
    HNGameError,
    NegativeRank,
    NoBounds,
    NotALattice,
    TrivialLattice,
    ZeroRankNonpositiveDegree,
)


class NotAntitone(HNGameError):
    """A sequence expected to be weakly decreasing is not."""


class MissingBottom(HNGameError):
    """A compressible sequence never reaches the least element."""


class TrivialModule(HNGameError):
    """Associated primes requested for a group of order one."""


_VALUE_ORDERS = {}


def value_order_oracle(values):
    """The order of a value lattice, built from the definition of its kind.

    ``leq`` and ``lt`` compare two values; ``sup`` and ``inf`` fold a finite
    list, the empty sup being bot and the empty inf top.  The kind is read
    off the value lattice's data attributes, and none of its methods is
    called: a dual (``inner``) swaps the order of the lattice it dualizes,
    extended rationals compare exactly, prime sets by
    :func:`lex_key_oracle`, and explicit lattice values, chains among them,
    by the up-sets of their lattice, with sup and inf folding the tables of
    :func:`lattice_tables_oracle`.  Cached per value lattice
    object for as long as it lives.
    """
    order = _VALUE_ORDERS.get(id(values))
    if order is None:
        order = _VALUE_ORDERS[id(values)] = _build_value_order(values)
        weakref.finalize(values, _VALUE_ORDERS.pop, id(values), None)
    return order


def _build_value_order(values):
    inner = getattr(values, "inner", None)
    if inner is not None:
        order = value_order_oracle(inner)
        return SimpleNamespace(
            leq=lambda a, b: order.leq(b, a),
            lt=lambda a, b: order.lt(b, a),
            sup=order.inf,
            inf=order.sup,
        )
    if values.kind == "extended_rational":
        return _total_order(lambda v: v, float("-inf"), float("inf"))
    if values.kind == "prime_finsets":
        base = sorted(values.primes)
        return _total_order(
            lambda v: lex_key_oracle(base, v), frozenset(), frozenset(base)
        )
    lattice = values.lattice
    bot, top, meet, join = lattice_tables_oracle(lattice)
    names, up = lattice.names, lattice.up
    index = {name: i for i, name in enumerate(names)}

    def leq(a, b):
        return bool(up[index[a]] >> index[b] & 1)

    def fold(table, start):
        return lambda vs: names[
            functools.reduce(lambda acc, v: table[acc][index[v]], vs, start)
        ]

    return SimpleNamespace(
        leq=leq,
        lt=lambda a, b: a != b and leq(a, b),
        sup=fold(join, bot),
        inf=fold(meet, top),
    )


def _total_order(key, bot, top):
    """The chain ordered by ``key``; sup and inf are its max and min."""
    return SimpleNamespace(
        leq=lambda a, b: key(a) <= key(b),
        lt=lambda a, b: key(a) < key(b),
        sup=lambda vs: max(vs, key=key, default=bot),
        inf=lambda vs: min(vs, key=key, default=top),
    )


def mu_max_oracle(g, x, y):
    l = g.lattice
    witnesses = [g.payoff[(x, w)] for w in l.elements() if l.lt(x, w) and l.le(w, y)]
    return value_order_oracle(g.values).sup(witnesses)


def mu_min_oracle(g, x, y):
    l = g.lattice
    witnesses = [g.payoff[(w, y)] for w in l.elements() if l.le(x, w) and l.lt(w, y)]
    return value_order_oracle(g.values).inf(witnesses)


def mu_a_oracle(g, x, y):
    l = g.lattice
    witnesses = [
        mu_max_oracle(g, a, y) for a in l.elements() if l.le(x, a) and l.lt(a, y)
    ]
    return value_order_oracle(g.values).inf(witnesses)


def mu_b_oracle(g, x, y):
    l = g.lattice
    witnesses = [
        mu_min_oracle(g, x, b) for b in l.elements() if l.lt(x, b) and l.le(b, y)
    ]
    return value_order_oracle(g.values).sup(witnesses)


def cover_recursion_oracle(g):
    """The four series as dicts over the strict pairs, by the Hasse-diagram
    recursion.

    Sups and infs are associative, so along the covers of ``covers()``:
    mu_max(x, y) = sup(mu(x, y), mu_max(x, c) : c a lower cover of y, x < c),
    mu_min(x, y) = inf(mu(x, y), mu_min(c, y) : c an upper cover of x, c < y),
    mu_a(x, y) = inf(mu_max(x, y), mu_a(c, y) : c an upper cover of x, c < y),
    mu_b(x, y) = sup(mu_min(x, y), mu_b(x, c) : c a lower cover of y, x < c),
    and all four equal the payoff on a cover.  Pairs are filled by interval
    size, so each comes after the pairs it reads.  Returns the tuple
    (mu_max, mu_min, mu_a, mu_b).
    """
    l = g.lattice
    pairs = l.strict_pairs()
    lower = {e: [] for e in l.elements()}
    upper = {e: [] for e in l.elements()}
    for a, b in l.covers():
        upper[a].append(b)
        lower[b].append(a)
    below = {(x, y): [(x, c) for c in lower[y] if l.lt(x, c)] for x, y in pairs}
    above = {(x, y): [(c, y) for c in upper[x] if l.lt(c, y)] for x, y in pairs}

    def size(pair):
        x, y = pair
        return sum(1 for z in l.elements() if l.le(x, z) and l.le(z, y))

    order = value_order_oracle(g.values)
    sup, inf = order.sup, order.inf
    tmax, tmin, ta, tb = {}, {}, {}, {}
    for p in sorted(pairs, key=size):
        v = g.payoff[p]
        tmax[p] = sup([v] + [tmax[q] for q in below[p]])
        tmin[p] = inf([v] + [tmin[q] for q in above[p]])
        ta[p] = inf([tmax[p]] + [ta[q] for q in above[p]])
        tb[p] = sup([tmin[p]] + [tb[q] for q in below[p]])
    return tmax, tmin, ta, tb


def semistable_oracle(g):
    l = g.lattice
    ref = mu_a_oracle(g, l.bot, l.top)
    lt = value_order_oracle(g.values).lt
    for x in l.elements():
        if x == l.bot:
            continue
        if lt(ref, mu_a_oracle(g, l.bot, x)):
            return False
    return True


def convexity_oracle(g, require_equal):
    """Convexity (affinity when ``require_equal``) by the oracle value
    order: mu(x ^ y, x) <= mu(y, x v y), or ==, whenever x is not below y."""
    l = g.lattice
    leq = value_order_oracle(g.values).leq
    for x in l.elements():
        for y in l.elements():
            if l.le(x, y):
                continue
            left = g.payoff[(l.meet[x][y], x)]
            right = g.payoff[(y, l.join[x][y])]
            if require_equal:
                if left != right:
                    return False
            elif not leq(left, right):
                return False
    return True


def slope_like_oracle(g):
    """The four disjunctions of the slope-like condition on every chain
    x < y < z, by the oracle value order."""
    l = g.lattice
    order = value_order_oracle(g.values)
    leq, lt = order.leq, order.lt
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


def seesaw_violation_oracle(g):
    """Whether some chain x < y < z is neither increasing
    (mu(x,y) < mu(x,z) < mu(y,z)), decreasing (mu(x,y) > mu(x,z) > mu(y,z))
    nor flat (all three equal), by the oracle value order."""
    l = g.lattice
    lt = value_order_oracle(g.values).lt
    for x in l.elements():
        for y in l.elements():
            for z in l.elements():
                if not (l.lt(x, y) and l.lt(y, z)):
                    continue
                vxy, vxz, vyz = g.payoff[(x, y)], g.payoff[(x, z)], g.payoff[(y, z)]
                increasing = lt(vxy, vxz) and lt(vxz, vyz)
                decreasing = lt(vxz, vxy) and lt(vyz, vxz)
                flat = vxy == vxz == vyz
                if not (increasing or decreasing or flat):
                    return True
    return False


def cover_step_slope_like_tables(n, k):
    """Every payoff table with values in range(k) on the chain
    0 < 1 < ... < n-1 whose chain triples x < y < z with a cover step
    (y = x + 1 or z = y + 1) pass the four disjunctions of the slope-like
    condition; the other triples are left unchecked.  Each table is a dict
    over the strict pairs (x, z), found by backtracking over the pairs by z
    and then x, so a triple is checked when its pair (y, z) is filled."""
    pairs = [(x, z) for z in range(n) for x in range(z)]
    table, found = {}, []

    def passes(a, b, c):
        return (
            (a <= b or c < b) and (a < b or c <= b)
            and (b < a or b <= c) and (b <= a or b < c)
        )

    def fill(i):
        if i == len(pairs):
            found.append(dict(table))
            return
        y, z = pairs[i]
        for v in range(k):
            table[(y, z)] = v
            if all(
                passes(table[(x, y)], table[(x, z)], v)
                for x in range(y)
                if x + 1 == y or y + 1 == z
            ):
                fill(i + 1)
        del table[(y, z)]

    fill(0)
    return found


def _strictly_inside(l, lo, hi):
    return [x for x in l.elements() if l.lt(lo, x) and l.lt(x, hi)]


def interval_semistable_oracle(g, lo, hi):
    """No x with lo < x < hi has mu_a(lo, x) strictly above mu_a(lo, hi)."""
    ref = mu_a_oracle(g, lo, hi)
    inside = _strictly_inside(g.lattice, lo, hi)
    lt = value_order_oracle(g.values).lt
    return not any(lt(ref, mu_a_oracle(g, lo, x)) for x in inside)


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
    lt = value_order_oracle(g.values).lt
    return frozenset(
        x
        for x in members
        if not any(
            lt(mu[x], mu[y]) or (mu[y] == mu[x] and not l.le(y, x))
            for y in members
        )
    )


def hn_filtrations_oracle(g):
    """Every bot-to-top chain whose steps are semistable and whose step values
    satisfy not(mu_a_i <= mu_a_{i+1}), with its step values."""
    out = []
    leq = value_order_oracle(g.values).leq
    for chain in all_bot_top_chains(g.lattice):
        steps = list(zip(chain, chain[1:]))
        mu = [mu_a_oracle(g, a, b) for a, b in steps]
        if all(interval_semistable_oracle(g, a, b) for a, b in steps) and not any(
            leq(u, v) for u, v in zip(mu, mu[1:])
        ):
            out.append((chain, tuple(mu)))
    return out


def jh_filtrations_oracle(g):
    """Every top-to-bot chain whose steps pay mu(bot, top) and beat every
    intermediate deviation strictly, as a set of tuples."""
    l = g.lattice
    total = g.payoff[(l.bot, l.top)]
    lt = value_order_oracle(g.values).lt

    def step_ok(lo, hi):
        return g.payoff[(lo, hi)] == total and all(
            lt(g.payoff[(lo, z)], total) for z in _strictly_inside(l, lo, hi)
        )

    return {
        chain[::-1]
        for chain in all_bot_top_chains(l)
        if all(step_ok(lo, hi) for lo, hi in zip(chain, chain[1:]))
    }


def relation_closure_oracle(names, relation_pairs):
    """The up-set masks of the reflexive-transitive closure of the pairs,
    by Warshall sweeps repeated until nothing changes.

    Elements are scanned by index and each up-set by index: the first
    element i with some j != i in its closure that also reaches back to i
    raises the :class:`CycleError` the library raises for it.
    """
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    up = [1 << i for i in range(n)]
    for a, b in relation_pairs:
        up[index[a]] |= 1 << index[b]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in range(n):
                if acc >> j & 1:
                    acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in range(n):
            if i != j and up[i] >> j & 1 and up[j] >> i & 1:
                raise CycleError(
                    f"pairs force {names[i]} <= {names[j]} and {names[j]} <= {names[i]}"
                )
    return tuple(up)


def down_sets_oracle(up):
    """The down-set masks transposed from the up-set masks."""
    n = len(up)
    return tuple(
        sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)
    )


def covers_oracle(p):
    """Cover pairs (i, j), by i and then j: i < j with no z strictly between,
    testing every strict pair against every element."""
    return [
        (i, j)
        for i in p.elements()
        for j in p.elements()
        if p.lt(i, j) and not any(p.lt(i, z) and p.lt(z, j) for z in p.elements())
    ]


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


def modular_oracle(l):
    """Modularity by its definition: x <= z implies
    x v (y ^ z) == (x v y) ^ z, for every triple, read off the lattice's
    meet/join tables."""
    meet, join = l.meet, l.join
    for x in range(l.n):
        for z in range(l.n):
            if not l.up[x] >> z & 1:
                continue
            for y in range(l.n):
                if join[x][meet[y][z]] != meet[join[x][y]][z]:
                    return False
    return True


def _triangular_posets(n):
    """All posets on indices 0..n-1 whose identity order is a linear
    extension (le[i][j] implies i <= j), as up-set tuples."""
    if n == 0:
        return
    strict_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in itertools.product((0, 1), repeat=len(strict_pairs)):
        up = [1 << i for i in range(n)]
        for (i, j), b in zip(strict_pairs, bits):
            if b:
                up[i] |= 1 << j
        ok = True
        for i in range(n):
            acc = up[i]
            for j in range(n):
                if acc >> j & 1:
                    acc |= up[j]
            if acc != up[i]:
                ok = False
                break
        if ok:
            yield tuple(up)


def canonical_form_oracle(n, up):
    """Lexicographically least relation matrix over the relabelings that
    keep each element's (up-set size, down-set size) profile, with the
    profiles in increasing order."""
    down = down_sets_oracle(up)
    profile = [(bin(up[i]).count("1"), bin(down[i]).count("1")) for i in range(n)]
    blocks = [
        [i for i in range(n) if profile[i] == key] for key in sorted(set(profile))
    ]
    best = None
    for combo in itertools.product(*(itertools.permutations(b) for b in blocks)):
        perm = [0] * n
        for slot, e in enumerate(itertools.chain.from_iterable(combo)):
            perm[e] = slot
        rows = [0] * n
        for i in range(n):
            rows[perm[i]] = sum(1 << perm[j] for j in range(n) if up[i] >> j & 1)
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return best


_POSET_CLASS_CACHE = {}


def poset_iso_classes(n):
    """The canonical forms of all posets on exactly n elements, sorted: every
    poset has a linear extension, so canonicalizing every triangular
    relation visits each class."""
    cached = _POSET_CLASS_CACHE.get(n)
    if cached is None:
        cached = sorted({canonical_form_oracle(n, up) for up in _triangular_posets(n)})
        _POSET_CLASS_CACHE[n] = cached
    return cached


def lattice_classes_oracle(n):
    """(up, bot, top, meet, join) of each bounded-lattice class on n
    elements, in the order of :func:`poset_iso_classes`: the posets among
    them that :func:`lattice_tables_oracle` accepts."""
    out = []
    names = tuple(f"x{i}" for i in range(n))
    for up in poset_iso_classes(n):
        p = SimpleNamespace(n=n, names=names, up=up, down=down_sets_oracle(up))
        try:
            out.append((up,) + lattice_tables_oracle(p))
        except (NoBounds, NotALattice, TrivialLattice):
            continue
    return out


def lex_key_oracle(base, subset):
    """The Lex' sort key spelled out: base positions in decreasing order,
    compared as tuples (a proper prefix is smaller)."""
    return tuple(sorted((list(base).index(x) for x in subset), reverse=True))


def lex_ordered_subsets_oracle(base):
    """Every subset of the base, sorted by :func:`lex_key_oracle`."""
    subsets = [
        frozenset(c)
        for r in range(len(base) + 1)
        for c in itertools.combinations(base, r)
    ]
    return sorted(subsets, key=lambda s: lex_key_oracle(base, s))


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


def additivity_oracle(lattice, rank, degree):
    """Every chain triple x < y < z of ``lattice`` on which the table
    ``rank`` or ``degree``, keyed by index pairs, is not additive, as
    ``(table, x, y, z)`` with labels: the literal loop over all triples."""
    names = lattice.names
    n = len(names)
    failures = set()
    for x, y, z in itertools.product(range(n), repeat=3):
        if lattice.lt(x, y) and lattice.lt(y, z):
            for table, values in (("rank", rank), ("degree", degree)):
                if values[(x, z)] != values[(x, y)] + values[(y, z)]:
                    failures.add((table, names[x], names[y], names[z]))
    return failures


def exact_ranks_oracle(values):
    """The rank of each extended rational among the distinct values of the
    list, by one exact sort of that set (Fractions and the float infinities
    compare exactly); returns the ranks and the sorted distinct values."""
    distinct = sorted(set(values))
    rank = {v: k for k, v in enumerate(distinct)}
    return [rank[v] for v in values], distinct


def potential_payoff_oracle(lattice, rank_potential, degree_potential):
    """Literal quotient payoff of per-element potentials R, D keyed by label.

    For each pair x < y, taken with x, then y, ascending by index, the payoff
    is (D(y) - D(x)) / (R(y) - R(x)) in Fraction arithmetic, or +inf where the
    rank difference is zero.  The first pair with a negative rank difference,
    or a zero one with a nonpositive degree difference, raises the error the
    library raises for it.
    """
    names = lattice.names
    payoff = {}
    for x in range(len(names)):
        for y in range(len(names)):
            if not lattice.lt(x, y):
                continue
            rank = (
                Fraction(rank_potential[names[y]])
                - Fraction(rank_potential[names[x]])
            )
            if rank < 0:
                raise NegativeRank(
                    f"rank potential decreases along {names[x]} < {names[y]}"
                )
            degree = (
                Fraction(degree_potential[names[y]])
                - Fraction(degree_potential[names[x]])
            )
            if rank == 0 and degree <= 0:
                raise ZeroRankNonpositiveDegree(names[x], names[y])
            payoff[(x, y)] = slope_oracle(rank, degree)
    return payoff


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


def inclusion_order_oracle(subgroups):
    """Up-set masks of the subgroups under inclusion, testing every pair of
    element sets."""
    return tuple(
        sum(1 << j for j, k in enumerate(subgroups) if h <= k) for h in subgroups
    )


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
