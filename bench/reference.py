"""Independent reference computations the benchmark checks outputs against.

Nothing here imports hngame.  Each quantity is computed from its definition
or from a published count, so a wrong answer from the library cannot be
mirrored by a wrong reference:

- ``literal_series``: the four mu-series, straight from their definitions;
- ``hn_polygon``: the Harder-Narasimhan polygon of a rank/degree valuation on
  a divisor lattice D(m), i.e. per-prime upper concave hulls merged by
  decreasing slope;
- ``maximal_chain_count``: maximal chains of D(m), (sum e_p)! / prod e_p!;
- ``birkhoff_subgroup_count``: subgroups of a finite abelian group, by
  Birkhoff's formula for p-groups multiplied over primes (Butler 1994),
  cross-checked against the Z_m x Z_n count of Hampejs, Holighaus, Toth and
  Wiesmeyr (arXiv:1211.1797);
- ``LATTICE_CLASSES``: bounded lattices on n elements up to isomorphism,
  OEIS A006966;
- ``closed_set_count``: the Dedekind-MacNeille closed sets of a poset, as
  the intersections of principal down-sets.

``self_test()`` checks every one of them on small cases with a second,
brute-force computation or a known value.  Run it with
``python3 bench/reference.py``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, gcd, prod

# OEIS A006966: lattices on n unlabeled nodes, n = 1..7.
LATTICE_CLASSES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}


# ---------------------------------------------------------------- divisors

def factorize(m):
    """Prime factorization as an ordered {prime: exponent} dict."""
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def divisors(m):
    """Divisors of m in increasing order."""
    ds = [1]
    for p, e in factorize(m).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def valuation(d, p):
    k = 0
    while d % p == 0:
        d //= p
        k += 1
    return k


def maximal_chain_count(m):
    """Maximal chains of the divisor lattice D(m): a multinomial."""
    exps = factorize(m).values()
    return factorial(sum(exps)) // prod(factorial(e) for e in exps)


def big_omega(m):
    """Number of prime factors of m with multiplicity: the length of D(m)."""
    return sum(factorize(m).values())


# -------------------------------------------------------------- HN polygon

def _upper_hull(points):
    """Vertices of the upper concave hull of points sorted by x, with
    collinear interior points dropped."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # Drop the middle point unless it lies strictly above the chord.
            if (y2 - y1) * (pt[0] - x1) <= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def hn_polygon(increments):
    """Steps and slopes of the HN filtration of a valuation game on D(m).

    ``increments[p]`` lists the (rank, degree) increments of the chain of
    prime p, level by level, all ranks positive.  Each prime's upper hull of
    (cumulative rank, cumulative degree), starting at the origin, cuts its
    chain into segments of strictly decreasing slope.  The filtration takes
    all segments of equal slope together, from the steepest down.  Returns
    ``(steps, slopes)``: ``steps`` are exponent dicts {p: k} from all zeros to
    the top, and ``slopes[i]`` is the degree/rank of step i.
    """
    segments = []  # (slope, prime, level at the segment's end)
    for p, incs in increments.items():
        pts = [(Fraction(0), Fraction(0))]
        for r, d in incs:
            pts.append((pts[-1][0] + r, pts[-1][1] + d))
        hull = _upper_hull(pts)
        level = {pt: k for k, pt in enumerate(pts)}
        for a, b in zip(hull, hull[1:]):
            segments.append(((b[1] - a[1]) / (b[0] - a[0]), p, level[b]))
    reached = {p: 0 for p in increments}
    steps = [dict(reached)]
    slopes = []
    for s in sorted({seg[0] for seg in segments}, reverse=True):
        for slope, p, end in segments:
            if slope == s:
                reached[p] = max(reached[p], end)
        steps.append(dict(reached))
        slopes.append(s)
    return steps, slopes


# ------------------------------------------------------- literal mu-series

def literal_series(le, elements, payoff, sup, inf):
    """All four series at every strict pair, from their definitions.

    ``le(x, y)`` is the lattice order, ``payoff[(x, y)]`` the payoff on
    strict pairs, ``sup``/``inf`` fold finite lists of values.  Returns a
    dict (x, y) -> (mu_max, mu_min, mu_a, mu_b).
    """
    def lt(x, y):
        return x != y and le(x, y)

    pairs = [(x, y) for x in elements for y in elements if lt(x, y)]

    def mu_max(x, y):
        return sup([payoff[(x, w)] for w in elements if lt(x, w) and le(w, y)])

    def mu_min(x, y):
        return inf([payoff[(w, y)] for w in elements if le(x, w) and lt(w, y)])

    out = {}
    for x, y in pairs:
        mu_a = inf([mu_max(a, y) for a in elements if le(x, a) and lt(a, y)])
        mu_b = sup([mu_min(x, b) for b in elements if lt(x, b) and le(b, y)])
        out[(x, y)] = (mu_max(x, y), mu_min(x, y), mu_a, mu_b)
    return out


# --------------------------------------------------------- subgroup counts

def _gaussian_binomial(n, k, q):
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _conjugate(partition, length):
    return [sum(1 for part in partition if part >= i) for i in range(1, length + 2)]


def _subpartitions(lam):
    """Partitions mu with mu_i <= lam_i for all i (lam weakly decreasing)."""
    def rec(i, cap):
        if i == len(lam):
            yield ()
            return
        for part in range(min(lam[i], cap), -1, -1):
            for rest in rec(i + 1, part):
                yield (part,) + rest
    yield from rec(0, lam[0] if lam else 0)


def p_group_subgroup_count(lam, p):
    """Subgroups of the abelian p-group of type lam, by Birkhoff's formula.

    The subgroups of type mu number
    prod_i p^(mu'_{i+1} (lam'_i - mu'_i)) [lam'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p
    where ' is the conjugate partition; summing over mu inside lam gives all.
    """
    lam = sorted(lam, reverse=True)
    if not lam:
        return 1
    top = lam[0]
    lc = _conjugate(lam, top)
    total = 0
    for mu in _subpartitions(lam):
        mc = _conjugate([x for x in mu if x], top)
        term = 1
        for i in range(top):
            term *= p ** (mc[i + 1] * (lc[i] - mc[i]))
            term *= _gaussian_binomial(lc[i] - mc[i + 1], mc[i] - mc[i + 1], p)
        total += term
    return total


def birkhoff_subgroup_count(cyclic_orders):
    """Subgroups of Z/n1 x ... x Z/nk: the product over primes of the
    p-primary counts."""
    types = {}
    for n in cyclic_orders:
        for p, e in factorize(n).items():
            types.setdefault(p, []).append(e)
    return prod(p_group_subgroup_count(lam, p) for p, lam in types.items())


def hhtw_subgroup_count(m, n):
    """Subgroups of Z/m x Z/n: sum of gcd(a, b) over a | m, b | n
    (Hampejs, Holighaus, Toth, Wiesmeyr)."""
    return sum(gcd(a, b) for a in divisors(m) for b in divisors(n))


def invariant_factor_types(max_order, max_factors=3):
    """Invariant-factor lists d_1 | d_2 | ... of every abelian group with
    order <= max_order and at most ``max_factors`` factors, each >= 2."""
    out = []

    def extend(factors, order):
        if factors:
            out.append(tuple(factors))
        if len(factors) == max_factors:
            return
        d = factors[-1] if factors else 2
        while order * d <= max_order:
            if not factors or d % factors[-1] == 0:
                extend(factors + [d], order * d)
            d += 1

    extend([], 1)
    return sorted(out)


# ------------------------------------------------- Dedekind-MacNeille count

def closed_set_count(up, down):
    """Closed sets of the Dedekind-MacNeille completion of a poset.

    They are exactly the intersections of principal down-sets (the empty
    intersection being the whole set), so close the family under pairwise
    intersection.  ``up``/``down`` are per-element bitmasks.
    """
    n = len(down)
    family = {(1 << n) - 1}
    frontier = list(family)
    while frontier:
        nxt = []
        for s in frontier:
            for d in down:
                c = s & d
                if c not in family:
                    family.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(family)


# ---------------------------------------------------------------- self-test

def _brute_subgroups(orders):
    """Subgroups of a small product of cyclic groups by closure under sums."""
    elems = list(product(*(range(k) for k in orders)))

    def add(a, b):
        return tuple((x + y) % k for x, y, k in zip(a, b, orders))

    zero = tuple(0 for _ in orders)
    found = {frozenset([zero])}
    frontier = list(found)
    while frontier:
        nxt = []
        for h in frontier:
            for g in elems:
                if g in h:
                    continue
                grown = set(h)
                todo = [g]
                while todo:
                    x = todo.pop()
                    if x in grown:
                        continue
                    grown.add(x)
                    todo.extend(add(x, y) for y in list(grown))
                grown = frozenset(grown)
                if grown not in found:
                    found.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return len(found)


def _brute_maximal_chains(m):
    if m == 1:
        return 1
    return sum(_brute_maximal_chains(m // p) for p in factorize(m))


def _brute_closed_sets(up, down):
    n = len(up)
    full = (1 << n) - 1
    seen = set()
    for subset in range(1 << n):
        ub = full
        for a in range(n):
            if subset >> a & 1:
                ub &= up[a]
        lb = full
        for a in range(n):
            if ub >> a & 1:
                lb &= down[a]
        seen.add(lb)
    return len(seen)


def self_test():
    """Check each reference on small cases; raises AssertionError on a fault."""
    # Subgroup counts: Birkhoff against the Z_m x Z_n formula and brute force.
    for m in range(1, 13):
        for n in range(1, 13):
            orders = [k for k in (m, n) if k > 1]
            assert birkhoff_subgroup_count(orders) == hhtw_subgroup_count(m, n), (m, n)
    for orders in ([4, 2], [2, 2, 2], [2, 6], [3, 3], [2, 2, 4], [4, 4]):
        assert birkhoff_subgroup_count(orders) == _brute_subgroups(orders), orders
    assert birkhoff_subgroup_count([2] * 5) == 374
    assert birkhoff_subgroup_count([2] * 6) == 2825
    assert len(invariant_factor_types(64)) == 108
    assert len(invariant_factor_types(48)) == 77

    # Maximal chains of D(m) against a recursion over the last prime removed.
    for m in (1, 2, 12, 30, 64, 360, 2310):
        assert maximal_chain_count(m) == _brute_maximal_chains(m), m
        assert len(divisors(m)) == prod(e + 1 for e in factorize(m).values())

    # HN polygon: concave chains split at every level, convex ones not at all,
    # collinear levels merge, and equal slopes of two primes join one step.
    F = Fraction
    steps, slopes = hn_polygon({2: [(F(1), F(3)), (F(1), F(2)), (F(1), F(1))]})
    assert [s[2] for s in steps] == [0, 1, 2, 3] and slopes == [3, 2, 1]
    steps, slopes = hn_polygon({2: [(F(1), F(1)), (F(1), F(3))]})
    assert [s[2] for s in steps] == [0, 2] and slopes == [2]
    steps, slopes = hn_polygon({2: [(F(2), F(2)), (F(1), F(1)), (F(1), F(0))]})
    assert [s[2] for s in steps] == [0, 2, 3] and slopes == [1, 0]
    steps, slopes = hn_polygon(
        {2: [(F(1), F(2)), (F(1), F(0))], 3: [(F(2), F(4)), (F(1), F(-1))]}
    )
    assert steps == [{2: 0, 3: 0}, {2: 1, 3: 1}, {2: 2, 3: 1}, {2: 2, 3: 2}]
    assert slopes == [2, 0, -1]

    # Literal series on the 2x2 Boolean lattice with a known payoff.
    le = {(a, b) for a in range(4) for b in range(4)
          if a == b or a == 0 or b == 3}
    payoff = {(0, 1): 2, (0, 2): 0, (0, 3): 1, (1, 3): 0, (2, 3): 2}
    series = literal_series(lambda x, y: (x, y) in le, range(4), payoff, max, min)
    assert series[(0, 3)] == (2, 0, 0, 2)
    assert series[(0, 1)] == (2, 2, 2, 2)

    # Dedekind-MacNeille: intersections of down-sets against all 2^n closures.
    posets = [
        [0b0001, 0b0010, 0b0100, 0b1000],  # antichain of 4
        [0b1101, 0b1110, 0b0100, 0b1000],  # the crown on 4 elements
        [0b1111, 0b1110, 0b1100, 0b1000],  # a chain
    ]
    for up in posets:
        down = [sum(1 << i for i in range(len(up)) if up[i] >> j & 1)
                for j in range(len(up))]
        assert closed_set_count(up, down) == _brute_closed_sets(up, down)
    assert closed_set_count(posets[0], posets[0]) == 6

    # Lattice classes: the brute-force count of lattices on n <= 5 elements.
    for n in range(1, 6):
        assert _brute_lattice_classes(n) == LATTICE_CLASSES[n], n


def _brute_lattice_classes(n):
    """Lattices on n elements up to isomorphism, by testing every relation on
    0..n-1 that is a partial order with 0 least and n-1 greatest."""
    if n <= 2:
        return 1
    inner = list(combinations(range(1, n - 1), 2))
    seen = set()
    for bits in product((0, 1), repeat=len(inner)):
        le = {(i, i) for i in range(n)}
        le |= {(0, j) for j in range(n)} | {(i, n - 1) for i in range(n)}
        le |= {pair for pair, b in zip(inner, bits) if b}
        if any((a, c) not in le for a, b in le for b2, c in le if b == b2):
            continue
        if not _is_lattice(n, le):
            continue
        seen.add(min(
            tuple(sorted((perm[a], perm[b]) for a, b in le))
            for perm in _permutations_fixing_ends(n)
        ))
    return len(seen)


def _permutations_fixing_ends(n):
    for mid in permutations(range(1, n - 1)):
        yield (0,) + mid + (n - 1,)


def _is_lattice(n, le):
    for a in range(n):
        for b in range(n):
            upper = [c for c in range(n) if (a, c) in le and (b, c) in le]
            if not any(all((c, d) in le for d in upper) for c in upper):
                return False
    return True


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
