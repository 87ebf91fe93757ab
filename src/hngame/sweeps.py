"""Exhaustive and randomized generators backing the brute-force oracles.

Small lattices are enumerated as isomorphism-class representatives: every
poset admits a linear extension, so enumerating upper-triangular transitive
relations and canonicalizing under index permutations visits each class
exactly once.  Payoff sweeps over all tables are label-invariant, which is
why one representative per class suffices.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import NotALattice, NoBounds
from .game import Game
from .order import FinitePoset, as_bounded_lattice, build_poset, linear_extension
from .slopes import PotentialData, quotient_payoff
from .values import FiniteChain


def _triangular_posets(n):
    """All posets on indices 0..n-1 whose identity order is a linear
    extension (le[i][j] implies i <= j)."""
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
            m = acc
            while m:
                low = m & -m
                acc |= up[low.bit_length() - 1]
                m ^= low
            if acc != up[i]:
                ok = False
                break
        if ok:
            yield tuple(up)


def _canonical_form(n, up):
    """Lexicographically least relation matrix over relabelings.

    Only permutations preserving the (up-set size, down-set size) profile can
    realize an isomorphism, so the minimum is taken over those; the result is
    still a complete isomorphism invariant.
    """
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if (up[i] >> j) & 1:
                down[j] |= 1 << i
    inv = [
        (bin(up[i]).count("1"), bin(down[i]).count("1")) for i in range(n)
    ]
    members = {}
    for i in range(n):
        members.setdefault(inv[i], []).append(i)
    blocks = [members[key] for key in sorted(members)]
    best = None
    for combo in itertools.product(
        *(itertools.permutations(block) for block in blocks)
    ):
        perm = [0] * n
        offset = 0
        for assigned in combo:
            for slot, e in enumerate(assigned):
                perm[e] = offset + slot
            offset += len(assigned)
        rows = [0] * n
        for i in range(n):
            ri = 0
            u = up[i]
            while u:
                low = u & -u
                ri |= 1 << perm[low.bit_length() - 1]
                u ^= low
            rows[perm[i]] = ri
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return best


_POSET_CLASS_CACHE = {}


def poset_iso_classes(n):
    """Canonical representatives of all posets on exactly n elements."""
    cached = _POSET_CLASS_CACHE.get(n)
    if cached is not None:
        return cached
    seen = set()
    out = []
    for up in _triangular_posets(n):
        canon = _canonical_form(n, up)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    names = tuple(f"x{i}" for i in range(n))
    result = [FinitePoset(names, up) for up in sorted(out)]
    _POSET_CLASS_CACHE[n] = result
    return result


def lattice_iso_classes(max_n, min_n=2):
    """Canonical representatives of all bounded lattices with min_n..max_n
    elements."""
    out = []
    for n in range(min_n, max_n + 1):
        for p in poset_iso_classes(n):
            try:
                out.append(as_bounded_lattice(p))
            except (NotALattice, NoBounds):
                continue
    return out


def three_chain_values():
    """The value chain 0 < 1 < 2 used by the exhaustive payoff sweeps."""
    return FiniteChain((0, 1, 2))


def iter_payoff_tables(lattice, symbols):
    """Every payoff table over the given value symbols, as dicts."""
    pairs = lattice.strict_pairs()
    for combo in itertools.product(symbols, repeat=len(pairs)):
        yield dict(zip(pairs, combo))


def iter_sweep_games(lattice, values=None):
    """Every game on the lattice over the 3-chain (or given) value lattice."""
    if values is None:
        values = three_chain_values()
    for table in iter_payoff_tables(lattice, values.elements):
        yield Game._trusted(lattice, values, table)


def random_poset(rng, n, density=0.4):
    """A random poset on n labelled elements (transitive closure of a DAG)."""
    names = tuple(f"x{i}" for i in range(n))
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return build_poset(names, pairs)


def random_lattice(rng, n, max_tries=10000):
    """A random bounded lattice with exactly n elements, by rejection.

    Forces a fresh bot and top around a random middle poset; chains always
    qualify, so the rejection loop terminates.
    """
    if n < 2:
        raise ValueError("a bounded lattice needs at least 2 elements")
    for _ in range(max_tries):
        mid = max(n - 2, 0)
        density = rng.choice((0.2, 0.4, 0.6))
        names = ["bot"] + [f"m{i}" for i in range(mid)] + ["top"]
        pairs = [("bot", name) for name in names[1:]]
        pairs += [(name, "top") for name in names[:-1]]
        pairs += [
            (names[1 + i], names[1 + j])
            for i in range(mid)
            for j in range(i + 1, mid)
            if rng.random() < density
        ]
        try:
            return as_bounded_lattice(build_poset(names, pairs))
        except (NotALattice, NoBounds):
            continue
    raise RuntimeError("rejection sampling failed to find a lattice")


def random_potentials(rng, lattice, flat_chance=0.25):
    """Random rank/degree potentials along a linear extension.

    Rank increments are nonnegative (zero with ``flat_chance``, producing
    +inf payoffs); the degree increment paired with a zero rank increment is
    strictly positive, so the induced tables are always valid.
    """
    names = lattice.names
    order = linear_extension(lattice)
    rank = {names[order[0]]: Fraction(0)}
    degree = {names[order[0]]: Fraction(0)}
    r_acc = d_acc = Fraction(0)
    for e in order[1:]:
        if rng.random() < flat_chance:
            r_inc = Fraction(0)
            d_inc = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        else:
            r_inc = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            d_inc = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        r_acc += r_inc
        d_acc += d_inc
        rank[names[e]] = r_acc
        degree[names[e]] = d_acc
    return PotentialData(rank, degree)


def random_quotient_game(rng, max_elements=8):
    """A random slope-like game: random lattice plus random potentials."""
    n = rng.randint(2, max_elements)
    lattice = random_lattice(rng, n)
    return quotient_payoff(lattice, random_potentials(rng, lattice))
