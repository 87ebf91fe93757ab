"""Exhaustive and randomized generators backing the brute-force oracles.

Small lattices are enumerated as isomorphism-class representatives, grown
one element at a time by coatom extension: removing a coatom from a lattice
with at least 3 elements leaves a lattice, so every lattice on n + 1
elements is one on n elements plus a new coatom whose lower covers form a
nonempty antichain below the top.  Each class on n elements is extended by
every such antichain, the candidates that are lattices are kept, and the
duplicates are dropped by a canonical form under index permutations.
Payoff sweeps over all tables are label-invariant, which is why one
representative per class suffices.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import NotALattice, NoBounds
from .game import Game
from .order import (
    FinitePoset,
    _iter_bits,
    as_bounded_lattice,
    build_poset,
    linear_extension,
)
from .slopes import PotentialData, quotient_payoff
from .values import FiniteChain


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


def _coatom_extensions(n, up):
    """The up-set tuples of the lattices on n + 1 elements that are the
    lattice ``up`` on n elements plus a new coatom c, index n.

    The lower covers of c form a nonempty antichain A of L minus top, so c
    is fixed by the down-closure D of A.  Joins exist once meets do (L has a
    top), and the meet of c with x != top has lower bounds D & down(x), so
    the candidate is a lattice iff every such mask is the down-set of an
    element of L.
    """
    full = (1 << n) - 1
    down = [0] * n
    for i in range(n):
        for j in _iter_bits(up[i]):
            down[j] |= 1 << i
    top = down.index(full)
    principal = set(down)
    below_top = [e for e in range(n) if e != top]
    comparable = [up[e] | down[e] for e in range(n)]
    new = 1 << n
    coatom_up = new | 1 << top

    def closures(start, blocked, closure):
        # The down-closures of the antichains that extend one with the
        # given down-closure by elements of below_top[start:].
        for k in range(start, len(below_top)):
            e = below_top[k]
            if not blocked >> e & 1:
                d = closure | down[e]
                yield d
                yield from closures(k + 1, blocked | comparable[e], d)

    for d in closures(0, 0, 0):
        if all(d & down[x] in principal for x in below_top):
            yield tuple(
                u | new if d >> i & 1 else u for i, u in enumerate(up)
            ) + (coatom_up,)


def lattice_iso_classes(max_n, min_n=2):
    """Canonical representatives of all bounded lattices with min_n..max_n
    elements, by size and then by canonical form.

    The classes on n + 1 elements are generated from those on n by
    :func:`_coatom_extensions`.  This is complete: a coatom c of a lattice
    with at least 3 elements can be removed and what is left is a lattice,
    since x ^ y = c forces x, y in {c, top} and a finite meet-semilattice
    with a top is a lattice.  So every class on n + 1 elements is the
    extension of a class on n elements by the antichain of lower covers of
    one of its coatoms.  Candidates are deduplicated by their canonical
    form, and each class is the poset on that form, labelled x0, x1, ...,
    verified by ``FinitePoset`` and :func:`as_bounded_lattice`.
    """
    out = []
    level = [_canonical_form(2, (0b11, 0b10))]
    for n in range(2, max_n + 1):
        if n >= min_n:
            names = tuple(f"x{i}" for i in range(n))
            out += [as_bounded_lattice(FinitePoset(names, up)) for up in level]
        if n < max_n:
            level = sorted({
                _canonical_form(n + 1, ext)
                for up in level
                for ext in _coatom_extensions(n, up)
            })
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
    """Every game on the lattice over the 3-chain (or given) value lattice,
    in the order of :func:`iter_payoff_tables`.

    The games come from :meth:`Game._encoded_each`: each holds the
    ``itertools.product`` tuple of its codes as it is, sharing one decode
    map, and has one code per strict pair by construction, so it is neither
    copied nor counted.  Its payoff dict and derived state are built only
    if they are read."""
    if values is None:
        values = three_chain_values()
    codes, decode = values.encode(values.elements)
    return Game._encoded_each(
        lattice, values,
        itertools.product(codes, repeat=len(lattice.strict_pairs())), decode,
    )


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
