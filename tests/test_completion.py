import itertools
import random
from fractions import Fraction

import pytest

from hngame import fixtures
from hngame.completion import (
    check_universal_property,
    dedekind_macneille,
    dm_closure,
    lower_bounds,
    upper_bounds,
)
from hngame.errors import NotAnEmbedding, TooLarge
from hngame.order import FinitePoset, build_poset
from hngame.values import ExtendedRationals, PrimeFinsets
from hngame.sweeps import random_poset

from oracles import (
    closure_oracle,
    lex_ordered_subsets_oracle,
    lower_bounds_oracle,
    poset_iso_classes,
    upper_bounds_oracle,
)


def poset_classes(n):
    """One poset per isomorphism class on n elements, labelled x0, x1, ..."""
    names = tuple(f"x{i}" for i in range(n))
    return [FinitePoset(names, up) for up in poset_iso_classes(n)]


def to_mask(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def from_mask(mask, p):
    return {i for i in range(p.n) if (mask >> i) & 1}


def test_upper_bounds_of_empty_set_is_everything():
    p = build_poset(["a", "b"], [])
    assert upper_bounds(p, 0) == 0b11


def test_antichain_has_no_common_upper_bound():
    p = build_poset(["a", "b"], [])
    assert upper_bounds(p, 0b11) == 0


def test_b2_atoms_bound_by_top():
    l = fixtures.b2()
    mask = to_mask([l.index("a"), l.index("b")])
    assert from_mask(upper_bounds(l, mask), l) == {l.top}


def test_closure_of_empty_antichain_is_empty():
    p = build_poset(["a", "b"], [])
    assert dm_closure(p, 0) == 0


def test_closure_pulls_down_in_chain():
    p = build_poset(["a", "b"], [("a", "b")])
    assert dm_closure(p, 0b10) == 0b11


def test_closure_operator_laws_exhaustive_small_posets():
    # Extensive, monotone, idempotent over all subsets of all poset
    # isomorphism classes with up to 6 elements (and the Galois law below).
    for n in range(1, 7):
        for p in poset_classes(n):
            closures = {}
            for mask in range(1 << p.n):
                c = dm_closure(p, mask)
                closures[mask] = c
                assert mask & ~c == 0
                assert dm_closure(p, c) == c
                assert c == to_mask(closure_oracle(p, from_mask(mask, p)))
            for a in range(1 << p.n):
                for b in range(1 << p.n):
                    if a & ~b == 0:
                        assert closures[a] & ~closures[b] == 0


def test_galois_connection_law_exhaustive():
    # B subset of A^u iff A subset of B^l, over all posets with <= 5 elements.
    for n in range(1, 6):
        for p in poset_classes(n):
            uppers = {}
            lowers = {}
            for a in range(1 << p.n):
                uppers[a] = upper_bounds(p, a)
                lowers[a] = lower_bounds(p, a)
                assert uppers[a] == to_mask(upper_bounds_oracle(p, from_mask(a, p)))
                assert lowers[a] == to_mask(lower_bounds_oracle(p, from_mask(a, p)))
            for a in range(1 << p.n):
                au = uppers[a]
                for b in range(1 << p.n):
                    assert (b & ~au == 0) == (a & ~lowers[b] == 0)


def test_dm_closed_sets_are_the_closures_of_all_subsets():
    # Intersecting down-sets finds exactly the closures of the 2^n subsets,
    # listed in (popcount, mask) order.
    rng = random.Random(11)
    posets = [p for n in range(1, 6) for p in poset_classes(n)]
    posets += [random_poset(rng, n) for n in (6, 7, 8, 9) for _ in range(3)]
    for p in posets:
        literal = {
            to_mask(closure_oracle(p, from_mask(mask, p))) for mask in range(1 << p.n)
        }
        expected = sorted(literal, key=lambda mask: (bin(mask).count("1"), mask))
        assert dedekind_macneille(p).closed_sets == tuple(expected)


def test_dm_of_two_antichain_is_b2():
    p = build_poset(["a", "b"], [])
    c = dedekind_macneille(p)
    assert len(c.closed_sets) == 4
    lattice = c.as_lattice()
    assert lattice.n == 4
    assert not lattice.is_total()


def test_dm_of_chain_is_the_chain():
    p = build_poset(["a", "b"], [("a", "b")])
    c = dedekind_macneille(p)
    assert len(c.closed_sets) == 2
    assert c.is_linear()


def test_dm_embedding_is_an_order_embedding():
    for n in range(1, 6):
        for p in poset_classes(n):
            c = dedekind_macneille(p)
            sets = c.closed_sets
            for i in range(p.n):
                for j in range(p.n):
                    included = sets[c.embedding[i]] & ~sets[c.embedding[j]] == 0
                    assert p.le(i, j) == included


def test_dm_fixed_point_on_lattices():
    for make in (fixtures.c2, fixtures.c3, fixtures.b2, fixtures.b3,
                 fixtures.n5, fixtures.m3):
        l = make()
        c = dedekind_macneille(l)
        assert len(c.closed_sets) == l.n
        # The embedding is onto, hence an isomorphism by order-embedding.
        assert sorted(c.embedding) == list(range(l.n))


def test_dm_linear_for_chains_up_to_six():
    for k in range(1, 7):
        names = [f"c{i}" for i in range(k)]
        p = build_poset(names, list(zip(names, names[1:])))
        assert dedekind_macneille(p).is_linear()


def test_is_total_and_is_linear_match_pairwise_definitions():
    for n in range(1, 7):
        for p in poset_classes(n):
            pairs = itertools.product(range(n), repeat=2)
            assert p.is_total() == all(p.le(i, j) or p.le(j, i) for i, j in pairs)
            c = dedekind_macneille(p)
            sets = c.closed_sets
            nested = all(a & ~b == 0 or b & ~a == 0 for a in sets for b in sets)
            assert c.is_linear() == nested


def test_dm_of_lex_ordered_subsets_is_itself():
    # The Lex' order on the subsets of a small prime base is total, so its
    # completion adds nothing: this is the finiteness-trivial completion the
    # coprimary value lattice relies on.
    lex = PrimeFinsets([2, 3])
    codes, decode = lex.encode(lex_ordered_subsets_oracle([2, 3]))
    ordered = [decode[c] for c in sorted(codes)]
    names = [",".join(map(str, sorted(s))) or "empty" for s in ordered]
    p = build_poset(names, list(zip(names, names[1:])))
    c = dedekind_macneille(p)
    assert len(c.closed_sets) == len(ordered)
    assert c.is_linear()


def test_dm_guard():
    names = [f"x{i}" for i in range(17)]
    p = build_poset(names, [])
    with pytest.raises(TooLarge):
        dedekind_macneille(p)


def test_universal_property_identity_embedding():
    p = build_poset(["a", "b"], [])
    c = dedekind_macneille(p)
    target = c.as_lattice()
    witness = check_universal_property(
        c, target, {i: c.embedding[i] for i in range(p.n)}
    )
    assert witness.holds
    assert witness.factor_map == tuple(range(4))


def test_universal_property_antichain_into_b2():
    p = build_poset(["a", "b"], [])
    c = dedekind_macneille(p)
    l = fixtures.b2()
    witness = check_universal_property(
        c, l, {0: l.index("a"), 1: l.index("b")}
    )
    assert witness.holds
    # Empty set -> bot, singletons -> atoms, full set -> top.
    by_set = dict(zip(c.closed_sets, witness.factor_map))
    assert by_set[0] == l.bot
    assert by_set[0b11] == l.top


def test_universal_property_rejects_non_injective():
    p = build_poset(["a", "b"], [])
    c = dedekind_macneille(p)
    l = fixtures.b2()
    with pytest.raises(NotAnEmbedding):
        check_universal_property(c, l, {0: l.index("a"), 1: l.index("a")})


def test_universal_property_rejects_non_reflecting():
    p = build_poset(["a", "b"], [])
    c = dedekind_macneille(p)
    l = fixtures.c3()
    # A map that creates a comparability the base does not have.
    with pytest.raises(NotAnEmbedding):
        check_universal_property(c, l, {0: 0, 1: 2})


def test_universal_property_on_random_embeddings():
    # Induced subposets embed into the completion of the bigger poset.
    rng = random.Random(20240811)
    done = 0
    while done < 50:
        big = random_poset(rng, rng.randint(2, 6))
        size = rng.randint(1, big.n)
        chosen = sorted(rng.sample(range(big.n), size))
        names = [big.names[i] for i in chosen]
        pairs = [
            (big.names[i], big.names[j])
            for i in chosen
            for j in chosen
            if i != j and big.le(i, j)
        ]
        small = build_poset(names, pairs)
        csmall = dedekind_macneille(small)
        cbig = dedekind_macneille(big)
        target = cbig.as_lattice()
        f = {k: cbig.embedding[chosen[k]] for k in range(small.n)}
        witness = check_universal_property(csmall, target, f)
        assert witness.holds
        done += 1


def test_extended_rational_lattice_basics():
    s = ExtendedRationals()
    codes, decode = s.encode([Fraction(1, 2), Fraction(2, 3), float("inf"),
                              Fraction(3), Fraction(-5), Fraction(1, 100)])
    assert decode[s.code_order.sup(codes[:2])] == Fraction(2, 3)
    assert s.bot == float("-inf")
    assert s.top == float("inf")
    assert decode[s.code_order.inf(codes[2:4])] == 3
    assert s.is_total
    assert codes[4] < codes[5]
