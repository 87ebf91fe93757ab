import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hngame import fixtures
from hngame.abelian import FiniteAbelianGroup, subgroup_lattice
from hngame.completion import dedekind_macneille
from hngame.errors import (
    CycleError,
    NoBounds,
    NotALattice,
    NotStrict,
    TrivialLattice,
    UnknownLabel,
)
from hngame.order import (
    BoundedLattice,
    FinitePoset,
    Interval,
    as_bounded_lattice,
    build_poset,
    is_modular,
    iter_chains,
    linear_extension,
)
from hngame.sweeps import lattice_iso_classes, random_lattice, random_poset
from hngame.values import PrimeFinsets

from oracles import (
    all_bot_top_chains,
    covers_oracle,
    down_sets_oracle,
    lattice_tables_oracle,
    lex_key_oracle,
    lex_ordered_subsets_oracle,
    modular_oracle,
    poset_iso_classes,
    relation_closure_oracle,
)


def poset_classes(n):
    """One poset per isomorphism class on n elements, labelled x0, x1, ..."""
    names = tuple(f"x{i}" for i in range(n))
    return [FinitePoset(names, up) for up in poset_iso_classes(n)]


def test_singleton_poset():
    p = build_poset(["x"], [])
    assert p.n == 1
    assert p.le(0, 0)


def test_b2_incomparable_atoms():
    l = fixtures.b2()
    a, b = l.index("a"), l.index("b")
    assert not l.le(a, b) and not l.le(b, a)
    assert l.meet[a][b] == l.bot
    assert l.join[a][b] == l.top


def test_cycle_detected():
    with pytest.raises(CycleError, match="^pairs force x <= y and y <= x$"):
        build_poset(["x", "y"], [("x", "y"), ("y", "x")])


@pytest.mark.parametrize(
    "names,pairs,message",
    [
        # a, below the cycle b -> c -> d -> b, is never on it; b is the
        # lowest index on the cycle and c the lowest other one.
        ("abcde", [("a", "b"), ("c", "d"), ("d", "b"), ("b", "c"), ("d", "e")],
         "pairs force b <= c and c <= b"),
        # x lies after the cycle, so the topological sort leaves it unplaced
        # too, yet it is on no cycle.
        ("xyz", [("y", "z"), ("z", "y"), ("z", "x")],
         "pairs force y <= z and z <= y"),
        # Two cycles: the one holding the lowest index is named.
        ("pqrst", [("t", "s"), ("s", "t"), ("r", "q"), ("q", "r"), ("p", "p")],
         "pairs force q <= r and r <= q"),
    ],
)
def test_cycle_error_names_lowest_pair_of_lowest_cycle(names, pairs, message):
    with pytest.raises(CycleError) as err:
        build_poset(names, pairs)
    assert str(err.value) == message
    with pytest.raises(CycleError) as ref:
        relation_closure_oracle(tuple(names), pairs)
    assert str(ref.value) == message


def _build_outcome(names, pairs):
    """up, down and covers() of the built poset, or the CycleError's text."""
    try:
        p = build_poset(names, pairs)
    except CycleError as exc:
        return CycleError, str(exc)
    return p.up, p.down, p.covers()


def _oracle_outcome(names, pairs):
    try:
        up = relation_closure_oracle(names, pairs)
    except CycleError as exc:
        return CycleError, str(exc)
    p = FinitePoset(names, up)
    return up, down_sets_oracle(up), covers_oracle(p)


def test_build_poset_and_covers_match_oracles_on_poset_classes():
    for n in range(1, 7):
        for p in poset_classes(n):
            for q in (p, p.dual()):
                # Generated from its covers, last one first.
                pairs = [(q.names[i], q.names[j]) for i, j in covers_oracle(q)][::-1]
                built = _build_outcome(q.names, pairs)
                assert built == _oracle_outcome(q.names, pairs), q
                assert built[:2] == (q.up, q.down)
                assert q.covers() == covers_oracle(q)


def test_build_poset_and_covers_match_oracles_on_random_relations():
    rng = random.Random(20)
    kinds = set()
    for _ in range(1000):
        n = rng.randint(1, 10)
        names = tuple(f"v{k}" for k in rng.sample(range(20), n))
        # Indices follow no order: pairs go up a hidden random ranking,
        # against it with a small chance (making cycles), and repeat or
        # loop on one element now and then.
        rank = rng.sample(range(n), n)
        pairs = []
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.choice(names), rng.choice(names)
            if rank[names.index(a)] > rank[names.index(b)] and rng.random() < 0.9:
                a, b = b, a
            pairs.append((a, b))
        pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 2)))
        built = _build_outcome(names, pairs)
        assert built == _oracle_outcome(names, pairs), (names, pairs)
        kinds.add(built[0] is CycleError)
    assert kinds == {True, False}


def test_build_poset_on_a_tall_chain_listed_top_down():
    n = 20_000
    names = [f"c{k}" for k in reversed(range(n))]
    p = build_poset(names, [(f"c{k}", f"c{k + 1}") for k in range(n - 1)])
    # Index i holds c{n-1-i}: everything of higher index lies below it.
    full = (1 << n) - 1
    assert all(u == (1 << (i + 1)) - 1 for i, u in enumerate(p.up))
    assert all(d == full ^ ((1 << i) - 1) for i, d in enumerate(p.down))
    assert p.covers() == [(i + 1, i) for i in range(n - 1)]
    assert p.dual().covers() == [(i, i + 1) for i in range(n - 1)]


@pytest.mark.parametrize(
    "names,up,message",
    [
        ("ab", (0b01, 0b10, 0b100), "relation size does not match element count"),
        ("ab", (0b101, 0b10), "relation references unknown elements"),
        ("ab", (0b01, 0b00), "relation not reflexive at b"),
        ("ab", (0b11, 0b11), "relation not antisymmetric on a, b"),
        ("abc", (0b011, 0b110, 0b100), "relation not transitive through a <= b"),
        ("aa", (0b01, 0b10), "element labels must be distinct"),
    ],
)
def test_public_poset_constructor_verifies(names, up, message):
    with pytest.raises(ValueError) as err:
        FinitePoset(names, up)
    assert str(err.value) == message


def test_unknown_label():
    with pytest.raises(UnknownLabel):
        build_poset(["x"], [("x", "ghost")])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        build_poset(["x", "x"], [])


def test_antichain_has_no_bounds():
    p = build_poset(["a", "b"], [])
    with pytest.raises(NoBounds):
        as_bounded_lattice(p)


def test_pentagon_is_a_lattice_but_not_modular():
    # bot < a < b < top, bot < c < top with c incomparable to a and b: every
    # pair has a glb and lub (checked by construction), yet modularity fails.
    l = fixtures.n5()
    for x, y in itertools.combinations(range(l.n), 2):
        assert l.le(l.meet[x][y], x) and l.le(l.meet[x][y], y)
        assert l.le(x, l.join[x][y]) and l.le(y, l.join[x][y])
    assert not is_modular(l)


def test_not_a_lattice_error_names_pair():
    # Two maximal elements over two minimal ones: bounded after adding caps?
    # bot < {a, b} < {c, d} < top with a,b below both c,d: (a, b) has two
    # minimal upper bounds, so no lub.
    p = build_poset(
        ["bot", "a", "b", "c", "d", "top"],
        [("bot", "a"), ("bot", "b"),
         ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
         ("c", "top"), ("d", "top")],
    )
    with pytest.raises(NotALattice) as err:
        as_bounded_lattice(p)
    assert err.value.pair in {("a", "b"), ("c", "d")}


@pytest.mark.parametrize(
    "make,expected",
    [(fixtures.b2, True), (fixtures.m3, True), (fixtures.n5, False),
     (fixtures.b3, True), (fixtures.c3, True)],
)
def test_modularity_on_fixtures(make, expected):
    assert is_modular(make()) is expected


def test_is_modular_matches_triple_loop_oracle():
    # The cover test against the cubic definition on every lattice class
    # with 2 to 9 elements, on random lattices, and on N5 and M3.
    rng = random.Random(41)
    lattices = lattice_iso_classes(9)
    lattices += [random_lattice(rng, rng.randint(7, 16)) for _ in range(200)]
    lattices += [fixtures.n5(), fixtures.m3()]
    verdicts = set()
    for l in lattices:
        verdict = is_modular(l)
        assert verdict == modular_oracle(l), l
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_meet_join_agree_with_recomputed_bounds():
    for make in (fixtures.b2, fixtures.b3, fixtures.n5, fixtures.m3, fixtures.c3):
        l = make()
        for x in range(l.n):
            for y in range(l.n):
                lower = [z for z in range(l.n) if l.le(z, x) and l.le(z, y)]
                glb = [z for z in lower if all(l.le(w, z) for w in lower)]
                assert glb == [l.meet[x][y]]
                upper = [z for z in range(l.n) if l.le(x, z) and l.le(y, z)]
                lub = [z for z in upper if all(l.le(z, w) for w in upper)]
                assert lub == [l.join[x][y]]


def _lattice_outcome(build, p):
    """Bot, top and tables built by ``build``, or the error it raised."""
    try:
        return "lattice", build(p)
    except NotALattice as exc:
        return NotALattice, exc.pair, exc.missing
    except (NoBounds, TrivialLattice) as exc:
        return (type(exc),)


def _tables(p):
    l = as_bounded_lattice(p)
    return l.bot, l.top, l.meet, l.join


def test_as_bounded_lattice_matches_scan_oracle():
    rng = random.Random(11)
    posets = [
        q for n in range(1, 7) for p in poset_classes(n) for q in (p, p.dual())
    ]
    posets += [
        random_poset(rng, n, density) for n in range(8, 17) for density in (0.4, 0.8)
    ]
    posets += [random_lattice(rng, n) for n in range(8, 17)]
    # The first pair, (x, y), has neither a glb nor a lub: the glb is named.
    posets.append(build_poset(
        ["x", "y", "a", "b", "c", "d", "bot", "top"],
        [("bot", "a"), ("bot", "b"), ("c", "top"), ("d", "top")]
        + [(lo, hi) for lo in "ab" for hi in "xy"]
        + [(lo, hi) for lo in "xy" for hi in "cd"],
    ))
    kinds = set()
    for p in posets:
        outcome = _lattice_outcome(_tables, p)
        assert outcome == _lattice_outcome(lattice_tables_oracle, p), p
        kinds.add(outcome[0])
    assert kinds == {"lattice", NoBounds, TrivialLattice, NotALattice}


def test_interval_membership_and_bounds():
    l = fixtures.b2()
    total = Interval(l, l.bot, l.top)
    assert total.member_indices() == tuple(range(4))
    ideal = Interval(l, l.bot, l.index("a"))
    assert ideal.member_indices() == (l.bot, l.index("a"))
    sub = ideal.as_lattice()
    assert sub.names == ("bot", "a")
    assert sub.n == 2


def test_interval_of_chain_upper_part():
    l = fixtures.c3()
    ival = Interval(l, l.index("a"), l.top)
    assert ival.member_indices() == (l.index("a"), l.top)


def test_interval_requires_strict_pair():
    l = fixtures.b2()
    with pytest.raises(NotStrict):
        Interval(l, l.top, l.bot)
    with pytest.raises(NotStrict):
        Interval(l, l.index("a"), l.index("a"))


def test_interval_inherits_meets_and_joins():
    for make in (fixtures.b2, fixtures.b3, fixtures.m3, fixtures.n5):
        l = make()
        for lo, hi in l.strict_pairs():
            ival = Interval(l, lo, hi)
            sub = ival.as_lattice()
            amb = ival.member_indices()
            for i in range(sub.n):
                for j in range(sub.n):
                    assert amb[sub.meet[i][j]] == l.meet[amb[i]][amb[j]]
                    assert amb[sub.join[i][j]] == l.join[amb[i]][amb[j]]


def test_interval_lattice_is_built_once_per_interval():
    for make in (fixtures.b3, fixtures.n5, lambda: fixtures.b3().dual()):
        l = make()
        for lo, hi in l.strict_pairs():
            ival = Interval(l, lo, hi)
            sub = ival.as_lattice()
            assert ival.as_lattice() is sub
            members = ival.member_indices()
            fresh = as_bounded_lattice(FinitePoset(
                [l.names[e] for e in members],
                [
                    sum(1 << k for k, f in enumerate(members) if l.le(e, f))
                    for e in members
                ],
            ))
            assert sub == fresh
            assert (sub.down, sub.meet, sub.join) == (
                fresh.down, fresh.meet, fresh.join
            )


def test_interval_lattice_lives_on_its_interval():
    # The ambient lattice keeps no interval lattice: a new Interval on the
    # same pair builds its own, equal one.
    l = fixtures.chain(12)
    pairs = l.strict_pairs()
    cached = set(l._cache)
    for lo, hi in pairs:
        sub = Interval(l, lo, hi).as_lattice()
        again = Interval(l, lo, hi).as_lattice()
        assert again is not sub
        assert (again.names, again.up, again.meet, again.join) == (
            sub.names, sub.up, sub.meet, sub.join
        )
    assert set(l._cache) == cached


def _interval_lattice():
    l = fixtures.b3()
    return Interval(l, l.bot, l.index("xy")).as_lattice()


def _cut_lattice():
    return dedekind_macneille(build_poset("abc", [("a", "c")])).as_lattice()


LATTICE_SOURCES = {
    "as_bounded_lattice": fixtures.b3,
    "interval": _interval_lattice,
    "cut_lattice": _cut_lattice,
    "subgroup_lattice": lambda: subgroup_lattice(FiniteAbelianGroup([2, 6])).lattice,
    "dual": lambda: fixtures.n5().dual(),
}


@pytest.mark.parametrize("make", LATTICE_SOURCES.values(), ids=LATTICE_SOURCES)
def test_lattice_is_a_verified_poset(make):
    l = make()
    assert isinstance(l, BoundedLattice) and isinstance(l, FinitePoset)
    fresh = FinitePoset(l.names, l.up)
    assert (l.names, l.up, l.down) == (fresh.names, fresh.up, fresh.down)
    assert l != fresh and fresh != l


@pytest.mark.parametrize("make", LATTICE_SOURCES.values(), ids=LATTICE_SOURCES)
def test_lattice_dual_swaps_bounds_and_tables(make):
    l = make()
    d = l.dual()
    assert (d.names, d.up, d.down) == (l.names, l.down, l.up)
    assert (d.bot, d.top, d.meet, d.join) == (l.top, l.bot, l.join, l.meet)
    assert d.dual() == l and hash(d.dual()) == hash(l)


def test_linear_extension_chain_is_identity():
    l = fixtures.c3()
    assert linear_extension(l) == (0, 1, 2)


def test_linear_extension_tie_break_by_input_index():
    p = build_poset(["a", "b"], [])
    assert linear_extension(p) == (0, 1)


def test_linear_extension_b2():
    l = fixtures.b2()
    order = linear_extension(l)
    assert order == (l.bot, l.index("a"), l.index("b"), l.top)
    position = {e: k for k, e in enumerate(order)}
    for x, y in l.strict_pairs():
        assert position[x] < position[y]


def _lex_codes(lex, *subsets):
    """The codes ``PrimeFinsets.encode`` gives the subsets."""
    return lex.encode([frozenset(s) for s in subsets])[0]


def test_lex_finset_small_base():
    lex = PrimeFinsets([2, 3])
    subsets = lex_ordered_subsets_oracle([3, 2])[::-1]
    codes, decode = lex.encode(subsets)
    ordered = [decode[c] for c in sorted(codes)]
    assert ordered == [
        frozenset(),
        frozenset({2}),
        frozenset({3}),
        frozenset({2, 3}),
    ]


def test_lex_finset_singletons_follow_base():
    lex = PrimeFinsets([2, 3, 5])
    c2, c3, c5 = _lex_codes(lex, {2}, {3}, {5})
    assert c2 < c3 < c5


def test_lex_finset_max_first():
    lex = PrimeFinsets([2, 3, 5])
    c3, c25 = _lex_codes(lex, {3}, {2, 5})
    assert c3 < c25


def test_lex_finset_extends_inclusion_exhaustively():
    base = [2, 3, 5, 7, 11]
    lex = PrimeFinsets(base)
    subsets = lex_ordered_subsets_oracle(base)
    codes = lex.encode(subsets)[0]
    for a, ca in zip(subsets, codes):
        for b, cb in zip(subsets, codes):
            if a < b:
                assert ca < cb
            if a <= b:
                assert ca <= cb


def test_lex_finset_key_matches_descending_tuple_oracle():
    base = [2, 3, 5, 7, 11, 13]
    lex = PrimeFinsets(base)
    subsets = lex_ordered_subsets_oracle(base)
    codes, decode = lex.encode(subsets)
    assert len(set(codes)) == 64
    assert [decode[c] for c in sorted(codes)] == sorted(
        subsets, key=lambda s: lex_key_oracle(base, s)
    )
    for a in subsets:
        for b in subsets:
            ka, kb = lex_key_oracle(base, a), lex_key_oracle(base, b)
            assert (lex.key(a) < lex.key(b)) == (ka < kb)
            assert (lex.key(a) == lex.key(b)) == (ka == kb)
    with pytest.raises(UnknownLabel):
        lex.key(frozenset({2, 4}))


@given(
    st.sets(st.integers(min_value=0, max_value=9), max_size=6),
    st.sets(st.integers(min_value=0, max_value=9), max_size=6),
    st.sets(st.integers(min_value=0, max_value=9), max_size=6),
)
@settings(max_examples=200)
def test_lex_finset_is_a_total_order(a, b, c):
    lex = PrimeFinsets(range(10))
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    ca, cb, cc, c_empty = _lex_codes(lex, a, b, c, ())
    # Codes are ints, so the order is total and transitive as soon as
    # distinct subsets get distinct codes.
    assert (ca == cb) == (a == b)
    assert (cb == cc) == (b == c)
    assert (ca < cb) == (lex_key_oracle(range(10), a) < lex_key_oracle(range(10), b))
    # Inclusion extension and empty-least.
    if a <= b:
        assert ca <= cb
    assert c_empty <= ca


def test_absorption_laws():
    for make in (fixtures.b2, fixtures.b3, fixtures.n5, fixtures.m3, fixtures.c3):
        l = make()
        for x in range(l.n):
            for y in range(l.n):
                assert l.meet[x][l.join[x][y]] == x
                assert l.join[x][l.meet[x][y]] == x


def test_linear_extension_property_on_all_fixtures():
    for make in (fixtures.b2, fixtures.b3, fixtures.n5, fixtures.m3, fixtures.c3):
        p = make()
        position = {e: k for k, e in enumerate(linear_extension(p))}
        for i in range(p.n):
            for j in range(p.n):
                if p.lt(i, j):
                    assert position[i] < position[j]


def test_iter_chains_matches_oracle_both_ways():
    def always(chain, nxt):
        return True

    for l in lattice_iso_classes(5):
        assert list(iter_chains(l, l.bot, l.top, always)) == all_bot_top_chains(l)
        down = list(iter_chains(l, l.top, l.bot, always))
        assert down == all_bot_top_chains(l.dual())


def test_iter_chains_prunes_at_failing_step():
    l = fixtures.b3()
    x, xy = l.index("x"), l.index("xy")
    chains = list(iter_chains(l, l.bot, l.top, lambda chain, nxt: nxt != x))
    assert chains
    assert all(x not in c for c in chains)
    assert len(chains) == len(all_bot_top_chains(l)) - 3
    assert list(iter_chains(l, x, xy, lambda chain, nxt: True)) == [(x, xy)]


def test_iter_chains_taller_than_recursion_limit():
    n = sys.getrecursionlimit() + 100
    full = (1 << n) - 1
    poset = FinitePoset(
        [f"c{i}" for i in range(n)], [full ^ ((1 << i) - 1) for i in range(n)]
    )
    meet = tuple(tuple(range(i)) + (i,) * (n - i) for i in range(n))
    join = tuple((i,) * (i + 1) + tuple(range(i + 1, n)) for i in range(n))
    l = BoundedLattice(poset, 0, n - 1, meet, join)

    def covers(chain, nxt):
        return abs(nxt - chain[-1]) == 1

    assert list(iter_chains(l, 0, n - 1, covers)) == [tuple(range(n))]
    assert list(iter_chains(l, n - 1, 0, covers)) == [tuple(reversed(range(n)))]
