import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hngame import fixtures
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
    FinsetOrder,
    Interval,
    as_bounded_lattice,
    build_poset,
    is_modular,
    iter_chains,
    linear_extension,
)
from hngame.sweeps import (
    lattice_iso_classes,
    poset_iso_classes,
    random_lattice,
    random_poset,
)

from oracles import all_bot_top_chains, lattice_tables_oracle, lex_key_oracle


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
    with pytest.raises(CycleError):
        build_poset(["x", "y"], [("x", "y"), ("y", "x")])


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
        q for n in range(1, 7) for p in poset_iso_classes(n) for q in (p, p.dual())
    ]
    posets += [
        random_poset(rng, n, density) for n in range(8, 17) for density in (0.4, 0.8)
    ]
    posets += [random_lattice(rng, n).poset for n in range(8, 17)]
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


def test_linear_extension_chain_is_identity():
    l = fixtures.c3()
    assert linear_extension(l.poset) == (0, 1, 2)


def test_linear_extension_tie_break_by_input_index():
    p = build_poset(["a", "b"], [])
    assert linear_extension(p) == (0, 1)


def test_linear_extension_b2():
    l = fixtures.b2()
    order = linear_extension(l.poset)
    assert order == (l.bot, l.index("a"), l.index("b"), l.top)
    position = {e: k for k, e in enumerate(order)}
    for x, y in l.strict_pairs():
        assert position[x] < position[y]


def test_lex_finset_small_base():
    fo = FinsetOrder([2, 3])
    ordered = fo.all_subsets()
    assert ordered == [
        frozenset(),
        frozenset({2}),
        frozenset({3}),
        frozenset({2, 3}),
    ]


def test_lex_finset_singletons_follow_base():
    fo = FinsetOrder([2, 3, 5])
    assert fo.lt(frozenset({2}), frozenset({3}))
    assert fo.lt(frozenset({3}), frozenset({5}))


def test_lex_finset_max_first():
    fo = FinsetOrder([2, 3, 5])
    assert fo.lt(frozenset({3}), frozenset({2, 5}))


def test_lex_finset_extends_inclusion_exhaustively():
    base = [2, 3, 5, 7, 11]
    fo = FinsetOrder(base)
    subsets = [
        frozenset(c)
        for r in range(len(base) + 1)
        for c in itertools.combinations(base, r)
    ]
    for a in subsets:
        for b in subsets:
            if a < b:
                assert fo.lt(a, b)
            if a <= b:
                assert fo.leq(a, b)


def test_lex_finset_key_matches_descending_tuple_oracle():
    base = [2, 3, 5, 7, 11, 13]
    fo = FinsetOrder(base)
    subsets = fo.all_subsets()
    assert len(set(subsets)) == 64
    assert subsets == sorted(subsets, key=lambda s: lex_key_oracle(base, s))
    for a in subsets:
        for b in subsets:
            ka, kb = lex_key_oracle(base, a), lex_key_oracle(base, b)
            assert (fo.key(a) < fo.key(b)) == (ka < kb)
            assert (fo.key(a) == fo.key(b)) == (ka == kb)
    with pytest.raises(UnknownLabel):
        fo.key(frozenset({2, 4}))


@given(
    st.sets(st.integers(min_value=0, max_value=9), max_size=6),
    st.sets(st.integers(min_value=0, max_value=9), max_size=6),
    st.sets(st.integers(min_value=0, max_value=9), max_size=6),
)
@settings(max_examples=200)
def test_lex_finset_is_a_total_order(a, b, c):
    fo = FinsetOrder(range(10))
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    # Trichotomy.
    assert (fo.compare(a, b) == 0) == (a == b)
    assert fo.leq(a, b) or fo.leq(b, a)
    # Transitivity.
    if fo.leq(a, b) and fo.leq(b, c):
        assert fo.leq(a, c)
    # Inclusion extension and empty-least.
    if a <= b:
        assert fo.leq(a, b)
    assert fo.leq(frozenset(), a)


def test_absorption_laws():
    for make in (fixtures.b2, fixtures.b3, fixtures.n5, fixtures.m3, fixtures.c3):
        l = make()
        for x in range(l.n):
            for y in range(l.n):
                assert l.meet[x][l.join[x][y]] == x
                assert l.join[x][l.meet[x][y]] == x


def test_linear_extension_property_on_all_fixtures():
    for make in (fixtures.b2, fixtures.b3, fixtures.n5, fixtures.m3, fixtures.c3):
        p = make().poset
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
