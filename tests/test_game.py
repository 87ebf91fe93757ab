import gc
import random
import weakref
from fractions import Fraction
from itertools import accumulate

import pytest

from hngame import fixtures
from hngame import game as hgame
from hngame import order as horder
from hngame.abelian import FiniteAbelianGroup, coprimary_game, subgroup_lattice
from hngame.errors import NotAChain, NotStrict, PreconditionFailed
from hngame.filtration import (
    _st_set_on,
    canonical_hn_filtration,
    enumerate_hn_filtrations,
    mu_admissible,
    st_set,
)
from hngame.game import (
    DECREASING,
    FLAT,
    INCREASING,
    VIOLATION,
    Game,
    MuTables,
    _peel,
    _row_witness,
    _series,
    dual,
    has_nash_equilibrium,
    has_seesaw_violation,
    interval_semistable,
    interval_stable,
    is_affine,
    is_convex,
    is_semistable,
    is_slope_like,
    is_stable,
    mu_a,
    mu_a_star,
    mu_b,
    mu_b_star,
    mu_max,
    mu_min,
    mu_series,
    nash_tfae_report,
    restrict,
    seesaw_classify,
)
from hngame.jordan_holder import _first_deviation, enumerate_jh_filtrations
from hngame.order import Interval, as_bounded_lattice, build_poset
from hngame.slopes import PotentialData, quotient_payoff
from hngame.sweeps import (
    iter_payoff_tables,
    lattice_iso_classes,
    random_lattice,
    random_potentials,
)
from hngame.values import (
    INT_ORDER,
    NEG_INF,
    POS_INF,
    ExtendedRationals,
    FiniteChain,
    FiniteLatticeValues,
    PrimeFinsets,
)

from oracles import (
    MissingBottom,
    NotAntitone,
    compress_antitone,
    convexity_oracle,
    cover_recursion_oracle,
    cover_step_slope_like_tables,
    divisors,
    hn_filtrations_oracle,
    interval_semistable_oracle,
    interval_stable_oracle,
    jh_filtrations_oracle,
    lex_ordered_subsets_oracle,
    mu_a_oracle,
    mu_b_oracle,
    mu_max_oracle,
    mu_min_oracle,
    potential_tables_oracle,
    seesaw_violation_oracle,
    slope_like_oracle,
    st_set_on_oracle,
    value_order_oracle,
)


@pytest.fixture(scope="module")
def gmod():
    return fixtures.g_mod()


def test_payoff_domain_enforced():
    # A missing pair, an extra pair, and both at once with the right count
    # of pairs, each named in the message.
    l = fixtures.c3()
    good = {p: Fraction(0) for p in l.strict_pairs()}
    extra = dict(good)
    extra[(1, 0)] = Fraction(1)
    swapped = dict(good)
    swapped[(2, 1)] = swapped.pop((1, 2))
    for payoff, missing, added in (
        ({(0, 1): Fraction(1)}, "[(0, 2), (1, 2)]", "[]"),
        (extra, "[]", "[(1, 0)]"),
        (swapped, "[(1, 2)]", "[(2, 1)]"),
    ):
        with pytest.raises(ValueError) as err:
            Game(l, ExtendedRationals(), payoff)
        assert str(err.value) == (
            "payoff must be defined on exactly the strict pairs; "
            f"missing {missing}, extra {added}"
        )


def test_mu_requires_strict_pair(gmod):
    with pytest.raises(NotStrict):
        gmod.mu(gmod.lattice.top, gmod.lattice.bot)


def test_gmod_table(gmod):
    l = gmod.lattice
    mu = gmod.mu
    bot, a, b, top = (l.index(x) for x in ("bot", "a", "b", "top"))
    assert mu(bot, a) == 3
    assert mu(bot, b) == 1
    assert mu(bot, top) == 2
    assert mu(a, top) == 1
    assert mu(b, top) == 3


def test_gmod_mu_series_at_total_interval(gmod):
    s = mu_series(gmod, Interval(gmod.lattice, gmod.lattice.bot, gmod.lattice.top))
    assert (s.mu_max, s.mu_min, s.mu_a, s.mu_b) == (3, 1, 1, 3)
    assert (s.mu_a_star, s.mu_b_star) == (1, 3)


def test_two_element_interval_collapses_series(gmod):
    l = gmod.lattice
    ival = Interval(l, l.index("a"), l.top)
    s = mu_series(gmod, ival)
    v = gmod.mu(l.index("a"), l.top)
    assert s.mu_max == s.mu_min == s.mu_a == s.mu_b == v


def test_constant_game_series_constant():
    g = fixtures.constant_game(fixtures.b2(), Fraction(7))
    for x, y in g.lattice.strict_pairs():
        assert mu_max(g, x, y) == mu_min(g, x, y) == mu_a(g, x, y) == mu_b(g, x, y) == 7


def _assert_series_match_oracles(g):
    for x, y in g.lattice.strict_pairs():
        assert mu_max(g, x, y) == mu_max_oracle(g, x, y)
        assert mu_min(g, x, y) == mu_min_oracle(g, x, y)
        assert mu_a(g, x, y) == mu_a_oracle(g, x, y)
        assert mu_b(g, x, y) == mu_b_oracle(g, x, y)


def test_series_against_oracle_on_fixtures(gmod):
    games = [gmod, fixtures.g_const(), fixtures.steep_chain(),
             fixtures.constant_game(fixtures.n5(), Fraction(1, 3))]
    for g in games:
        _assert_series_match_oracles(g)


@pytest.mark.parametrize("dualize", [False, True], ids=["primal", "dual"])
@pytest.mark.parametrize("value_lattice", [fixtures.b2, fixtures.m3, fixtures.n5])
def test_tables_match_oracles_on_non_total_values(value_lattice, dualize):
    # Every lattice class with up to 5 elements; all payoff tables when there
    # are at most 5 strict pairs, a seeded sample of 300 otherwise.
    base = FiniteLatticeValues(value_lattice())
    values = base.dual() if dualize else base
    rng = random.Random(20231018)
    for lattice in lattice_iso_classes(5):
        pairs = lattice.strict_pairs()
        if len(pairs) <= 5:
            tables = iter_payoff_tables(lattice, base.elements)
        else:
            tables = (
                {p: rng.choice(base.elements) for p in pairs} for _ in range(300)
            )
        for table in tables:
            _assert_series_match_oracles(Game(lattice, values, table))


@pytest.mark.parametrize("side", ["lattice", "dual"])
def test_series_over_values_on_an_unbuilt_lattice(monkeypatch, side):
    # Lattice values over the subgroup lattice of Z/12, which builds its
    # meet/join tables on first read, or over its dual, which shares that
    # build.  Seeded payoffs on every lattice class with up to 5 elements,
    # under the values and under their dual: the first fold of codes builds
    # the tables, once, on the lattice the values were given.
    builds = []
    build = horder._tables
    monkeypatch.setattr(horder, "_tables", lambda p: builds.append(p) or build(p))
    l = subgroup_lattice(FiniteAbelianGroup([12])).lattice
    d = l.dual()
    base = FiniteLatticeValues(l if side == "lattice" else d)
    assert not builds
    rng = random.Random(f"unbuilt-{side}")
    for values in (base, base.dual()):
        for lattice in lattice_iso_classes(5):
            pairs = lattice.strict_pairs()
            for _ in range(3):
                payoff = {p: rng.choice(base.elements) for p in pairs}
                _assert_series_match_oracles(Game(lattice, values, payoff))
    assert [p for p in builds if p is l or p is d] == [base.lattice]
    assert l.meet is d.join and l.join is d.meet


def test_restrict_agrees_with_ambient(gmod):
    l = gmod.lattice
    for lo, hi in l.strict_pairs():
        ival = Interval(l, lo, hi)
        sub = restrict(gmod, ival)
        amb = ival.member_indices()
        for i, j in sub.lattice.strict_pairs():
            assert sub.mu(i, j) == gmod.mu(amb[i], amb[j])
            assert mu_a(sub, i, j) == mu_a(gmod, amb[i], amb[j])
            assert mu_b(sub, i, j) == mu_b(gmod, amb[i], amb[j])
            assert mu_max(sub, i, j) == mu_max(gmod, amb[i], amb[j])
            assert mu_min(sub, i, j) == mu_min(gmod, amb[i], amb[j])


def test_restrict_total_interval_is_same_game(gmod):
    g2 = restrict(gmod, Interval(gmod.lattice, gmod.lattice.bot, gmod.lattice.top))
    assert g2.payoff == gmod.payoff
    assert g2.lattice.names == gmod.lattice.names


def test_interval_semistable_matches_restricted_predicate(gmod):
    for g in (gmod, fixtures.g_const(), fixtures.steep_chain()):
        l = g.lattice
        for lo, hi in l.strict_pairs():
            assert interval_semistable(g, lo, hi) == is_semistable(
                restrict(g, Interval(l, lo, hi))
            )


def test_dual_is_involution(gmod):
    gg = dual(dual(gmod))
    assert gg.payoff == gmod.payoff
    assert gg.lattice == gmod.lattice
    assert gg.values == gmod.values


def test_dual_swaps_star_values(gmod):
    assert mu_b_star(dual(gmod)) == mu_a_star(gmod) == 1
    assert mu_a_star(dual(gmod)) == mu_b_star(gmod) == 3


def test_dual_of_chain_reverses():
    g = fixtures.steep_chain()
    d = dual(g)
    assert d.lattice.names[d.lattice.bot] == "top"
    # The dual pair (top, a) carries the original payoff of (a, top).
    assert d.mu(d.lattice.index("top"), d.lattice.index("a")) == g.mu(
        g.lattice.index("a"), g.lattice.index("top")
    )


def test_gmod_is_affine_hence_convex(gmod):
    assert is_affine(gmod)
    assert is_convex(gmod)


def test_constant_game_is_affine():
    assert is_affine(fixtures.g_const())


def test_broken_convexity_witness():
    l = fixtures.b2()
    payoff = {p: Fraction(0) for p in l.strict_pairs()}
    payoff[(l.bot, l.index("a"))] = Fraction(3)
    payoff[(l.index("b"), l.top)] = Fraction(1)
    g = Game(l, ExtendedRationals(), payoff)
    assert not is_convex(g)


def test_gmod_not_semistable(gmod):
    assert not is_semistable(gmod)
    assert mu_a(gmod, gmod.lattice.bot, gmod.lattice.index("a")) == 3


def test_constant_game_semistable_not_stable():
    g = fixtures.g_const()
    assert is_semistable(g)
    assert not is_stable(g)


def test_two_element_games_semistable_and_stable():
    g = fixtures.constant_game(fixtures.c2(), Fraction(5))
    assert is_semistable(g)
    assert is_stable(g)


def test_gmod_slope_like(gmod):
    assert is_slope_like(gmod)


def test_constant_game_slope_like():
    assert is_slope_like(fixtures.g_const())


def test_flat_then_jump_violates_slope_like():
    l = fixtures.c3()
    payoff = {
        (l.index("bot"), l.index("a")): Fraction(0),
        (l.index("a"), l.index("top")): Fraction(0),
        (l.index("bot"), l.index("top")): Fraction(5),
    }
    g = Game(l, ExtendedRationals(), payoff)
    assert not is_slope_like(g)
    assert (
        seesaw_classify(g, l.index("bot"), l.index("a"), l.index("top"))
        == VIOLATION
    )


def test_seesaw_classification(gmod):
    l = gmod.lattice
    assert seesaw_classify(gmod, l.bot, l.index("a"), l.top) == DECREASING
    assert seesaw_classify(gmod, l.bot, l.index("b"), l.top) == INCREASING
    g = fixtures.g_const()
    assert seesaw_classify(g, g.lattice.bot, g.lattice.index("a"), g.lattice.top) == FLAT
    with pytest.raises(NotAChain):
        seesaw_classify(gmod, l.index("a"), l.index("b"), l.top)


def test_nash(gmod):
    assert not has_nash_equilibrium(gmod)
    assert has_nash_equilibrium(fixtures.g_const())
    assert has_nash_equilibrium(fixtures.constant_game(fixtures.c2(), Fraction(9)))


def test_nash_tfae_on_gmod(gmod):
    report = nash_tfae_report(gmod)
    assert report.items == (False, False, False, False)
    assert not report.semistable


def test_nash_tfae_on_constant():
    report = nash_tfae_report(fixtures.g_const())
    assert report.items == (True, True, True, True)
    assert report.semistable


def test_nash_tfae_requires_slope_like():
    l = fixtures.c3()
    payoff = {
        (0, 1): Fraction(0), (1, 2): Fraction(0), (0, 2): Fraction(5),
    }
    g = Game(l, ExtendedRationals(), payoff)
    with pytest.raises(PreconditionFailed):
        nash_tfae_report(g)


def test_nash_tfae_requires_total_values():
    vlattice = FiniteLatticeValues(fixtures.b2())
    l = fixtures.c2()
    g = Game(l, vlattice, {(l.bot, l.top): "a"})
    with pytest.raises(PreconditionFailed):
        nash_tfae_report(g)


def test_non_total_values_incomparable_semistability():
    # Payoff values a and b are incomparable in B2-as-values: semistability
    # uses the negated strict comparison, so an incomparable destabilizer
    # does not break it even though the values are not <=.
    values = FiniteLatticeValues(fixtures.b2())
    l = fixtures.b2()
    payoff = {
        (l.bot, l.index("a")): "a",
        (l.bot, l.index("b")): "a",
        (l.bot, l.top): "b",
        (l.index("a"), l.top): "b",
        (l.index("b"), l.top): "b",
    }
    g = Game(l, values, payoff)
    order = value_order_oracle(values)
    assert not order.leq("a", "b") and not order.leq("b", "a")
    # mu_a(bot, a) = "a" while mu_a(bot, top) = top ^ b ^ b = "b".
    assert mu_a(g, l.bot, l.index("a")) == "a"
    assert mu_a(g, l.bot, l.top) == "b"
    assert is_semistable(g)


def test_compress_antitone():
    l = fixtures.b2()
    a = l.index("a")
    assert compress_antitone(l, [l.top, l.top, a, a, l.bot]) == [l.top, a, l.bot]
    assert compress_antitone(l, [l.top, l.bot]) == [l.top, l.bot]
    # Values after the first bot are dropped.
    assert compress_antitone(l, [l.top, a, l.bot, l.bot]) == [l.top, a, l.bot]


def test_compress_antitone_five_chain_with_predicate():
    l = fixtures.chain(5)
    seq = [4, 2, 2, 1, 0, 0]
    seen = []

    def pred(lower, upper):
        seen.append((lower, upper))
        return True

    out = compress_antitone(l, seq, pred)
    assert out == [4, 2, 1, 0]
    # Consecutive output pairs were strict consecutive input pairs.
    for lower, upper in zip(out[1:], out):
        assert (lower, upper) in seen


def test_compress_antitone_errors():
    l = fixtures.b2()
    with pytest.raises(NotAntitone):
        compress_antitone(l, [l.bot, l.top])
    with pytest.raises(NotAntitone):
        compress_antitone(l, [l.top, l.index("a"), l.index("b")])
    with pytest.raises(MissingBottom):
        compress_antitone(l, [l.top, l.index("a")])


def test_witness_containment_over_sweep():
    # mu_a <= mu_max and mu_min <= mu_b: the trivial witnesses a = x, b = y
    # belong to the inf/sup index sets.
    from hngame.sweeps import iter_sweep_games, lattice_iso_classes

    for lattice in lattice_iso_classes(4):
        for g in iter_sweep_games(lattice):
            leq = value_order_oracle(g.values).leq
            t = g.tables()
            for pair in lattice.strict_pairs():
                assert leq(t.mu_a[pair], t.mu_max[pair])
                assert leq(t.mu_min[pair], t.mu_b[pair])


def test_affine_implies_convex_over_sweep():
    from hngame.sweeps import iter_sweep_games

    for g in iter_sweep_games(fixtures.b2()):
        if is_affine(g):
            assert is_convex(g)


def test_restriction_transparency_on_eight_element_lattice():
    # Spot-check restriction transparency on the 8-element cube; the
    # 3-chain sweep covers every lattice up to 5 elements exhaustively.
    import random

    from hngame.sweeps import three_chain_values

    lattice = fixtures.b3()
    values = three_chain_values()
    rng = random.Random(11)
    pairs = lattice.strict_pairs()
    for _ in range(40):
        payoff = {p: rng.choice(values.elements) for p in pairs}
        g = Game(lattice, values, payoff)
        t = g.tables()
        for lo, hi in pairs:
            ival = Interval(lattice, lo, hi)
            sub = restrict(g, ival)
            ts = sub.tables()
            members = ival.member_indices()
            for i, j in sub.lattice.strict_pairs():
                pair = (members[i], members[j])
                assert ts.mu_a[(i, j)] == t.mu_a[pair]
                assert ts.mu_b[(i, j)] == t.mu_b[pair]
                assert ts.mu_max[(i, j)] == t.mu_max[pair]
                assert ts.mu_min[(i, j)] == t.mu_min[pair]


def _divisor_lattice(m):
    divs = divisors(m)
    relation = [(str(a), str(b)) for a in divs for b in divs if a != b and b % a == 0]
    return as_bounded_lattice(build_poset([str(d) for d in divs], relation))


@pytest.mark.parametrize(
    "make_lattice", [lambda: fixtures.chain(40), lambda: _divisor_lattice(360)],
    ids=["chain40", "d360"],
)
def test_tables_match_oracles_on_tall_potentials_game(make_lattice):
    # Tall lattices, where an interval has far more members than its top has
    # lower covers or its bottom upper covers.
    lattice = make_lattice()
    g = quotient_payoff(lattice, random_potentials(random.Random(7), lattice))
    _assert_series_match_oracles(g)
    _assert_series_match_oracles(dual(g))


# Each value kind with the values its payoffs are drawn from.  The rationals
# include both infinities and equal Fractions built from different terms.
VALUE_KINDS = {
    "chain": lambda: (FiniteChain((0, 1, 2)), (0, 1, 2)),
    "rationals": lambda: (
        ExtendedRationals(),
        (NEG_INF, Fraction(-1, 3), Fraction(0), Fraction(2, 4), Fraction(1, 2),
         Fraction(5, 3), POS_INF),
    ),
    "primes": lambda: (PrimeFinsets([2, 3, 5]), lex_ordered_subsets_oracle([2, 3, 5])),
    "b2": lambda: _lattice_kind(fixtures.b2()),
    "m3": lambda: _lattice_kind(fixtures.m3()),
    "n5": lambda: _lattice_kind(fixtures.n5()),
    "unsorted_chain": lambda: (
        _unsorted_chain(("low", "mid", "high"), ("high", "low", "mid")),
        ("high", "low", "mid"),
    ),
}


def _lattice_kind(lattice):
    values = FiniteLatticeValues(lattice)
    return values, values.elements


def _unsorted_chain(ranked, listed):
    """Lattice values on the chain ``ranked``, from bot to top, with the
    labels listed as in ``listed``, where no label sits at its rank."""
    assert all(map(str.__ne__, ranked, listed))
    return FiniteLatticeValues(as_bounded_lattice(
        build_poset(listed, list(zip(ranked, ranked[1:])))
    ))


def _assert_engine_matches_oracles(g):
    l = g.lattice
    pairs = l.strict_pairs()
    expect = MuTables(
        *({p: oracle(g, *p) for p in pairs}
          for oracle in (mu_max_oracle, mu_min_oracle, mu_a_oracle, mu_b_oracle))
    )
    assert repr(g.tables()) == repr(expect)
    assert is_convex(g) == convexity_oracle(g, require_equal=False)
    assert is_affine(g) == convexity_oracle(g, require_equal=True)
    assert is_slope_like(g) == slope_like_oracle(g)
    assert is_semistable(g) == interval_semistable_oracle(g, l.bot, l.top)
    assert is_stable(g) == interval_stable_oracle(g, l.bot, l.top)
    assert st_set(g) == st_set_on_oracle(g, l.bot, l.top)
    for lo, hi in pairs:
        assert interval_semistable(g, lo, hi) == interval_semistable_oracle(g, lo, hi)
        assert interval_stable(g, lo, hi) == interval_stable_oracle(g, lo, hi)
        assert _st_set_on(g, lo, hi) == st_set_on_oracle(g, lo, hi)
    found = [(f.steps, f.mu_a_steps) for f in enumerate_hn_filtrations(g)]
    assert found == hn_filtrations_oracle(g)
    if is_convex(g) and mu_admissible(g):
        f = canonical_hn_filtration(g).filtration
        assert (f.steps, f.mu_a_steps) in found
        assert len(found) == 1 or not g.values.is_total
    jh = [f.steps for f in enumerate_jh_filtrations(g)]
    assert len(jh) == len(set(jh))
    assert set(jh) == jh_filtrations_oracle(g)


@pytest.mark.parametrize("dualize", [False, True], ids=["primal", "dual"])
@pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
def test_engine_matches_value_level_oracles(kind, dualize):
    # Every lattice class with up to 5 elements, seeded payoffs over the kind;
    # the engine reads payoff codes, the oracles their own value order.
    base, pool = VALUE_KINDS[kind]()
    values = base.dual() if dualize else base
    rng = random.Random(f"{kind}-{dualize}")
    for lattice in lattice_iso_classes(5):
        pairs = lattice.strict_pairs()
        for _ in range(30):
            payoff = {p: rng.choice(pool) for p in pairs}
            _assert_engine_matches_oracles(Game(lattice, values, payoff))
            _assert_engine_matches_oracles(dual(Game(lattice, values, payoff)))


@pytest.mark.parametrize("kind", ["rationals", "n5"])
def test_row_witness_is_the_first_beating_element(kind):
    # The interval scans over mu_a and the Jordan-Hölder step check over the
    # payoff name the first x by index strictly between lo and hi for which
    # their comparison holds in the oracles' value order, or None.
    values, pool = VALUE_KINDS[kind]()
    order = value_order_oracle(values)
    rng = random.Random(kind)
    for lattice in lattice_iso_classes(5):
        pairs = lattice.strict_pairs()
        for _ in range(5):
            g = Game(lattice, values, {p: rng.choice(pool) for p in pairs})
            for lo, hi in pairs:
                inside = [
                    x for x in lattice.elements()
                    if lattice.lt(lo, x) and lattice.lt(x, hi)
                ]
                ref = mu_a_oracle(g, lo, hi)
                beats = [x for x in inside if order.lt(ref, mu_a_oracle(g, lo, x))]
                witness = _row_witness(g, _series(g, 2), lo, hi, g.values.code_order.lt)
                assert witness == next(iter(beats), None)
                ref = g.payoff[(lo, hi)]
                deviates = [x for x in inside if not order.lt(g.payoff[(lo, x)], ref)]
                assert _first_deviation(g, lo, hi) == next(iter(deviates), None)


def _assert_tables_match_cover_recursion(g):
    t = g.tables()
    assert (t.mu_max, t.mu_min, t.mu_a, t.mu_b) == cover_recursion_oracle(g)


@pytest.mark.parametrize("kind", ["chain3", "n5", "m3"])
def test_peel_matches_cover_recursion(kind):
    # Every lattice class with 2 to 6 elements and its dual, seeded payoffs.
    # N5 and M3 are non-total, so the kernel folds instead of peeling, also
    # under their dual order.
    if kind == "chain3":
        base = FiniteChain((0, 1, 2))
    else:
        base = FiniteLatticeValues(getattr(fixtures, kind)())
    pool = base.elements
    rng = random.Random(kind)
    for lattice in lattice_iso_classes(6):
        pairs = lattice.strict_pairs()
        for values in (base, base.dual()):
            for _ in range(12):
                g = Game(lattice, values, {p: rng.choice(pool) for p in pairs})
                _assert_tables_match_cover_recursion(g)
                _assert_tables_match_cover_recursion(dual(g))


def test_peel_on_a_2000_chain_is_a_running_extremum():
    # On a chain a series line is a running extremum: row x reads
    # mu_max(x, y) = max(mu(x, w) for x < w <= y), column y reads
    # mu_min(x, y) = min(mu(w, y) for x <= w < y), and mu_b and mu_a read
    # mu_min and mu_max the same way.  Whole rows and columns of a
    # 2,000-element chain, the longest included, each source line listed in
    # the order its extremum runs.
    n = 2000
    full = (1 << n) - 1
    up = [full >> i << i for i in range(n)]
    down = [(2 << i) - 1 for i in range(n)]
    for reach, top_first, picks in ((up, True, (0, 1, 999, 1998)),
                                    (down, False, (1999, 1998, 1000, 1))):
        lines, src, expect = [], [], []
        for e in picks:
            ends = range(e + 1, n) if top_first else range(e - 1, -1, -1)
            line = [(37 * w + 11 * e) % 101 for w in ends]
            ids = dict(zip(ends, range(len(src), len(src) + len(line))))
            lines.append((reach[e] ^ (1 << e), ids))
            src += line
            expect += accumulate(line, max if top_first else min)
        assert _peel(src, lines, reach, INT_ORDER, top_first) == expect


# Every value kind, with the values its payoffs are drawn from: the
# rationals (both infinities included), a finite chain, prime sets, lattice
# values on a 3-chain, which are total, and on N5, which are not.
DUAL_CODE_KINDS = {
    "rationals": VALUE_KINDS["rationals"],
    "chain": VALUE_KINDS["chain"],
    "primes": VALUE_KINDS["primes"],
    "total_lattice": lambda: _lattice_kind(fixtures.c3()),
    "n5": VALUE_KINDS["n5"],
}


def _fresh_codes(g):
    return g.values.encode([g.payoff[p] for p in g.lattice.strict_pairs()])


@pytest.mark.parametrize("kind", sorted(DUAL_CODE_KINDS))
def test_dual_inherits_codes_of_every_kind(kind):
    values, pool = DUAL_CODE_KINDS[kind]()
    rng = random.Random(kind)
    for lattice in (fixtures.n5(), fixtures.b2(), fixtures.chain(5)):
        pairs = lattice.strict_pairs()
        for _ in range(10):
            g = Game(lattice, values, {p: rng.choice(pool) for p in pairs})
            d = dual(g)
            assert d._codes == _fresh_codes(d)
            dd = dual(d)
            assert dd.values == values
            assert dd._codes == _fresh_codes(dd) == g._codes
            fresh = Game(lattice.dual(), values.dual(),
                         {(j, i): v for (i, j), v in g.payoff.items()})
            assert repr(d.tables()) == repr(fresh.tables())


# The kinds the series are checked on, of the dual and of constant games:
# rationals with both infinities, a finite chain, prime sets, and lattice
# values on N5 and M3.
SERIES_KINDS = ("chain", "m3", "n5", "primes", "rationals")


def _unlinked_dual(g):
    """The dual of g by the public constructor: it peels its own series."""
    return Game(g.lattice.dual(), g.values.dual(),
                {(j, i): v for (i, j), v in g.payoff.items()})


@pytest.mark.parametrize("dualize", [False, True], ids=["primal", "dual"])
@pytest.mark.parametrize("kind", SERIES_KINDS)
def test_dual_series_match_unlinked_dual_and_oracles(kind, dualize):
    # Every lattice class with 2 to 6 elements, seeded payoffs.  The tables
    # are read dual first on one copy of each game and game first on
    # another, so the game's series are built through the dual and on their
    # own; the dual of the dual reads back the game's tables.
    base, pool = VALUE_KINDS[kind]()
    values = base.dual() if dualize else base
    rng = random.Random(f"dual-series-{kind}-{dualize}")
    for lattice in lattice_iso_classes(6):
        pairs = lattice.strict_pairs()
        for _ in range(3):
            payoff = {p: rng.choice(pool) for p in pairs}
            g = Game(lattice, values, payoff)
            expect = repr(_eager_tables(g))
            dual_expect = repr(_eager_tables(_unlinked_dual(g)))
            assert repr(_unlinked_dual(g).tables()) == dual_expect
            dual_first = Game(lattice, values, payoff)
            d = dual(dual_first)
            assert repr(d.tables()) == dual_expect
            assert repr(dual_first.tables()) == expect
            game_first = Game(lattice, values, payoff)
            assert repr(game_first.tables()) == expect
            d = dual(game_first)
            assert repr(d.tables()) == dual_expect
            assert repr(_eager_tables(d)) == dual_expect
            assert repr(dual(d).tables()) == expect
            assert mu_b_star(dual(Game(lattice, values, payoff))) == mu_a_star(g)


def test_dual_reads_its_series_off_its_game(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _peel(*args)

    monkeypatch.setattr(hgame, "_peel", counted)
    for g in (_potentials_game(fixtures.n5()),
              _seeded_game(fixtures.b2(), FiniteLatticeValues(fixtures.m3()))):
        g.tables()
        assert len(calls) == 4
        calls.clear()
        dual(g).tables()
        dual(dual(g)).tables()
        assert not calls
    for g in (_potentials_game(fixtures.n5()),
              _seeded_game(fixtures.b2(), FiniteChain((0, 1, 2)))):
        calls.clear()
        mu_b_star(dual(g))
        assert len(calls) == 2
        mu_a_star(g)
        assert len(calls) == 2



def _potentials_game(lattice, seed=7):
    return quotient_payoff(lattice, random_potentials(random.Random(seed), lattice))


# Games whose tables decode through each kind of decode map: the lazy slopes
# of a potentials game, the negated view of its dual, a chain's dict and the
# index tuple of non-total lattice values.
LAZY_TABLE_GAMES = {
    "potentials": lambda: _potentials_game(_divisor_lattice(360)),
    "potentials_dual": lambda: dual(_potentials_game(fixtures.chain(12))),
    "chain": lambda: _seeded_game(fixtures.n5(), FiniteChain((0, 1, 2))),
    "n5_values": lambda: dual(
        _seeded_game(fixtures.b2(), FiniteLatticeValues(fixtures.n5()))
    ),
}


def _seeded_game(lattice, values):
    rng = random.Random(3)
    return Game(lattice, values, {p: rng.choice(values.elements)
                                  for p in lattice.strict_pairs()})


def _eager_tables(g):
    pairs = g.lattice.strict_pairs()
    return MuTables(
        *({p: oracle(g, *p) for p in pairs}
          for oracle in (mu_max_oracle, mu_min_oracle, mu_a_oracle, mu_b_oracle))
    )


@pytest.mark.parametrize("kind", sorted(LAZY_TABLE_GAMES))
def test_lazy_tables_equal_eager_tables(kind):
    make = LAZY_TABLE_GAMES[kind]
    expect = _eager_tables(make())
    # Equal, and the same repr, before any field is read and after.
    t = make().tables()
    assert repr(t) == repr(expect)
    t = make().tables()
    assert t == expect and expect == t
    assert repr(t) == repr(expect)
    for name in ("mu_max", "mu_min", "mu_a", "mu_b"):
        field = getattr(t, name)
        assert field == getattr(expect, name)
        assert getattr(t, name) is field
        with pytest.raises(AttributeError):
            setattr(t, name, {})
    assert t != MuTables(expect.mu_max, expect.mu_min, expect.mu_a, {})


@pytest.mark.parametrize("kind", sorted(LAZY_TABLE_GAMES))
def test_tables_hold_no_reference_to_their_game(kind):
    g = LAZY_TABLE_GAMES[kind]()
    t = g.tables()
    mu_a_field = t.mu_a
    expect = _eager_tables(g)
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()
    assert t.mu_a is mu_a_field
    assert t == expect


def test_dual_of_encoded_potentials_game_matches_dual_of_value_game():
    for lattice in (fixtures.chain(12), _divisor_lattice(360), fixtures.n5()):
        for seed in range(3):
            g = _potentials_game(lattice, seed)
            d = dual(g)
            assert d._payoff is None
            ref = dual(Game(lattice, g.values, dict(g.payoff)))
            assert d.payoff == ref.payoff
            assert d.tables() == ref.tables()
            assert repr(d.tables()) == repr(ref.tables())
            assert dual(d).payoff == g.payoff


def test_games_hold_codes_only():
    # Built from values, from rank/degree tables, from potentials or from a
    # group: no payoff dict until it is read, and point reads build none.
    l = fixtures.b2()
    given = {p: Fraction(k, 2) for k, p in enumerate(l.strict_pairs())}
    data = random_potentials(random.Random(3), l)
    tables = potential_tables_oracle(l, data)
    games = [
        Game(l, ExtendedRationals(), given),
        quotient_payoff(l, data),
        quotient_payoff(l, PotentialData.from_tables(l, *tables)),
        coprimary_game(FiniteAbelianGroup([12])),
    ]
    for g in games:
        assert g._payoff is None
        reads = {p: g.mu(*p) for p in g.lattice.strict_pairs()}
        assert g._payoff is None
        assert g.payoff == reads
    assert games[0].payoff == given
    assert games[1].payoff == games[2].payoff


def test_check_path_leaves_potentials_payoff_undecoded():
    # What a check and an hn report read, through codes and point reads:
    # no payoff dict is built, and only the values handed out are decoded.
    for lattice in (fixtures.chain(30), _divisor_lattice(360)):
        g = _potentials_game(lattice)
        l = g.lattice
        for predicate in (is_convex, is_affine, is_semistable, is_stable,
                          is_slope_like, has_nash_equilibrium):
            predicate(g)
        report = nash_tfae_report(g)
        reads = [g.mu(l.bot, l.top)] + [
            read(g, l.bot, l.top) for read in (mu_max, mu_min, mu_a, mu_b)
        ]
        d = dual(g)
        assert mu_b_star(d) == mu_a_star(g)
        steps = ()
        if is_convex(g):
            steps = canonical_hn_filtration(g).filtration.mu_a_steps
        assert g._payoff is None and d._payoff is None
        assert len(g._codes[1].built) <= len(reads) + len(steps)
        assert report.items == (report.nash,) * 4
        assert reads[0] == g.payoff[(l.bot, l.top)]


def _assert_slope_like_matches_oracles(g):
    for d in (g, dual(g)):
        # The seesaw trichotomy is its own scan, not the slope-like verdict:
        # it writes no verdict and no series.  A quotient game holds its
        # verdict from construction, a dual none.
        before = None if d._derived is None else list(d._derived)
        assert has_seesaw_violation(d) == seesaw_violation_oracle(d)
        assert d._derived == before
        verdict = slope_like_oracle(d)
        assert is_slope_like(d) == verdict
        assert is_slope_like(Game(d.lattice, d.values, d.payoff)) == verdict


def test_only_theorem_constructors_record_verdicts(monkeypatch):
    # A quotient game is built slope-like and a coprimary game convex and
    # affine, so reading those verdicts scans nothing.  The same payoff built
    # by the public constructor, the dual and a restriction hold no verdict
    # and scan once each, to the same verdict.
    scans = []
    for name in ("_scan_slope_like", "_scan_convexity"):
        scan = getattr(hgame, name)
        monkeypatch.setattr(
            hgame, name, lambda g, scan=scan: scans.append(g) or scan(g)
        )
    cases = (
        (_potentials_game(_divisor_lattice(360)), is_slope_like),
        (coprimary_game(FiniteAbelianGroup((2, 6))), is_convex),
        (coprimary_game(FiniteAbelianGroup((2, 6))), is_affine),
    )
    for g, verdict in cases:
        scans.clear()
        assert verdict(g) and scans == []
        l = g.lattice
        mid = next(x for x in l.elements() if l.lt(l.bot, x) and x != l.top)
        for other in (
            Game(l, g.values, g.payoff),
            dual(g),
            restrict(g, Interval(l, mid, l.top)),
        ):
            assert other._derived is None
            assert verdict(other) and scans == [other]
            scans.clear()


def test_slope_like_is_not_cover_local():
    # On the 5-chain every chain triple but (0, 2, 4) has a cover step, so
    # these tables differ only there; a check that read cover steps alone
    # would call all 101 slope-like.
    tables = cover_step_slope_like_tables(5, 5)
    assert len(tables) == 101
    lattice = fixtures.chain(5)
    assert all(lattice.lt(i, i + 1) for i in range(4))
    only_024 = {(0, 1): 0, (0, 2): 1, (0, 3): 1, (0, 4): 2, (1, 2): 4,
                (1, 3): 2, (1, 4): 3, (2, 3): 1, (2, 4): 2, (3, 4): 4}
    assert only_024 in tables
    verdicts = []
    ranked = ("v0", "v1", "v2", "v3", "v4")
    for values, labels in (
        (FiniteChain(range(5)), range(5)),
        (_unsorted_chain(ranked, ("v3", "v0", "v4", "v1", "v2")), ranked),
    ):
        for table in tables:
            payoff = {p: labels[v] for p, v in table.items()}
            g = Game(lattice, values, payoff)
            _assert_slope_like_matches_oracles(g)
            verdicts.append(is_slope_like(g))
            if table == only_024:
                assert not is_slope_like(g)
                assert seesaw_classify(g, 0, 2, 4) == VIOLATION
    assert verdicts.count(False) == 2 * 44


def _perturbed(g, rng):
    # One payoff moved to another value of the game, or just past one.
    payoff = dict(g.payoff)
    pair = rng.choice(sorted(payoff))
    other = payoff[rng.choice(sorted(payoff))]
    payoff[pair] = other + rng.choice((0, Fraction(1, 7), Fraction(-1, 7)))
    return Game(g.lattice, g.values, payoff)


def test_slope_like_on_perturbed_potentials_games():
    rng = random.Random(13)
    verdicts = set()
    for lattice in (fixtures.chain(9), fixtures.chain(24), _divisor_lattice(60),
                    _divisor_lattice(360)):
        for seed in range(3):
            g = _potentials_game(lattice, seed)
            _assert_slope_like_matches_oracles(g)
            assert is_slope_like(g)
            for _ in range(4):
                p = _perturbed(g, rng)
                _assert_slope_like_matches_oracles(p)
                verdicts.add(is_slope_like(p))
    assert verdicts == {False, True}


@pytest.mark.parametrize("kind", ["b2", "m3", "n5"])
def test_slope_like_on_non_total_values(kind):
    values, pool = VALUE_KINDS[kind]()
    rng = random.Random(kind)
    verdicts = set()
    for lattice in (fixtures.chain(6), fixtures.b2(), fixtures.n5(),
                    _divisor_lattice(12)):
        pairs = lattice.strict_pairs()
        for _ in range(40):
            # Few distinct values, so that some games pass.
            few = rng.sample(pool, 2)
            g = Game(lattice, values, {p: rng.choice(few) for p in pairs})
            _assert_slope_like_matches_oracles(g)
            verdicts.add(is_slope_like(g))
    assert verdicts == {False, True}


def test_slope_like_violation_on_first_and_later_line_use(monkeypatch):
    # mu(x, z) = x + z on the 5-chain is slope-like: x + y < x + z < y + z.
    # Pairs are checked row by row, (0, 2), (0, 3), (0, 4), (1, 3), (1, 4),
    # ...; a line is sorted only on a use after its first.
    built = []
    ranked_line = hgame._ranked_line
    monkeypatch.setattr(
        hgame, "_ranked_line", lambda *args: built.append(1) or ranked_line(*args)
    )
    lattice = fixtures.chain(5)
    values = FiniteChain(range(8))
    base = {(x, z): x + z for x, z in lattice.strict_pairs()}

    def verdict(changes):
        g = Game(lattice, values, {**base, **changes})
        built.clear()
        result = is_slope_like(g)
        assert result == slope_like_oracle(g)
        return result, len(built)

    slope_like, sorted_lines = verdict({})
    assert slope_like and sorted_lines > 0
    # mu(0, 2) = mu(0, 1) < mu(1, 2) fails (0, 1, 2), on row 0's first use.
    assert verdict({(0, 2): 1}) == (False, 0)
    # mu(1, 4) = mu(2, 4) fails only (1, 2, 4), found once row 1 and column
    # 4 are both sorted.
    assert verdict({(1, 4): 6}) == (False, 2)


def test_restrict_potentials_game_slices_codes():
    for lattice in (fixtures.chain(12), _divisor_lattice(360)):
        g = _potentials_game(lattice)
        l = g.lattice
        for lo, hi in l.strict_pairs()[::7]:
            ival = Interval(l, lo, hi)
            sub = restrict(g, ival)
            amb = ival.member_indices()
            ref = Game(sub.lattice, g.values, {
                (i, j): g.mu(amb[i], amb[j]) for i, j in sub.lattice.strict_pairs()
            })
            assert sub._payoff is None
            assert sub.tables() == ref.tables()
            assert repr(dual(sub).tables()) == repr(dual(ref).tables())
            assert dual(sub).payoff == dual(ref).payoff
            assert sub.payoff == ref.payoff
            assert is_slope_like(sub) and is_slope_like(dual(sub))
        assert g._payoff is None


def _shuffled_lattice(rng, n):
    """A random n-element lattice whose elements are listed in a shuffled
    order, so that index order is not a linear extension of it."""
    base = random_lattice(rng, n)
    names = list(base.names)
    rng.shuffle(names)
    relation = [(base.names[i], base.names[j]) for i, j in base.strict_pairs()]
    return as_bounded_lattice(build_poset(names, relation))


# Value kinds for the convexity kernel: a constant value, a pool to draw
# payoffs from, and bumps to set on a few pairs of a constant game.
CONVEXITY_KINDS = {
    "rationals": lambda: (
        ExtendedRationals(), Fraction(0),
        [NEG_INF, Fraction(-1), Fraction(0), Fraction(1, 2), POS_INF],
        [NEG_INF, Fraction(1), POS_INF],
    ),
    "n5_values": lambda: (
        FiniteLatticeValues(fixtures.n5()), "a",
        ["bot", "a", "b", "c", "top"], ["bot", "b", "c"],
    ),
    "m3_values": lambda: (
        FiniteLatticeValues(fixtures.m3()), "x",
        ["bot", "x", "y", "z", "top"], ["bot", "y", "top"],
    ),
}


def _assert_convexity_matches_oracle(g):
    expect = (
        convexity_oracle(g, require_equal=False),
        convexity_oracle(g, require_equal=True),
    )
    assert (is_convex(g), is_affine(g)) == expect
    return expect


@pytest.mark.parametrize("kind", sorted(CONVEXITY_KINDS))
def test_convexity_matches_oracle_on_shuffled_random_lattices(kind):
    # Random lattices of 7 to 13 elements in shuffled index order; payoffs
    # drawn from the pool, and constant games with one or two pairs bumped,
    # so that convex, affine and failing games all occur.  Each game and its
    # dual, whose code order is reversed, get their own verdicts.
    values, const, pool, bumps = CONVEXITY_KINDS[kind]()
    rng = random.Random(f"convexity-{kind}")
    seen = set()
    unordered = 0
    for _ in range(24):
        l = _shuffled_lattice(rng, rng.randint(7, 13))
        pairs = l.strict_pairs()
        unordered += any(i > j for i, j in pairs)
        games = [{p: rng.choice(pool) for p in pairs} for _ in range(4)]
        for _ in range(8):
            payoff = dict.fromkeys(pairs, const)
            for p in rng.sample(pairs, rng.randint(1, 2)):
                payoff[p] = rng.choice(bumps)
            games.append(payoff)
        for payoff in games:
            g = Game(l, values, payoff)
            for h in (g, dual(g)):
                seen.add(_assert_convexity_matches_oracle(h))
    assert unordered > 0
    assert seen == {(True, True), (True, False), (False, False)}


ONE_VALUE_KINDS = {
    "chain": lambda: (FiniteChain((0, 1, 2)), [0, 1, 2]),
    "rationals": lambda: (
        ExtendedRationals(), [Fraction(0), NEG_INF, Fraction(1, 3), POS_INF]
    ),
    "n5_values": lambda: (
        FiniteLatticeValues(fixtures.n5()), ["a", "bot", "b", "c", "top"]
    ),
}


@pytest.mark.parametrize("kind", sorted(ONE_VALUE_KINDS))
def test_one_and_two_valued_games_match_convexity_oracle(kind):
    # A one-valued game is convex and affine, which the kernel decides
    # before it reads the meet/join tables: each constant game on every
    # lattice class with 2 to 6 elements.  A game with two values needs
    # the full pass: each constant game of the first value with one pair
    # moved to another value, which is often neither.
    values, pool = ONE_VALUE_KINDS[kind]()
    seen = set()
    for l in lattice_iso_classes(6):
        pairs = l.strict_pairs()
        for v in pool:
            g = Game(l, values, dict.fromkeys(pairs, v))
            for h in (g, dual(g)):
                assert _assert_convexity_matches_oracle(h) == (True, True)
        for p in pairs:
            for w in pool[1:]:
                payoff = dict.fromkeys(pairs, pool[0])
                payoff[p] = w
                g = Game(l, values, payoff)
                for h in (g, dual(g)):
                    seen.add(_assert_convexity_matches_oracle(h))
    assert seen == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("kind", SERIES_KINDS)
def test_constant_game_series_are_its_codes_and_match_oracles(kind, monkeypatch):
    # Every series of a one-valued payoff is its codes, read with no peel,
    # on every lattice class with 2 to 6 elements, for each game and its
    # dual.
    peels = []
    peel = hgame._peel
    monkeypatch.setattr(hgame, "_peel", lambda *args: peels.append(args) or peel(*args))
    values, pool = VALUE_KINDS[kind]()
    for l in lattice_iso_classes(6):
        for v in pool:
            g = Game(l, values, dict.fromkeys(l.strict_pairs(), v))
            for h in (g, dual(g)):
                assert repr(h.tables()) == repr(_eager_tables(h)), (kind, v)
            assert all(s is g._codes[0] for s in g._derived[:4])
    assert not peels


def _row_outcomes(g):
    """For each x with an incomparable element, in index order: whether
    mu(x ^ y, x) == mu(y, x v y) for every y, and whether <= holds for every
    y, by the oracle value order."""
    l = g.lattice
    leq = value_order_oracle(g.values).leq
    rows = []
    for x in l.elements():
        sides = [
            (g.payoff[(l.meet[x][y], x)], g.payoff[(y, l.join[x][y])])
            for y in l.elements()
            if not l.le(x, y) and not l.le(y, x)
        ]
        if sides:
            rows.append((
                all(a == b for a, b in sides),
                all(leq(a, b) for a, b in sides),
            ))
    return rows


def test_convexity_verdicts_past_the_first_unequal_row():
    # Constant games on B2, B3, N5 and M3 with one or two pairs bumped to
    # -inf or +inf.  The kernel compares rows as lists until the first
    # unequal one and checks <= from there on, so among these games there
    # must be convex, non-affine ones whose first unequal row is not the
    # last, and games whose only failing row is the last one, after an
    # earlier unequal row that holds.
    found = set()
    for l in (fixtures.b2(), fixtures.b3(), fixtures.n5(), fixtures.m3()):
        pairs = l.strict_pairs()
        bumped = [(p,) for p in pairs] + [
            (p, q) for i, p in enumerate(pairs) for q in pairs[i + 1:]
        ]
        for ps in bumped:
            for bump in (NEG_INF, POS_INF):
                payoff = dict.fromkeys(pairs, Fraction(0))
                payoff.update(dict.fromkeys(ps, bump))
                g = Game(l, ExtendedRationals(), payoff)
                convex, affine = _assert_convexity_matches_oracle(g)
                rows = _row_outcomes(g)
                equal = [eq for eq, _ in rows]
                holds = [le for _, le in rows]
                if convex and not affine and equal.index(False) < len(rows) - 1:
                    found.add("convex past the first unequal row")
                if (
                    holds[-1] is False and all(holds[:-1])
                    and not all(equal[:-1])
                ):
                    found.add("fails on the last row only")
    assert found == {
        "convex past the first unequal row", "fails on the last row only",
    }


def test_convexity_verdicts_are_cached_per_game(monkeypatch):
    # One pass gives both verdicts, cached on the game; a dual and a
    # restriction are new games and run their own pass.  The pass leaves
    # nothing on the lattice.
    passes = []
    scan = hgame._scan_convexity
    monkeypatch.setattr(
        hgame, "_scan_convexity", lambda g: passes.append(g) or scan(g)
    )
    l = fixtures.b3()
    g = fixtures.constant_game(l)
    cached = set(l._cache)
    expect = _assert_convexity_matches_oracle(g)
    assert set(l._cache) == cached
    assert is_affine(g) == expect[1] and is_convex(g) == expect[0]
    canonical_hn_filtration(g)
    assert passes == [g]
    d = dual(g)
    sub = restrict(g, Interval(l, l.index("x"), l.top))
    for h in (d, sub):
        cached = set(h.lattice._cache)
        assert is_affine(h) == convexity_oracle(h, require_equal=True)
        assert is_convex(h) == convexity_oracle(h, require_equal=False)
        assert set(h.lattice._cache) == cached
    assert passes == [g, d, sub]
    assert not any("convex" in key for key in (*l._cache, *l.dual()._cache))
