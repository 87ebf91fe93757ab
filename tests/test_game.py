import random
from fractions import Fraction

import pytest

from hngame import fixtures
from hngame.errors import NotAChain, NotStrict, PreconditionFailed
from hngame.filtration import _st_set_on, enumerate_hn_filtrations, st_set
from hngame.game import (
    DECREASING,
    FLAT,
    INCREASING,
    VIOLATION,
    Game,
    MuTables,
    dual,
    has_nash_equilibrium,
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
from hngame.jordan_holder import enumerate_jh_filtrations
from hngame.order import Interval, as_bounded_lattice, build_poset
from hngame.slopes import quotient_payoff
from hngame.sweeps import iter_payoff_tables, lattice_iso_classes, random_potentials
from hngame.values import (
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
    divisors,
    hn_filtrations_oracle,
    interval_semistable_oracle,
    interval_stable_oracle,
    jh_filtrations_oracle,
    mu_a_oracle,
    mu_b_oracle,
    mu_max_oracle,
    mu_min_oracle,
    slope_like_oracle,
    st_set_on_oracle,
)


@pytest.fixture(scope="module")
def gmod():
    return fixtures.g_mod()


def test_payoff_domain_enforced():
    l = fixtures.c3()
    with pytest.raises(ValueError):
        Game(l, ExtendedRationals(), {(0, 1): Fraction(1)})
    good = {p: Fraction(0) for p in l.strict_pairs()}
    bad = dict(good)
    bad[(1, 0)] = Fraction(1)
    with pytest.raises(ValueError):
        Game(l, ExtendedRationals(), bad)


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
            _assert_series_match_oracles(Game._trusted(lattice, values, table))


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
    assert values.compare("a", "b") == "incomparable"
    # mu_a(bot, a) = "a" while mu_a(bot, top) = top ^ b ^ b = "b".
    assert mu_a(g, l.bot, l.index("a")) == "a"
    assert mu_a(g, l.bot, l.top) == "b"
    assert not values.leq("a", "b")
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
            t = g.tables()
            for pair in lattice.strict_pairs():
                assert g.values.leq(t.mu_a[pair], t.mu_max[pair])
                assert g.values.leq(t.mu_min[pair], t.mu_b[pair])


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
    "primes": lambda: (PrimeFinsets([2, 3, 5]), PrimeFinsets([2, 3, 5]).all_subsets()),
    "b2": lambda: _lattice_kind(fixtures.b2()),
    "m3": lambda: _lattice_kind(fixtures.m3()),
    "n5": lambda: _lattice_kind(fixtures.n5()),
}


def _lattice_kind(lattice):
    values = FiniteLatticeValues(lattice)
    return values, values.elements


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
    jh = [f.steps for f in enumerate_jh_filtrations(g)]
    assert len(jh) == len(set(jh))
    assert set(jh) == jh_filtrations_oracle(g)


@pytest.mark.parametrize("dualize", [False, True], ids=["primal", "dual"])
@pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
def test_engine_matches_value_level_oracles(kind, dualize):
    # Every lattice class with up to 5 elements, seeded payoffs over the kind;
    # the engine reads payoff codes, the oracles only the value methods.
    base, pool = VALUE_KINDS[kind]()
    values = base.dual() if dualize else base
    rng = random.Random(f"{kind}-{dualize}")
    for lattice in lattice_iso_classes(5):
        pairs = lattice.strict_pairs()
        for _ in range(30):
            payoff = {p: rng.choice(pool) for p in pairs}
            _assert_engine_matches_oracles(Game(lattice, values, payoff))
            _assert_engine_matches_oracles(dual(Game._trusted(lattice, values, payoff)))
