from fractions import Fraction

import pytest

from hngame import filtration as hfiltration
from hngame import fixtures
from hngame.errors import (
    EmptySt,
    MalformedFiltration,
    PreconditionFailed,
    TooLarge,
)
from hngame.filtration import (
    canonical_hn_filtration,
    enumerate_hn_filtrations,
    greatest_st,
    mu_admissible,
    st_set,
    validate_hn,
    _st_set_on,
)
from hngame.game import Game, is_convex, restrict
from hngame.order import Interval
from hngame.values import ExtendedRationals, FiniteLatticeValues


@pytest.fixture(scope="module")
def gmod():
    return fixtures.g_mod()


def names_of(g, indices):
    return sorted(g.lattice.names[i] for i in indices)


def test_st_set_gmod(gmod):
    assert names_of(gmod, st_set(gmod)) == ["a"]


def test_st_set_constant_is_top():
    g = fixtures.g_const()
    assert st_set(g) == frozenset({g.lattice.top})


def test_st_set_two_element():
    g = fixtures.constant_game(fixtures.c2(), Fraction(1))
    assert st_set(g) == frozenset({g.lattice.top})


def test_st_set_on_interval_matches_restriction(gmod):
    for g in (gmod, fixtures.g_const(), fixtures.steep_chain()):
        l = g.lattice
        for lo, hi in l.strict_pairs():
            ival = Interval(l, lo, hi)
            sub = restrict(g, ival)
            amb = ival.member_indices()
            lifted = frozenset(amb[i] for i in st_set(sub))
            assert lifted == _st_set_on(g, lo, hi)


def test_greatest_st(gmod):
    assert gmod.lattice.names[greatest_st(gmod)] == "a"


def test_greatest_st_semistable_is_top():
    g = fixtures.g_const()
    assert greatest_st(g) == g.lattice.top


def test_greatest_st_on_upper_interval(gmod):
    l = gmod.lattice
    sub = restrict(gmod, Interval(l, l.index("a"), l.top))
    assert greatest_st(sub) == sub.lattice.top


def test_greatest_st_requires_convexity():
    l = fixtures.b2()
    payoff = {p: Fraction(0) for p in l.strict_pairs()}
    payoff[(l.bot, l.index("a"))] = Fraction(3)
    payoff[(l.index("b"), l.top)] = Fraction(1)
    g = Game(l, ExtendedRationals(), payoff)
    assert not is_convex(g)
    with pytest.raises(PreconditionFailed):
        greatest_st(g)


def test_mu_admissible_total_always():
    assert mu_admissible(fixtures.g_mod())


def test_mu_admissible_non_total_unattained():
    # Values in B2: mu_max over the two atoms are "a" and "b"; their meet
    # "bot" is attained by no witness, so the game is not admissible.
    values = FiniteLatticeValues(fixtures.b2())
    l = fixtures.b2()
    payoff = {
        (l.bot, l.index("a")): "a",
        (l.bot, l.index("b")): "b",
        (l.bot, l.top): "bot",
        (l.index("a"), l.top): "b",
        (l.index("b"), l.top): "a",
    }
    g = Game(l, values, payoff)
    assert not mu_admissible(g)
    with pytest.raises(PreconditionFailed):
        canonical_hn_filtration(g)


def test_mu_admissible_scans_once_per_game(monkeypatch):
    # M3 values on a 12-chain, top, x and bot on three blocks of the upper
    # end: admissible and convex, with a three-step canonical filtration.
    # greatest_st and canonical_hn_filtration share one admissibility scan.
    scans = []
    scan = hfiltration._scan_admissible
    monkeypatch.setattr(
        hfiltration, "_scan_admissible", lambda g: scans.append(g) or scan(g)
    )
    l = fixtures.chain(12)
    blocks = ("top", "x", "bot")
    g = Game(l, FiniteLatticeValues(fixtures.m3()),
             {(x, y): blocks[y // 4] for x, y in l.strict_pairs()})
    assert greatest_st(g) == 3
    report = canonical_hn_filtration(g)
    assert report.valid and report.filtration.steps == (0, 3, 7, 11)
    assert scans == [g]


def test_canonical_gmod(gmod):
    report = canonical_hn_filtration(gmod)
    assert report.filtration.labels(gmod.lattice) == ("bot", "a", "top")
    assert report.filtration.mu_a_steps == (3, 1)
    assert report.valid


def test_canonical_constant_single_step():
    g = fixtures.g_const()
    report = canonical_hn_filtration(g)
    assert report.filtration.labels(g.lattice) == ("bot", "top")
    assert report.valid


def test_validate_hn_gmod_chains(gmod):
    l = gmod.lattice
    good = validate_hn(gmod, (l.bot, l.index("a"), l.top))
    assert good.valid
    bad_order = validate_hn(gmod, (l.bot, l.index("b"), l.top))
    assert not bad_order.valid
    assert bad_order.mu_a_decreasing == (False,)
    bad_semistable = validate_hn(gmod, (l.bot, l.top))
    assert not bad_semistable.valid
    assert bad_semistable.piecewise_semistable == (False,)


def test_validate_hn_malformed(gmod):
    l = gmod.lattice
    with pytest.raises(MalformedFiltration):
        validate_hn(gmod, (l.bot,))
    with pytest.raises(MalformedFiltration):
        validate_hn(gmod, (l.index("a"), l.top))
    with pytest.raises(MalformedFiltration):
        validate_hn(gmod, (l.bot, l.index("a"), l.index("b"), l.top))


def test_enumerate_gmod_unique(gmod):
    found = enumerate_hn_filtrations(gmod)
    assert [f.labels(gmod.lattice) for f in found] == [("bot", "a", "top")]


def test_enumerate_constant_unique():
    g = fixtures.g_const()
    found = enumerate_hn_filtrations(g)
    assert [f.labels(g.lattice) for f in found] == [("bot", "top")]


def test_enumerate_guard():
    g = fixtures.constant_game(fixtures.chain(17))
    with pytest.raises(TooLarge):
        enumerate_hn_filtrations(g)


def test_empty_st_diagnostic_reachable():
    # Two incomparable atoms both attain the maximal destabilizing value, so
    # neither dominates all attainers and the set is empty.  The game is not
    # convex, so no theorem is contradicted.
    from hngame.filtration import _greatest_st_on

    l = fixtures.m3()
    payoff = {p: Fraction(0) for p in l.strict_pairs()}
    payoff[(l.bot, l.index("x"))] = Fraction(3)
    payoff[(l.bot, l.index("y"))] = Fraction(3)
    g = Game(l, ExtendedRationals(), payoff)
    assert not is_convex(g)
    assert st_set(g) == frozenset()
    with pytest.raises(EmptySt):
        _greatest_st_on(g, l.bot, l.top)


def test_filtration_properties_on_quotient_games():
    # Existence/uniqueness spot checks on random quotient payoffs.
    import random

    from hngame.sweeps import random_quotient_game

    rng = random.Random(7)
    convex_seen = 0
    for _ in range(40):
        g = random_quotient_game(rng, max_elements=6)
        if not is_convex(g):
            continue
        convex_seen += 1
        report = canonical_hn_filtration(g)
        assert report.valid
        found = enumerate_hn_filtrations(g)
        assert len(found) == 1
        assert found[0].steps == report.filtration.steps
    assert convex_seen > 5
