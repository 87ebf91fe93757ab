import random
from fractions import Fraction

import pytest

from hngame import fixtures
from hngame.errors import AdditivityViolation, ZeroRankNonpositiveDegree
from hngame.game import is_slope_like, seesaw_classify, VIOLATION
from hngame.order import _iter_bits
from hngame.slopes import PotentialData, RankDegreeData, quotient_payoff
from hngame.sweeps import random_quotient_game
from hngame.values import POS_INF

from oracles import slope_oracle


def test_gmod_from_potentials():
    g = fixtures.g_mod()
    l = g.lattice
    expected = {
        ("bot", "a"): Fraction(3),
        ("bot", "b"): Fraction(1),
        ("bot", "top"): Fraction(2),
        ("a", "top"): Fraction(1),
        ("b", "top"): Fraction(3),
    }
    for (na, nb), v in expected.items():
        assert g.mu(l.index(na), l.index(nb)) == v


def test_zero_rank_gives_plus_infinity():
    l = fixtures.c2()
    rd = RankDegreeData.from_tables(
        l, {(l.bot, l.top): 0}, {(l.bot, l.top): 1}
    )
    g = quotient_payoff(l, rd)
    assert g.mu(l.bot, l.top) == POS_INF


def test_single_pair_slope():
    l = fixtures.c2()
    rd = RankDegreeData.from_tables(
        l, {(l.bot, l.top): 2}, {(l.bot, l.top): 3}
    )
    g = quotient_payoff(l, rd)
    assert g.mu(l.bot, l.top) == Fraction(3, 2)


def test_additivity_violation_detected():
    l = fixtures.c3()
    a = l.index("a")
    rank = {(l.bot, a): 1, (a, l.top): 1, (l.bot, l.top): 2}
    degree = {(l.bot, a): 1, (a, l.top): 1, (l.bot, l.top): 5}
    with pytest.raises(AdditivityViolation) as err:
        RankDegreeData.from_tables(l, rank, degree)
    assert err.value.table == "degree"


def test_zero_rank_needs_positive_degree():
    l = fixtures.c2()
    with pytest.raises(ZeroRankNonpositiveDegree):
        RankDegreeData.from_tables(l, {(l.bot, l.top): 0}, {(l.bot, l.top): 0})


def test_negative_rank_rejected():
    l = fixtures.c2()
    with pytest.raises(ValueError):
        RankDegreeData.from_tables(l, {(l.bot, l.top): -1}, {(l.bot, l.top): 1})


def test_potentials_must_be_order_preserving():
    with pytest.raises(ValueError):
        PotentialData(
            {"bot": 0, "a": 2, "top": 1}, {"bot": 0, "a": 1, "top": 2}
        ).tables(fixtures.c3())


def test_quotient_payoffs_match_literal_slopes():
    g = fixtures.g_mod()
    potentials = PotentialData(
        rank_potential={"bot": 0, "a": 1, "b": 1, "top": 2},
        degree_potential={"bot": 0, "a": 3, "b": 1, "top": 4},
    )
    rd = potentials.tables(g.lattice)
    for pair in g.lattice.strict_pairs():
        assert g.payoff[pair] == slope_oracle(rd.rank[pair], rd.degree[pair])


def test_fixture_quotients_are_slope_like():
    assert is_slope_like(fixtures.g_mod())
    assert is_slope_like(fixtures.steep_chain())


def test_random_quotients_are_slope_like_and_seesaw_clean():
    rng = random.Random(20240809)
    for _ in range(120):
        g = random_quotient_game(rng, max_elements=8)
        assert is_slope_like(g)
        l = g.lattice
        for x, z in l.strict_pairs():
            for y in _iter_bits(l.strictly_between(x, z)):
                assert seesaw_classify(g, x, y, z) != VIOLATION


def test_seesaw_sign_identity_for_positive_ranks():
    # For chain triples with all ranks positive, the sign of
    # mu(x,y) - mu(x,z) equals the sign of mu(x,z) - mu(y,z).
    rng = random.Random(5)
    for _ in range(60):
        g = random_quotient_game(rng, max_elements=7)
        l = g.lattice
        for x, z in l.strict_pairs():
            for y in _iter_bits(l.strictly_between(x, z)):
                vxy, vxz, vyz = (
                    g.payoff[(x, y)], g.payoff[(x, z)], g.payoff[(y, z)]
                )
                if POS_INF in (vxy, vxz, vyz):
                    continue
                left = (vxy > vxz) - (vxy < vxz)
                right = (vxz > vyz) - (vxz < vyz)
                assert left == right


def test_common_scaling_leaves_payoff_unchanged():
    l = fixtures.b2()
    base = PotentialData(
        rank_potential={"bot": 0, "a": 1, "b": 1, "top": 2},
        degree_potential={"bot": 0, "a": 3, "b": 1, "top": 4},
    ).tables(l)
    scaled = RankDegreeData.from_tables(
        l,
        {p: v * Fraction(5, 3) for p, v in base.rank.items()},
        {p: v * Fraction(5, 3) for p, v in base.degree.items()},
    )
    assert quotient_payoff(l, base).payoff == quotient_payoff(l, scaled).payoff
