import random
from fractions import Fraction

import pytest

from hngame import fixtures
from hngame.errors import (
    AdditivityViolation,
    HNGameError,
    NegativeRank,
    ZeroRankNonpositiveDegree,
)
from hngame.game import is_slope_like, seesaw_classify, VIOLATION
from hngame.order import _iter_bits, linear_extension
from hngame.slopes import PotentialData, RankDegreeData, quotient_payoff
from hngame.sweeps import random_lattice, random_potentials, random_quotient_game
from hngame.values import POS_INF

from oracles import exact_ranks_oracle, potential_payoff_oracle, slope_oracle


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


def _check_against_oracle(lattice, data):
    """quotient_payoff and PotentialData.tables agree with the literal
    per-pair Fraction computation: equal payoffs of equal types, or the same
    error class and message.  Returns the error, or None."""
    try:
        expected = potential_payoff_oracle(
            lattice, data.rank_potential, data.degree_potential
        )
    except HNGameError as exc:
        for build in (quotient_payoff, lambda l, d: d.tables(l)):
            with pytest.raises(HNGameError) as err:
                build(lattice, data)
            assert type(err.value) is type(exc)
            assert str(err.value) == str(exc)
        return exc
    payoff = quotient_payoff(lattice, data).payoff
    assert payoff == expected
    assert {p: type(v) for p, v in payoff.items()} == {
        p: type(v) for p, v in expected.items()
    }
    tables = data.tables(lattice)
    names = lattice.names
    for x, y in lattice.strict_pairs():
        for table, potential in (
            (tables.rank, data.rank_potential),
            (tables.degree, data.degree_potential),
        ):
            value = table[(x, y)]
            assert type(value) is Fraction
            assert value == Fraction(potential[names[y]]) - Fraction(
                potential[names[x]]
            )
    return None


def test_random_potentials_match_oracle():
    rng = random.Random(90210)
    for _ in range(150):
        lattice = random_lattice(rng, rng.randint(2, 9))
        for flat_chance in (0.0, 0.25, 0.6):
            data = random_potentials(rng, lattice, flat_chance=flat_chance)
            assert _check_against_oracle(lattice, data) is None


def test_potentials_payoff_shares_one_object_per_slope():
    # Point reads taken before the payoff dict exists, and the dict built
    # afterwards, hand out one object per distinct slope.
    rng = random.Random(5)
    for _ in range(60):
        lattice = random_lattice(rng, rng.randint(2, 9))
        data = random_potentials(rng, lattice, flat_chance=0.5)
        expected = _literal_payoff(lattice, data)
        g = quotient_payoff(lattice, data)
        reads = {p: g.mu(*p) for p in lattice.strict_pairs()}
        assert g._payoff is None
        assert g.payoff == expected
        assert [type(v).__name__ for v in g.payoff.values()] == [
            type(expected[p]).__name__ for p in g.payoff
        ]
        first = {}
        for p, v in g.payoff.items():
            assert reads[p] is v
            assert first.setdefault(v, v) is v


def _mixed_fraction(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 5, 7, 12)))


def test_mixed_denominator_potentials_match_oracle():
    # Increasing ranks along a linear extension give valid potentials;
    # arbitrary ranks mostly fail, at the pair the oracle names.
    rng = random.Random(4)
    outcomes = set()
    for _ in range(300):
        lattice = random_lattice(rng, rng.randint(2, 8))
        names = lattice.names
        rank, degree, r_acc = {}, {}, Fraction(0)
        valid = rng.random() < 0.5
        for e in linear_extension(lattice):
            if valid:
                r_acc += _mixed_fraction(rng, 0, 4)
                rank[names[e]] = r_acc
            else:
                rank[names[e]] = _mixed_fraction(rng, -3, 3)
            degree[names[e]] = _mixed_fraction(rng, -9, 9)
        exc = _check_against_oracle(lattice, PotentialData(rank, degree))
        outcomes.add(type(exc))
    assert outcomes == {type(None), NegativeRank, ZeroRankNonpositiveDegree}


def test_first_failing_pair_need_not_be_a_cover():
    l = fixtures.c3()
    bot, a, top = l.bot, l.index("a"), l.top
    # (bot, top) comes before the cover (a, top) in strict_pairs() order.
    assert l.strict_pairs() == ((bot, a), (bot, top), (a, top))
    assert (bot, top) not in l.covers()
    data = PotentialData(
        {"bot": 0, "a": Fraction(1, 2), "top": 0},
        {"bot": Fraction(1, 3), "a": 1, "top": Fraction(-2, 7)},
    )
    exc = _check_against_oracle(l, data)
    assert isinstance(exc, ZeroRankNonpositiveDegree)
    assert exc.pair == ("bot", "top")


def _chain_potentials(rank, degree):
    """The potentials ``rank`` and ``degree``, listed bottom up, on a chain."""
    lattice = fixtures.chain(len(rank))
    return lattice, PotentialData(
        dict(zip(lattice.names, rank)), dict(zip(lattice.names, degree))
    )


BIG = 10**20
TINY = Fraction(1, 10**400)
SLOPE_CASES = {
    # Every slope is 1.0 as a float; exactly, there are four.
    "float_ties": ([0, BIG, 2 * BIG, 2 * BIG + 1],
                   [0, BIG + 1, 2 * BIG + 1, 2 * BIG + 2]),
    # Slopes beyond the float range of both signs, under a zero-rank +inf.
    "beyond_floats": ([0, TINY, 3 * TINY, 3 * TINY],
                      [0, 1, -1, 5]),
    # 2/4, 1/2 and 3/6, one slope from unreduced increments.
    "unreduced": ([0, 4, 6], [0, 2, 3]),
    "negative": ([0, 1, 3, Fraction(7, 2), 5], [0, -2, -3, -10, Fraction(-21, 2)]),
}


def _literal_payoff(lattice, data):
    return potential_payoff_oracle(
        lattice, data.rank_potential, data.degree_potential
    )


def test_slope_cases_reach_their_edges():
    ties = _literal_payoff(*_chain_potentials(*SLOPE_CASES["float_ties"]))
    assert {float(v) for v in ties.values()} == {1.0}
    assert len(set(ties.values())) == 4
    beyond = _literal_payoff(*_chain_potentials(*SLOPE_CASES["beyond_floats"]))
    assert any(v != POS_INF and v > 10**300 for v in beyond.values())
    assert any(v < -(10**300) for v in beyond.values())
    assert POS_INF in beyond.values()
    unreduced = _literal_payoff(*_chain_potentials(*SLOPE_CASES["unreduced"]))
    assert set(unreduced.values()) == {Fraction(1, 2)}


@pytest.mark.parametrize("case", sorted(SLOPE_CASES))
def test_ranked_slopes_encode_like_extended_rationals(case):
    lattice, data = _chain_potentials(*SLOPE_CASES[case])
    assert _check_against_oracle(lattice, data) is None
    expected = _literal_payoff(lattice, data)
    pairs = lattice.strict_pairs()
    g = quotient_payoff(lattice, data)
    codes, decode = g._codes
    exact_codes, distinct = exact_ranks_oracle([expected[p] for p in pairs])
    assert codes == exact_codes
    # decode builds its values on lookup: compare them code by code.
    assert len(decode) == len(distinct)
    for c, v in enumerate(distinct):
        assert repr(decode[c]) == repr(v)
    assert repr(sorted(g.payoff.items())) == repr(sorted(expected.items()))
    assert [type(g.payoff[p]).__name__ for p in pairs] == [
        type(expected[p]).__name__ for p in pairs
    ]
    # One value object per distinct slope.
    assert len({id(v) for v in g.payoff.values()}) == len(decode)


@pytest.mark.parametrize("rank, degree, error", [
    ([0, TINY, 0], [0, 10**400, 1], NegativeRank),
    ([0, TINY, TINY], [0, 1, -(10**400)], ZeroRankNonpositiveDegree),
    ([0, BIG, BIG + 1, BIG + 1], [0, BIG + 1, BIG, BIG], ZeroRankNonpositiveDegree),
])
def test_slope_edge_errors_unchanged(rank, degree, error):
    lattice, data = _chain_potentials(rank, degree)
    assert isinstance(_check_against_oracle(lattice, data), error)
