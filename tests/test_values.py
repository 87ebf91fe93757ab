from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hngame import fixtures
from hngame.game import Game
from hngame.order import BoundedLattice
from hngame.values import (
    INT_ORDER,
    NEG_INF,
    POS_INF,
    ExtendedRationals,
    FiniteChain,
    FiniteLatticeValues,
    PrimeFinsets,
)


def test_extended_rationals_order_and_bounds():
    s = ExtendedRationals()
    assert s.leq(NEG_INF, Fraction(-1000))
    assert s.leq(Fraction(1000), POS_INF)
    assert s.compare(Fraction(1, 3), Fraction(2, 6)) == "eq"
    assert s.contains(Fraction(1, 2)) and s.contains(POS_INF)
    assert not s.contains("1/2")


def test_finite_chain_sup_inf():
    s = FiniteChain((0, 1, 2))
    assert s.sup([0, 2, 1]) == 2
    assert s.inf([2, 1]) == 1
    assert s.sup([]) == 0
    assert s.inf([]) == 2
    assert s.is_total


def test_finite_chain_arbitrary_labels():
    s = FiniteChain(("low", "mid", "high"))
    assert s.sup(["low", "high"]) == "high"
    assert s.leq("low", "mid")


def test_lattice_values_non_total():
    s = FiniteLatticeValues(fixtures.b2())
    assert not s.is_total
    assert s.compare("a", "b") == "incomparable"
    assert s.sup(["a", "b"]) == "top"
    assert s.inf(["a", "b"]) == "bot"
    assert s.sup([]) == "bot"


def test_prime_finsets_order():
    s = PrimeFinsets([3, 2])
    assert s.primes == (2, 3)
    assert s.bot == frozenset()
    assert s.top == frozenset({2, 3})
    assert s.leq(frozenset({2}), frozenset({3}))
    assert s.sup([frozenset({2}), frozenset({3})]) == frozenset({3})
    assert s.inf([]) == s.top


def test_dual_values():
    s = ExtendedRationals()
    d = s.dual()
    assert d.leq(Fraction(2), Fraction(1))
    assert d.sup([Fraction(1), Fraction(2)]) == 1
    assert d.top == NEG_INF and d.bot == POS_INF
    assert d.dual() is s


# Each value kind, made fresh, with a strategy for its values.  The
# rationals include both infinities and Fractions built from unreduced terms.
_RATIONALS = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.builds(
        lambda n, d: Fraction(2 * n, 2 * d), st.integers(-5, 5), st.integers(1, 3)
    ),
    st.sampled_from([POS_INF, NEG_INF]),
)


def _lattice_kind(make):
    return (lambda: FiniteLatticeValues(make())), st.sampled_from(make().names)


_KINDS = {
    "rationals": (ExtendedRationals, _RATIONALS),
    "chain": (lambda: FiniteChain(("low", "mid", "high")),
              st.sampled_from(("low", "mid", "high"))),
    "primes": (lambda: PrimeFinsets([2, 3, 5]),
               st.frozensets(st.sampled_from([2, 3, 5]))),
    "b2": _lattice_kind(fixtures.b2),
    "m3": _lattice_kind(fixtures.m3),
    "n5": _lattice_kind(fixtures.n5),
}


@pytest.mark.parametrize("dualize", [False, True], ids=["primal", "dual"])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_codes_preserve_order_and_decode(kind, dualize):
    make, strategy = _KINDS[kind]
    base = make()
    s = base.dual() if dualize else base

    @given(st.lists(strategy, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def check(values):
        codes, decode = s.encode(values)
        assert len(codes) == len(values)
        for a, ca in zip(values, codes):
            assert repr(decode[ca]) == repr(a)
            for b, cb in zip(values, codes):
                if isinstance(s.code_order, BoundedLattice):
                    up = s.code_order.poset.up
                    assert s.leq(a, b) == bool(up[ca] >> cb & 1)
                else:
                    assert s.code_order is INT_ORDER
                    assert s.leq(a, b) == (ca <= cb)
                assert (a == b) == (ca == cb)
        for v, c in zip(values, codes):
            if v == s.top and s.is_total:
                assert c == max(codes)
            if v == s.bot and s.is_total:
                assert c == min(codes)

    check()


@pytest.mark.parametrize("dualize", [False, True], ids=["primal", "dual"])
@pytest.mark.parametrize("kind, outsider", [
    ("rationals", 1), ("rationals", "1/2"), ("rationals", [1]),
    ("chain", "top"), ("primes", frozenset({7})), ("primes", [2]),
    ("b2", "c"), ("n5", 0),
])
def test_value_outside_lattice_rejected_at_game(kind, outsider, dualize):
    base = _KINDS[kind][0]()
    s = base.dual() if dualize else base
    l = fixtures.c3()
    payoff = dict.fromkeys(l.strict_pairs(), s.top)
    payoff[(l.bot, l.top)] = outsider
    with pytest.raises(ValueError) as info:
        Game(l, s, payoff)
    assert str(info.value) == (
        f"payoff value {outsider!r} at {(l.bot, l.top)} not in value lattice"
    )
