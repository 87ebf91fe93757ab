import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hngame import fixtures
from hngame.errors import UnknownLabel
from hngame.game import Game
from hngame.order import BoundedLattice, as_bounded_lattice, build_poset
from hngame.values import (
    INT_ORDER,
    NEG_INF,
    POS_INF,
    ExtendedRationals,
    FiniteChain,
    FiniteLatticeValues,
    PrimeFinsets,
)

from oracles import value_order_oracle


def test_extended_rationals_order_and_bounds():
    s = ExtendedRationals()
    codes, _ = s.encode(
        [NEG_INF, Fraction(-1000), Fraction(1, 3), Fraction(2, 6), Fraction(1000),
         POS_INF]
    )
    assert codes == [0, 1, 2, 2, 3, 4]
    assert (s.bot, s.top) == (NEG_INF, POS_INF)
    assert s.contains(Fraction(1, 2)) and s.contains(POS_INF)
    assert not s.contains("1/2")


def test_finite_chain_sup_inf():
    s = FiniteChain((0, 1, 2))
    codes, decode = s.encode([0, 2, 1])
    assert codes == [0, 2, 1]
    assert decode[s.code_order.sup(codes)] == 2
    assert decode[s.code_order.inf(codes[1:])] == 1
    assert (s.bot, s.top) == (0, 2)
    assert s.is_total


def test_finite_chain_arbitrary_labels():
    s = FiniteChain(("low", "mid", "high"))
    codes, decode = s.encode(["low", "high", "mid"])
    assert codes == [0, 2, 1]
    assert decode[s.code_order.sup(codes[:2])] == "high"


def _unsorted_chain():
    """The chain low < mid < high with its labels listed top first."""
    return as_bounded_lattice(
        build_poset(["high", "low", "mid"], [("low", "mid"), ("mid", "high")])
    )


def test_total_lattice_values_code_by_rank():
    s = FiniteLatticeValues(_unsorted_chain())
    assert s.code_order is INT_ORDER and s.is_total
    assert (s.bot, s.top) == ("low", "high")
    codes, decode = s.encode(["high", "low", "mid"])
    assert codes == [2, 0, 1]
    assert [decode[c] for c in codes] == ["high", "low", "mid"]
    d = s.dual()
    assert d.code_order is INT_ORDER and d.is_total
    assert (d.bot, d.top) == ("high", "low")
    dcodes, ddecode = d.encode(["high", "low", "mid"])
    assert dcodes == [-2, 0, -1]
    assert ddecode[d.code_order.sup(dcodes)] == "low"
    assert [ddecode[c] for c in dcodes] == ["high", "low", "mid"]
    back, bdecode = d.dual_codes(dcodes, ddecode)
    assert back == codes and [bdecode[c] for c in back] == ["high", "low", "mid"]
    assert d.dual() is s


def test_finite_chain_is_lattice_values_on_its_chain():
    labels = ("low", "mid", "high")
    s = FiniteChain(labels)
    t = FiniteLatticeValues(fixtures.chain(3, labels))
    assert s == t and t == s
    assert hash(s) == hash(t)
    assert s.encode(labels) == t.encode(labels)
    assert s != FiniteLatticeValues(_unsorted_chain())
    assert s != FiniteChain(labels[::-1])


@pytest.mark.parametrize("elements", [(), ("a", "b", "a")], ids=["empty", "repeated"])
def test_finite_chain_rejects_empty_or_repeated_elements(elements):
    with pytest.raises(ValueError):
        FiniteChain(elements)


def test_lattice_values_non_total():
    s = FiniteLatticeValues(fixtures.b2())
    assert not s.is_total
    (a, b), decode = s.encode(["a", "b"])
    order = s.code_order
    assert not order.le(a, b) and not order.le(b, a)
    assert decode[order.sup([a, b])] == "top"
    assert decode[order.inf([a, b])] == "bot"
    assert s.bot == "bot"


def test_prime_finsets_order():
    s = PrimeFinsets([3, 2])
    assert s.primes == (2, 3)
    assert s.bot == frozenset()
    assert s.top == frozenset({2, 3})
    codes, decode = s.encode([frozenset({2}), frozenset({3}), frozenset()])
    assert codes[2] < codes[0] < codes[1]
    assert decode[s.code_order.sup(codes)] == frozenset({3})


def test_prime_finsets_rejects_repeated_primes():
    with pytest.raises(ValueError):
        PrimeFinsets([2, 2])


def test_prime_finsets_key_rejects_foreign_prime():
    with pytest.raises(UnknownLabel):
        PrimeFinsets([2, 3]).key(frozenset({2, 5}))


def test_prime_finsets_contains():
    s = PrimeFinsets([2, 3, 5])
    for r in range(4):
        for subset in itertools.combinations((2, 3, 5), r):
            assert s.contains(frozenset(subset))
    assert not s.contains(frozenset({2, 7}))
    assert not s.contains({2, 3})
    assert not s.contains((2,))


def test_dual_values():
    s = ExtendedRationals()
    d = s.dual()
    codes, decode = d.encode([Fraction(2), Fraction(1)])
    assert codes[0] < codes[1]
    assert decode[d.code_order.sup(codes)] == 1
    assert d.top == NEG_INF and d.bot == POS_INF
    assert d.dual() is s


# Each value kind, made fresh, with a strategy for its values.  The
# rationals include both infinities, Fractions built from unreduced terms,
# Fractions that all round to the float 1.0, and Fractions beyond the float
# range of both signs.
_RATIONALS = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.builds(
        lambda n, d: Fraction(2 * n, 2 * d), st.integers(-5, 5), st.integers(1, 3)
    ),
    st.sampled_from([POS_INF, NEG_INF]),
    st.builds(lambda k: Fraction(10**20 + k, 10**20), st.integers(-3, 3)),
    st.builds(
        lambda sign, k: Fraction(sign * 10**400 + k, 7),
        st.sampled_from([-1, 1]), st.integers(0, 2),
    ),
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
    "unsorted_chain": _lattice_kind(_unsorted_chain),
}
_TOTAL_KINDS = {"rationals", "chain", "primes", "unsorted_chain"}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_is_total_is_the_integer_code_order(kind):
    base = _KINDS[kind][0]()
    for s in (base, base.dual()):
        assert s.is_total == (s.code_order is INT_ORDER) == (kind in _TOTAL_KINDS)


@pytest.mark.parametrize("dualize", [False, True], ids=["primal", "dual"])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_codes_preserve_order_and_decode(kind, dualize):
    make, strategy = _KINDS[kind]
    base = make()
    s = base.dual() if dualize else base

    leq = value_order_oracle(s).leq

    @given(st.lists(strategy, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def check(values):
        codes, decode = s.encode(values)
        assert len(codes) == len(values)
        for a, ca in zip(values, codes):
            assert repr(decode[ca]) == repr(a)
            for b, cb in zip(values, codes):
                if isinstance(s.code_order, BoundedLattice):
                    up = s.code_order.up
                    assert leq(a, b) == bool(up[ca] >> cb & 1)
                else:
                    assert s.code_order is INT_ORDER
                    assert leq(a, b) == (ca <= cb)
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
