"""The sweep generators: lattice classes by coatom extension against the
triangular-relation filter of ``oracles.py``, sweep games built from codes
against games built from payoff dicts, and the predicates on the classes
with 7 and 8 elements against the brute-force oracles."""

import random
import time

from hngame.game import (
    Game,
    dual,
    has_nash_equilibrium,
    has_seesaw_violation,
    is_affine,
    is_convex,
    is_semistable,
    is_slope_like,
    is_stable,
    mu_b_star,
    restrict,
)
from hngame.order import Interval
from hngame.sweeps import (
    iter_payoff_tables,
    iter_sweep_games,
    lattice_iso_classes,
    three_chain_values,
)
from hngame.values import FiniteChain

from oracles import (
    canonical_form_oracle,
    convexity_oracle,
    lattice_classes_oracle,
    mu_a_oracle,
    mu_b_oracle,
    mu_max_oracle,
    mu_min_oracle,
    semistable_oracle,
    slope_like_oracle,
)

# OEIS A006966: bounded lattices on n = 2..9 elements up to isomorphism.
A006966 = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078}

PREDICATES = (
    is_convex, is_affine, is_semistable, is_stable, is_slope_like,
    has_nash_equilibrium, has_seesaw_violation,
)


def test_lattice_classes_are_the_filtered_posets_up_to_six_elements():
    got = lattice_iso_classes(6)
    expect = [c for n in range(2, 7) for c in lattice_classes_oracle(n)]
    assert [(l.up, l.bot, l.top, l.meet, l.join) for l in got] == expect
    for l in got:
        assert l.names == tuple(f"x{i}" for i in range(l.n))
    assert lattice_iso_classes(6, 4) == [l for l in got if l.n >= 4]


def test_lattice_class_counts_match_a006966_up_to_nine_elements():
    t0 = time.perf_counter()
    classes = lattice_iso_classes(9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2, f"lattice_iso_classes(9) took {elapsed:.2f}s"
    sizes = [l.n for l in classes]
    assert sizes == sorted(sizes)
    assert {n: sizes.count(n) for n in A006966} == A006966
    forms = {canonical_form_oracle(l.n, l.up) for l in classes}
    assert len(forms) == len(classes)


def _assert_same_games(lattice, values):
    """Compare the sweep games with the games built from payoff tables, in
    order: payoff, tables, predicates, the dual's tables and mu_b*, and the
    restriction to every interval.  A sweep game holds its product tuple
    as its codes and no derived state until a predicate reads it, which
    builds that state once.  Returns how many games there are."""
    built = iter_sweep_games(lattice, values)
    tables = iter_payoff_tables(lattice, values.elements)
    intervals = [Interval(lattice, lo, hi) for lo, hi in lattice.strict_pairs()]
    count = 0
    for g, table in zip(built, tables, strict=True):
        assert type(g._codes[0]) is tuple
        assert g._derived is None and g._payoff is None
        ref = Game(lattice, values, table)
        assert g.values is values
        assert is_semistable(g) == is_semistable(ref)
        state = g._derived
        assert state is not None
        assert g.tables() == ref.tables()
        assert [p(g) for p in PREDICATES] == [p(ref) for p in PREDICATES]
        assert g._payoff is None
        assert list(g.payoff.items()) == list(ref.payoff.items())
        assert dual(g).tables() == dual(ref).tables()
        assert mu_b_star(dual(g)) == mu_b_star(dual(ref))
        for ival in intervals:
            sub, sub_ref = restrict(g, ival), restrict(ref, ival)
            assert sub.payoff == sub_ref.payoff
            assert sub.tables() == sub_ref.tables()
        assert g._derived is state
        count += 1
    return count


def test_sweep_games_from_codes_are_the_payoff_table_games():
    for lattice in lattice_iso_classes(4):
        count = _assert_same_games(lattice, three_chain_values())
        assert count == 3 ** len(lattice.strict_pairs())
    six = min(lattice_iso_classes(6, 6), key=lambda l: len(l.strict_pairs()))
    assert _assert_same_games(six, FiniteChain((0, 1))) == 2 ** 9


def _seeded_games(lattice, rng, count=6):
    """The three constant 3-chain tables, then ``count`` seeded tables that
    take one value at four pairs in five and a random one elsewhere."""
    values = three_chain_values()
    pairs = lattice.strict_pairs()
    for v in values.elements:
        yield Game(lattice, values, dict.fromkeys(pairs, v))
    for _ in range(count):
        main = rng.choice(values.elements)
        yield Game(lattice, values, {
            p: main if rng.random() < 0.8 else rng.choice(values.elements)
            for p in pairs
        })


def test_series_and_predicates_match_oracles_on_seven_and_eight_elements():
    # Every class with 7 or 8 elements (53 + 222), nine games each.
    t0 = time.perf_counter()
    rng = random.Random(20261019)
    verdicts = set()
    for lattice in lattice_iso_classes(8, 7):
        for g in _seeded_games(lattice, rng):
            t = g.tables()
            for pair in lattice.strict_pairs():
                x, y = pair
                assert t.mu_max[pair] == mu_max_oracle(g, x, y)
                assert t.mu_min[pair] == mu_min_oracle(g, x, y)
                assert t.mu_a[pair] == mu_a_oracle(g, x, y)
                assert t.mu_b[pair] == mu_b_oracle(g, x, y)
            got = (is_convex(g), is_semistable(g), is_slope_like(g))
            assert got == (
                convexity_oracle(g, require_equal=False),
                semistable_oracle(g),
                slope_like_oracle(g),
            )
            verdicts.add(got)
    # Both verdicts of each predicate occur.
    for i in range(3):
        assert {v[i] for v in verdicts} == {False, True}
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"differential sweep took {elapsed:.1f}s"
