"""Acceptance criteria, one test per criterion.

Each test prints one pass line (visible with -s; the -v test names carry the
criterion number).  Exhaustive sweeps run over all bounded-lattice
isomorphism classes with up to 5 elements and every payoff table over the
3-chain value lattice 0 < 1 < 2; label-invariance of every checked property
makes one representative per class equivalent to all labelled variants.
"""

import random
import time
from pathlib import Path

import pytest

from hngame import fixtures
from hngame.abelian import (
    FiniteAbelianGroup,
    coprimary_filtration,
    coprimary_game,
    enumerate_coprimary_filtrations,
    iter_invariant_factor_groups,
    subgroup_lattice,
)
from hngame.cli import main as cli_main
from hngame.completion import (
    check_universal_property,
    dedekind_macneille,
    dm_closure,
    lower_bounds,
    upper_bounds,
)
from hngame.filtration import (
    canonical_hn_filtration,
    enumerate_hn_filtrations,
    st_set,
    validate_hn,
)
from hngame.game import (
    Game,
    dual,
    has_seesaw_violation,
    interval_semistable,
    is_affine,
    is_convex,
    is_semistable,
    is_slope_like,
    mu_a_star,
    mu_b_star,
    nash_tfae_report,
    restrict,
)
from hngame.io import emit_game, parse_document, parse_game
from hngame.jordan_holder import (
    enumerate_jh_filtrations,
    find_jh,
    piecewise_stability,
    validate_jh,
)
from hngame.order import Interval, _iter_bits, is_modular
from hngame.sweeps import (
    _canonical_form,
    iter_sweep_games,
    lattice_iso_classes,
    poset_iso_classes,
    random_poset,
    random_quotient_game,
    three_chain_values,
)

from oracles import (
    associated_primes,
    closure_oracle,
    mu_a_oracle,
    mu_b_oracle,
    mu_max_oracle,
    mu_min_oracle,
    quotient,
)

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def sweep_lattices():
    lats = lattice_iso_classes(5)
    # 1 + 1 + 2 + 5 isomorphism classes on 2..5 elements.
    assert [l.n for l in lats].count(2) == 1
    assert [l.n for l in lats].count(3) == 1
    assert [l.n for l in lats].count(4) == 2
    assert [l.n for l in lats].count(5) == 5
    return lats


def _same_shape(lattice, reference):
    if lattice.n != reference.n:
        return False
    return _canonical_form(lattice.n, lattice.up) == _canonical_form(
        reference.n, reference.up
    )


def _passed(num, label, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"
    print(f"PASS criterion {num}: {label} ({elapsed:.1f}s)")


def _b3_sample_games(count=1200, seed=20230809):
    """Seeded sample of payoff tables on the 8-element Boolean lattice.

    All 3^19 tables are out of reach, so the cube joins the sweep through a
    fixed random sample plus the constant tables.
    """
    lattice = fixtures.b3()
    values = three_chain_values()
    pairs = lattice.strict_pairs()
    rng = random.Random(seed)
    tables = [dict.fromkeys(pairs, v) for v in values.elements]
    for _ in range(count):
        tables.append({p: rng.choice(values.elements) for p in pairs})
    return [Game._trusted(lattice, values, t) for t in tables]


def test_criterion_01_mu_series_matches_bruteforce_oracle(sweep_lattices):
    t0 = time.time()
    assert any(_same_shape(l, fixtures.b2()) for l in sweep_lattices)
    assert any(_same_shape(l, fixtures.n5()) for l in sweep_lattices)
    assert any(_same_shape(l, fixtures.m3()) for l in sweep_lattices)
    checked = 0
    for lattice in sweep_lattices:
        pairs = lattice.strict_pairs()
        for g in iter_sweep_games(lattice):
            t = g.tables()
            for pair in pairs:
                x, y = pair
                assert t.mu_max[pair] == mu_max_oracle(g, x, y)
                assert t.mu_min[pair] == mu_min_oracle(g, x, y)
                assert t.mu_a[pair] == mu_a_oracle(g, x, y)
                assert t.mu_b[pair] == mu_b_oracle(g, x, y)
            checked += 1
    for g in _b3_sample_games():
        t = g.tables()
        for pair in g.lattice.strict_pairs():
            x, y = pair
            assert t.mu_max[pair] == mu_max_oracle(g, x, y)
            assert t.mu_min[pair] == mu_min_oracle(g, x, y)
            assert t.mu_a[pair] == mu_a_oracle(g, x, y)
            assert t.mu_b[pair] == mu_b_oracle(g, x, y)
        checked += 1
    _passed(1, f"mu-series oracle on {checked} games", t0, 120)


def test_criterion_02_hn_existence_and_uniqueness(sweep_lattices):
    t0 = time.time()
    convex_games = 0
    for lattice in sweep_lattices:
        for g in iter_sweep_games(lattice):
            if not is_convex(g):
                continue
            convex_games += 1
            report = canonical_hn_filtration(g)
            assert report.valid
            found = enumerate_hn_filtrations(g)
            assert len(found) == 1
            assert found[0].steps == report.filtration.steps
    assert convex_games > 0
    _passed(2, f"canonical filtration exists and is unique on {convex_games} convex games", t0, 300)


def test_criterion_03_st_set_properties(sweep_lattices):
    t0 = time.time()
    checked = 0
    for lattice in sweep_lattices:
        top = lattice.top
        bot = lattice.bot
        for g in iter_sweep_games(lattice):
            s = st_set(g)
            semistable = is_semistable(g)
            # Unconditional: top membership characterizes semistability, and
            # with total values St collapses to {top} exactly then.
            assert semistable == (top in s)
            assert semistable == (s == frozenset({top}))
            if not is_convex(g):
                # Items (1), (3a), (3b) belong to the convex setting; without
                # convexity (3b) genuinely fails (e.g. a square with payoffs
                # 0,1 on the atoms and 1 above the destabilizing atom).
                continue
            assert s, "St must be nonempty for convex games"
            t = g.tables()
            for x in s:
                if x == top:
                    continue
                assert interval_semistable(g, bot, x)
                for y in _iter_bits(lattice.up[x] & ~(1 << x)):
                    assert not g.values.leq(t.mu_a[(bot, x)], t.mu_a[(x, y)])
            checked += 1
    _passed(3, f"maximal-destabilizer properties on {checked} convex games", t0, 300)


def test_criterion_04_quotient_payoffs_slope_like(sweep_lattices):
    t0 = time.time()
    rng = random.Random(20230809)
    for _ in range(500):
        g = random_quotient_game(rng, max_elements=8)
        assert is_slope_like(g)
        assert not has_seesaw_violation(g)
    # Conversely, slope-like iff no violating triple, on the whole sweep.
    for lattice in sweep_lattices:
        for g in iter_sweep_games(lattice):
            assert is_slope_like(g) != has_seesaw_violation(g)
    _passed(4, "quotient payoffs slope-like; seesaw equivalence (500 random + full sweep)", t0, 60)


def test_criterion_05_nash_tfae(sweep_lattices):
    t0 = time.time()
    slope_like_games = 0
    for lattice in sweep_lattices:
        for g in iter_sweep_games(lattice):
            if not is_slope_like(g):
                continue
            slope_like_games += 1
            # The report itself raises TheoremViolation if the four items
            # diverge or the semistability link fails.
            report = nash_tfae_report(g)
            assert len(set(report.items)) == 1
            assert report.semistable == report.nash
    assert slope_like_games > 0
    _passed(5, f"first-mover-advantage equivalences on {slope_like_games} slope-like games", t0, 180)


def test_criterion_06_dedekind_macneille():
    t0 = time.time()
    # DM of the 2-antichain is B2.
    from hngame.order import build_poset

    c = dedekind_macneille(build_poset(["a", "b"], []))
    assert len(c.closed_sets) == 4
    assert _same_shape(c.as_lattice(), fixtures.b2())
    # DM of every lattice fixture is the lattice itself.
    for make in (fixtures.c2, fixtures.c3, fixtures.b2, fixtures.b3,
                 fixtures.n5, fixtures.m3):
        l = make()
        cl = dedekind_macneille(l)
        assert len(cl.closed_sets) == l.n
        assert sorted(cl.embedding) == list(range(l.n))
        assert _same_shape(cl.as_lattice(), l)
    # Galois connection and closure laws, exhaustive on posets <= 5 elements.
    for n in range(1, 6):
        for p in poset_iso_classes(n):
            uppers = [upper_bounds(p, a) for a in range(1 << p.n)]
            lowers = [lower_bounds(p, a) for a in range(1 << p.n)]
            for a in range(1 << p.n):
                cl_a = dm_closure(p, a)
                assert a & ~cl_a == 0
                assert dm_closure(p, cl_a) == cl_a
                assert cl_a == sum(
                    1 << i for i in closure_oracle(p, set(_iter_bits(a)))
                )
                for b in range(1 << p.n):
                    assert (b & ~uppers[a] == 0) == (a & ~lowers[b] == 0)
                    if a & ~b == 0:
                        assert dm_closure(p, a) & ~dm_closure(p, b) == 0
    # Chains complete to chains.
    for k in range(1, 7):
        names = [f"c{i}" for i in range(k)]
        chain_poset = build_poset(names, list(zip(names, names[1:])))
        assert dedekind_macneille(chain_poset).is_linear()
    # Universal property on 50 random embeddings via induced subposets.
    rng = random.Random(20230809)
    for _ in range(50):
        big = random_poset(rng, rng.randint(2, 6))
        chosen = sorted(rng.sample(range(big.n), rng.randint(1, big.n)))
        small = build_poset(
            [big.names[i] for i in chosen],
            [
                (big.names[i], big.names[j])
                for i in chosen
                for j in chosen
                if i != j and big.le(i, j)
            ],
        )
        csmall = dedekind_macneille(small)
        cbig = dedekind_macneille(big)
        witness = check_universal_property(
            csmall,
            cbig.as_lattice(),
            {k: cbig.embedding[chosen[k]] for k in range(small.n)},
        )
        assert witness.holds
    _passed(6, "Dedekind-MacNeille laws, fixpoints, universal property", t0, 60)


def test_criterion_07_coprimary_all_groups_up_to_48():
    t0 = time.time()
    groups = iter_invariant_factor_groups(48)
    assert len(groups) == 77
    for group in groups:
        sl = subgroup_lattice(group)
        game = coprimary_game(group, sl)
        # mu_a is the least-prime singleton on every strict pair.
        t = game.tables()
        for pair, ass in game.payoff.items():
            assert t.mu_a[pair] == frozenset({min(ass)}), (group, pair)
        # Semistable exactly when the group has one associated prime.
        assert is_semistable(game) == (len(associated_primes(group)) == 1)
        # The canonical filtration is valid, coprimary, and unique.
        report = coprimary_filtration(group)
        assert report.valid
        found = enumerate_coprimary_filtrations(sl)
        assert len(found) == 1
        assert found[0][0] == report.hn_report.filtration.steps
        assert found[0][1] == report.step_primes
        assert frozenset(report.step_primes) == associated_primes(group)
        # The coprimary chain is a valid filtration of the game.
        assert validate_hn(game, found[0][0]).valid
        # Restriction semistability matches the quotient game, all pairs.
        for i, j in sl.lattice.strict_pairs():
            quotient_game = coprimary_game(quotient(sl, j, i))
            assert interval_semistable(game, i, j) == is_semistable(
                quotient_game
            ), (group, i, j)
    # Pinned worked instance.
    pinned = coprimary_filtration(FiniteAbelianGroup([12]))
    assert pinned.step_labels == ("0", "H3", "G")
    assert pinned.step_primes == (3, 2)
    _passed(7, f"coprimary pipeline on {len(groups)} groups", t0, 600)


def test_criterion_08_jordan_holder(sweep_lattices):
    t0 = time.time()
    eligible = 0
    for lattice in sweep_lattices:
        modular = is_modular(lattice)
        for g in iter_sweep_games(lattice):
            if g.payoff[(lattice.bot, lattice.top)] == g.values.top:
                continue
            if not is_semistable(g) or not is_slope_like(g):
                continue
            eligible += 1
            f = find_jh(g)
            assert validate_jh(g, f).valid
            filtrations = enumerate_jh_filtrations(g)
            assert f.steps in {c.steps for c in filtrations}
            for c in filtrations:
                assert all(piecewise_stability(g, c))
            if modular and is_affine(g):
                assert len({c.length for c in filtrations}) == 1
    assert eligible > 0
    _passed(8, f"Jordan-Hölder existence, stability, equal lengths on {eligible} games", t0, 300)


def test_criterion_09_restriction_transparency_and_duality(sweep_lattices):
    t0 = time.time()
    for lattice in sweep_lattices:
        intervals = [
            (pair, Interval(lattice, *pair)) for pair in lattice.strict_pairs()
        ]
        prepared = [
            (ival, ival.member_indices(), ival.as_lattice().strict_pairs())
            for _, ival in intervals
        ]
        for g in iter_sweep_games(lattice):
            t = g.tables()
            for ival, members, sub_pairs in prepared:
                sub = restrict(g, ival)
                ts = sub.tables()
                for i, j in sub_pairs:
                    pair = (members[i], members[j])
                    assert sub.payoff[(i, j)] == g.payoff[pair]
                    assert ts.mu_max[(i, j)] == t.mu_max[pair]
                    assert ts.mu_min[(i, j)] == t.mu_min[pair]
                    assert ts.mu_a[(i, j)] == t.mu_a[pair]
                    assert ts.mu_b[(i, j)] == t.mu_b[pair]
            assert mu_b_star(dual(g)) == mu_a_star(g)
    _passed(9, "restriction transparency and duality, exhaustive over the sweep", t0, 600)


def test_criterion_10_cli_round_trip_and_goldens(tmp_path):
    t0 = time.time()
    for path in sorted((REPO / "fixtures").glob("*.json")):
        text = path.read_text()
        kind, obj, _ = parse_document(text)
        if kind != "game":
            continue
        text2 = emit_game(obj)
        assert parse_game(text2) == obj
        assert emit_game(parse_game(text2)) == text2
    out = tmp_path / "hn.json"
    assert cli_main(
        ["hn", "--input", str(REPO / "fixtures" / "gmod.json"),
         "--output", str(out)]
    ) == 0
    assert out.read_bytes() == (GOLDEN / "gmod_hn.json").read_bytes()
    out = tmp_path / "coprimary.json"
    assert cli_main(["coprimary", "--orders", "12", "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "z12_coprimary.json").read_bytes()
    _passed(10, "document fixpoint and pinned golden outputs", t0, 60)
