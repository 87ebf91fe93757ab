import random

import pytest

from hngame import game as hgame
from hngame import order
from hngame.abelian import (
    FiniteAbelianGroup,
    _addition_table,
    _subgroup_masks,
    coprimary_filtration,
    coprimary_game,
    enumerate_coprimary_filtrations,
    iter_invariant_factor_groups,
    subgroup_lattice,
)
from hngame.errors import TooLarge
from hngame.filtration import validate_hn
from hngame.game import interval_semistable, is_semistable
from hngame.order import BoundedLattice, Interval, is_modular

from oracles import (
    TrivialModule,
    all_subgroups_oracle,
    associated_primes,
    divisors,
    elementary_abelian_subgroup_count,
    inclusion_order_oracle,
    lattice_tables_oracle,
    modular_oracle,
    prime_divisors,
    quotient,
    zm_zn_subgroup_count,
)


def test_z12_subgroup_lattice_is_divisor_lattice():
    sl = subgroup_lattice(FiniteAbelianGroup([12]))
    assert sl.lattice.n == len(divisors(12))
    assert sorted(len(s) for s in sl.subgroups) == divisors(12)


def test_klein_four_subgroups_form_m3():
    sl = subgroup_lattice(FiniteAbelianGroup([2, 2]))
    assert sl.lattice.n == 5
    orders = sorted(len(s) for s in sl.subgroups)
    assert orders == [1, 2, 2, 2, 4]
    atoms = [i for i in range(5) if len(sl.subgroups[i]) == 2]
    for i in atoms:
        for j in atoms:
            if i != j:
                assert not sl.lattice.le(i, j)


def test_prime_group_has_two_subgroups():
    sl = subgroup_lattice(FiniteAbelianGroup([7]))
    assert sl.lattice.n == 2


def test_cyclic_subgroup_counts_match_divisors():
    for n in (2, 6, 8, 9, 12, 30, 36, 48):
        sl = subgroup_lattice(FiniteAbelianGroup([n]))
        assert sl.lattice.n == len(divisors(n))


def test_subgroups_match_literal_search():
    for group in iter_invariant_factor_groups(48):
        sl = subgroup_lattice(group)
        assert list(sl.subgroups) == all_subgroups_oracle(group), group


def test_meet_is_intersection_and_join_is_sum():
    # The factors of [4, 2] and [2, 9] are not listed in invariant form.
    groups = iter_invariant_factor_groups(48)
    for group in groups + [FiniteAbelianGroup(o) for o in ([4, 2], [2, 9])]:
        sl = subgroup_lattice(group)
        l, subgroups = sl.lattice, sl.subgroups
        assert (l.bot, l.top, l.meet, l.join) == lattice_tables_oracle(l)
        for i, h in enumerate(subgroups):
            for j in range(i, l.n):
                k = subgroups[j]
                h_plus_k = {group.add(a, b) for a in h for b in k}
                assert subgroups[l.meet[i][j]] == h & k
                assert subgroups[l.join[i][j]] == h_plus_k


def _built(l):
    """Whether l holds its meet/join tables, read without building them."""
    return l._pair[0] is not None


def _groups_workload():
    """The 110 groups of the ``groups`` benchmark workload."""
    groups = iter_invariant_factor_groups(64, 3)
    return groups + [FiniteAbelianGroup((2,) * k) for k in (4, 5)]


def test_deferred_tables_match_oracle(monkeypatch):
    # A subgroup lattice builds its tables on first read, and shares them
    # with its dual whichever of the two reads first; an interval lattice
    # builds its own from its order on first read, whether or not the
    # ambient lattice has built its tables.
    builds = []
    build = order._tables
    monkeypatch.setattr(order, "_tables", lambda p: builds.append(p) or build(p))
    rng = random.Random(7)
    for k, group in enumerate(_groups_workload()):
        l = subgroup_lattice(group).lattice
        d = l.dual()
        assert (l.bot, l.top) == (0, l.n - 1)
        assert not _built(l) and not _built(d)
        bot, top, meet, join = lattice_tables_oracle(l)
        sample = rng.sample(l.strict_pairs(), min(4, len(l.strict_pairs())))
        deferred = [Interval(l, lo, hi).as_lattice() for lo, hi in sample]
        assert not any(map(_built, deferred))
        builds.clear()
        first, second = (l, d) if k % 2 else (d, l)
        first.join
        assert len(builds) == 1 and _built(second)
        second.meet
        assert len(builds) == 1 and l.meet is d.join and l.join is d.meet
        assert type(l) is type(d) is BoundedLattice
        assert (l.bot, l.top, l.meet, l.join) == (bot, top, meet, join), group
        assert (d.bot, d.top, d.meet, d.join) == (top, bot, join, meet), group
        later = [Interval(l, lo, hi).as_lattice() for lo, hi in sample]
        assert not any(map(_built, later))
        for sub in deferred + later:
            assert (sub.bot, sub.top, sub.meet, sub.join) == (
                lattice_tables_oracle(sub)
            ), group


def test_coprimary_filtration_builds_no_tables(monkeypatch):
    # A coprimary game is built convex and affine, so no group's canonical
    # filtration runs the convexity pass or reads the meet/join tables.
    # Every quotient of a p-group has Ass = {p}, so its game has one value
    # and every series is the codes, with no peel; any other group peels.
    builds, peels, scans = [], [], []
    build, peel, scan = order._tables, hgame._peel, hgame._scan_convexity
    monkeypatch.setattr(order, "_tables", lambda p: builds.append(p) or build(p))
    monkeypatch.setattr(hgame, "_peel", lambda *args: peels.append(args) or peel(*args))
    monkeypatch.setattr(hgame, "_scan_convexity", lambda g: scans.append(g) or scan(g))
    kinds = set()
    for group in _groups_workload() + [FiniteAbelianGroup((2,) * 6)]:
        peels.clear()
        report = coprimary_filtration(group)
        p_group = len(prime_divisors(group.order)) == 1
        assert report.valid, group
        assert not _built(report.subgroup_lattice.lattice), group
        assert bool(peels) != p_group, group
        kinds.add(p_group)
    assert kinds == {True, False}
    assert (builds, scans) == ([], [])


def _literal_addition_table(group):
    elements = group.elements
    index = {e: k for k, e in enumerate(elements)}
    return [[index[group.add(a, b)] for b in elements] for a in elements]


def test_addition_table_matches_literal_addition():
    groups = iter_invariant_factor_groups(64, 3)
    groups += [FiniteAbelianGroup((2,) * k) for k in (4, 5, 6)]
    assert len(groups) == 111
    for group in groups:
        assert _addition_table(group) == _literal_addition_table(group), group
    for orders in ([12], [2, 4], [2, 2, 2], [4, 6], [3, 9]):
        sl = subgroup_lattice(FiniteAbelianGroup(orders))
        for lo, hi in sl.lattice.strict_pairs():
            q = quotient(sl, hi, lo)
            assert _addition_table(q) == _literal_addition_table(q), (orders, q)


def test_quotient_subgroups_sorted_by_element_index():
    # Quotient elements are frozensets, which compare by inclusion; the
    # order must come from the element indices.
    sl = subgroup_lattice(FiniteAbelianGroup([4, 6]))
    l = sl.lattice
    q = quotient(sl, l.index("H4a"), l.bot)
    index = {e: k for k, e in enumerate(q.elements)}
    subgroups = subgroup_lattice(q).subgroups
    assert list(subgroups) == sorted(
        subgroups, key=lambda s: (len(s), sorted(index[e] for e in s))
    )


def test_quotient_subgroups_match_literal_search():
    for orders in ([12], [2, 4], [2, 2, 2], [4, 6]):
        sl = subgroup_lattice(FiniteAbelianGroup(orders))
        for lo, hi in sl.lattice.strict_pairs():
            q = quotient(sl, hi, lo)
            assert list(subgroup_lattice(q).subgroups) == all_subgroups_oracle(q)


def test_subgroup_counts_zm_x_zn():
    for n in range(2, 65):
        for m in divisors(n):
            if m * n > 64:
                continue
            group = FiniteAbelianGroup([n] if m == 1 else [m, n])
            assert len(subgroup_lattice(group).subgroups) == zm_zn_subgroup_count(
                m, n
            ), (m, n)


def test_subgroup_counts_elementary_abelian_2_groups():
    counts = [elementary_abelian_subgroup_count(2, k) for k in range(6)]
    assert counts == [1, 2, 5, 16, 67, 374]
    for k in range(1, 6):
        sl = subgroup_lattice(FiniteAbelianGroup([2] * k))
        assert len(sl.subgroups) == counts[k]


def test_subgroup_covers_close_to_inclusion_order():
    # The recorded covers are exactly the lattice's covers, each of prime
    # index, and their closure is the inclusion order.
    counts = {
        (p,) * k: elementary_abelian_subgroup_count(p, k)
        for p, k in ((2, 5), (3, 4), (5, 3), (7, 2), (199, 1))
    }
    groups = iter_invariant_factor_groups(64, 3)
    groups += [FiniteAbelianGroup(orders) for orders in counts]
    assert len(groups) == 113
    for group in groups:
        _, covers = _subgroup_masks(group)
        sl = subgroup_lattice(group)
        assert sl.lattice.up == inclusion_order_oracle(sl.subgroups), group
        assert sorted(covers) == sl.lattice.covers(), group
        orders = list(map(len, sl.subgroups))
        for i, j in covers:
            assert prime_divisors(orders[j] // orders[i]) == {orders[j] // orders[i]}
        assert counts.get(group.cyclic_orders, len(orders)) == len(orders), group


def test_subgroup_lattice_guard():
    with pytest.raises(TooLarge):
        subgroup_lattice(FiniteAbelianGroup([211]))


def test_subgroup_lattices_modular():
    # The cover test builds no tables; the triple loop reads them.
    extra = ([4, 2], [2, 9], [6, 6])
    for group in _groups_workload() + [FiniteAbelianGroup(o) for o in extra]:
        l = subgroup_lattice(group).lattice
        assert is_modular(l) and not _built(l), group
        assert modular_oracle(l), group


def test_associated_primes_examples():
    assert associated_primes(FiniteAbelianGroup([12])) == {2, 3}
    assert associated_primes(FiniteAbelianGroup([8])) == {2}
    for n in (4, 6, 15, 30, 48):
        assert associated_primes(FiniteAbelianGroup([n])) == prime_divisors(n)


def test_associated_primes_of_quotient():
    g = FiniteAbelianGroup([12])
    sl = subgroup_lattice(g)
    h3 = next(i for i, s in enumerate(sl.subgroups) if len(s) == 3)
    q = quotient(sl, sl.lattice.top, h3)
    assert q.order == 4
    assert associated_primes(q) == {2}


def test_trivial_quotient_rejected():
    g = FiniteAbelianGroup([4])
    sl = subgroup_lattice(g)
    with pytest.raises(TrivialModule):
        associated_primes(quotient(sl, sl.lattice.bot, sl.lattice.bot))


def test_coprimary_game_payoffs_z12():
    g = FiniteAbelianGroup([12])
    sl = subgroup_lattice(g)
    game = coprimary_game(g, sl)
    l = sl.lattice
    assert game.payoff[(l.bot, l.top)] == {2, 3}
    h3 = l.index("H3")
    assert game.payoff[(l.bot, h3)] == {3}
    h2 = l.index("H2")
    assert game.payoff[(h2, l.top)] == {2, 3}


def test_payoff_matches_explicit_quotients():
    for group in iter_invariant_factor_groups(48):
        sl = subgroup_lattice(group)
        game = coprimary_game(group, sl)
        for i, j in sl.lattice.strict_pairs():
            assert game.payoff[(i, j)] == associated_primes(quotient(sl, j, i))


def test_p_group_game_is_constant():
    for orders in ([8], [2, 2]):
        g = FiniteAbelianGroup(orders)
        game = coprimary_game(g)
        p = min(associated_primes(g))
        assert all(v == {p} for v in game.payoff.values())


def test_mu_a_least_prime_z12_pairs():
    g = FiniteAbelianGroup([12])
    sl = subgroup_lattice(g)
    game = coprimary_game(g, sl)
    t = game.tables()
    l = sl.lattice
    assert t.mu_a[(l.bot, l.top)] == frozenset({2})
    assert t.mu_a[(l.bot, l.index("H3"))] == frozenset({3})
    for pair, ass in game.payoff.items():
        assert t.mu_a[pair] == frozenset({min(ass)}), pair


def test_mu_a_least_prime_z36():
    game = coprimary_game(FiniteAbelianGroup([4, 9]))
    t = game.tables()
    for pair, ass in game.payoff.items():
        assert t.mu_a[pair] == frozenset({min(ass)}), pair


def test_coprimary_filtration_z12():
    report = coprimary_filtration(FiniteAbelianGroup([12]))
    assert report.step_labels == ("0", "H3", "G")
    assert report.step_primes == (3, 2)
    assert report.valid
    # Quotient orders along the steps: 3 then 4.
    sl = report.subgroup_lattice
    steps = report.hn_report.filtration.steps
    assert [len(sl.subgroups[i]) for i in steps] == [1, 3, 12]


def test_coprimary_filtration_p_group_single_step():
    report = coprimary_filtration(FiniteAbelianGroup([8]))
    assert report.step_labels == ("0", "G")
    assert report.step_primes == (2,)
    assert report.valid


def test_coprimary_filtration_z2_x_z9():
    report = coprimary_filtration(FiniteAbelianGroup([2, 9]))
    assert report.step_primes == (3, 2)
    sl = report.subgroup_lattice
    steps = report.hn_report.filtration.steps
    assert [len(sl.subgroups[i]) for i in steps] == [1, 9, 18]


def test_coprimary_uniqueness_oracle_z12():
    g = FiniteAbelianGroup([12])
    sl = subgroup_lattice(g)
    found = enumerate_coprimary_filtrations(sl)
    assert len(found) == 1
    steps, primes = found[0]
    report = coprimary_filtration(g)
    assert steps == report.hn_report.filtration.steps
    assert primes == report.step_primes


def test_coprimary_is_valid_hn_filtration():
    # An enumerated coprimary filtration is a valid filtration of the game.
    g = FiniteAbelianGroup([2, 9])
    sl = subgroup_lattice(g)
    game = coprimary_game(g, sl)
    for steps, _ in enumerate_coprimary_filtrations(sl):
        assert validate_hn(game, steps).valid


def test_semistable_iff_coprimary():
    for group in iter_invariant_factor_groups(20):
        game = coprimary_game(group)
        assert is_semistable(game) == (len(associated_primes(group)) == 1)


def test_semistable_restriction_check_small_groups():
    # Semistability of the restricted game matches the explicit quotient's
    # own coprimary game on every strict pair.
    for orders in ([12], [4, 3], [2, 2], [18]):
        group = FiniteAbelianGroup(orders)
        sl = subgroup_lattice(group)
        game = coprimary_game(group, sl)
        for i, j in sl.lattice.strict_pairs():
            quotient_game = coprimary_game(quotient(sl, j, i))
            assert interval_semistable(game, i, j) == is_semistable(
                quotient_game
            ), (orders, i, j)


def test_invariant_factor_enumeration():
    groups = iter_invariant_factor_groups(48)
    specs = [g.cyclic_orders for g in groups]
    assert len(specs) == len(set(specs))
    assert (12,) in specs
    assert (2, 2, 12) in specs
    assert (2, 4) in specs
    assert all(1 < len(s) or s[0] <= 48 for s in specs)
    for s in specs:
        prod = 1
        for d in s:
            prod *= d
        assert prod <= 48
        for a, b in zip(s, s[1:]):
            assert b % a == 0
    # Iso classes: 47 cyclic, 22 with two factors, 8 with three.
    assert len(specs) == 77


def test_isomorphic_presentations_give_equal_games():
    # Z/4 x Z/3 and Z/12 are the same group; the derived games coincide
    # because subgroup labels depend only on subgroup orders here.
    assert coprimary_game(FiniteAbelianGroup([4, 3])) == coprimary_game(
        FiniteAbelianGroup([12])
    )


def test_lemma_5_11_worked_pairs_z12():
    g = FiniteAbelianGroup([12])
    sl = subgroup_lattice(g)
    game = coprimary_game(g, sl)
    l = sl.lattice
    # Quotient of order 6 has two associated primes: both sides unstable.
    h6 = l.index("H6")
    assert not interval_semistable(game, l.bot, h6)
    assert not is_semistable(coprimary_game(quotient(sl, h6, l.bot)))
    # Prime quotient H4/H2 is coprimary: both sides semistable.
    h2, h4 = l.index("H2"), l.index("H4")
    assert interval_semistable(game, h2, h4)
    assert is_semistable(coprimary_game(quotient(sl, h4, h2)))
