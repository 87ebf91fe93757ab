"""Print SHA-256 digests of the mu-series tables and the predicate verdicts.

    python tests/tables_digest.py

For every game below, and for its dual, the digest takes the ``repr`` of
``tables()`` and the six verdicts is_convex, is_affine, is_semistable,
is_stable, is_slope_like and has_nash_equilibrium:

- sweep: all 108,165 games over the 3-chain on the lattice classes with 2 to
  5 elements;
- groups: the coprimary games of the 110 groups of the ``groups`` benchmark
  workload (every abelian group of order <= 64 with at most three invariant
  factors, (Z/2)^4 and (Z/2)^5);
- potentials: quotient games of five seeded potentials each on a 40-element
  chain and on the divisor lattice of 360, and of one each on a 120-element
  chain and on the divisor lattice of 720720 (240 elements).  For these the
  digest also takes the payoff itself, as the ``repr`` of its sorted items,
  the type name of each value and the number of distinct value objects, so
  it pins how the payoffs are built and that equal slopes share one object;
- explicit: games with non-total values, the lattices N5 and M3 as
  ``FiniteLatticeValues``, with 20 seeded payoffs for each on every lattice
  class with 2 to 5 elements.

- rationals: extended-rational games built from values, 12 seeded payoffs
  on every lattice class with 2 to 6 elements from each of three pools (the
  infinities among small fractions, fractions that all round to the float
  1.0, and fractions beyond the float range of both signs), and quotient
  games of ``RankDegreeData`` tables on a 12-element chain, the divisor
  lattice of 360 and a random lattice, as given and scaled so that every
  slope lies beyond the float range, or so that every finite slope is
  1 + s / 10**20 and all of them round to the float 1.0.
  For these the digest also takes the payoff, as the ``repr`` of its sorted
  items and the type name of each value.

- slope_like: the verdicts of is_slope_like and has_seesaw_violation alone,
  on the 101 games on the 5-chain with values 0 to 4 whose chain triples
  with a cover step pass the slope-like condition (44 of them fail it at
  the one triple without), and on the seeded potentials games on a
  40-element chain and on the divisor lattice of 360, each with three
  copies that have one payoff perturbed.

- structure: the fields of every order the games above stand on, and of
  more: names, up- and down-sets and ``covers()`` of each poset, plus bot,
  top, meet and join of each lattice, for the divisor lattices D(m) of a
  few m, chains, random lattices and random posets, the lattice classes
  with 2 to 6 elements, the interval lattices of D(360), the subgroup
  lattices of the ``groups`` games and of seven groups with primes above 3,
  rank 4 or more, or many subgroups ((Z/3)^4, (Z/5)^3, (Z/7)^2, (Z/13)^2,
  Z/199, Z/4 x Z/4 x Z/12 and (Z/2)^6), and the dual of each.

- lattices: names, up-sets, bot and top of every lattice class with 2 to 7
  elements, in the order ``lattice_iso_classes`` lists them.

One line per section, then one over all of them.  Two checkouts whose table
engine and predicates agree print the same lines.  Each line is pinned in
``PINS`` and ``PIN_ALL``; the script exits 1 and names on stderr every line
that differs from its pin, and 0 when none does.  A change meant to alter
an output updates the pins with it.  The file name does not start with
``test_``, so pytest does not collect it; ``test_digest.py`` checks the six
sections other than structure and sweep against their pins, which take
about a second together, and those two stay a run by hand.
"""

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hngame import fixtures  # noqa: E402
from hngame.abelian import (  # noqa: E402
    FiniteAbelianGroup,
    coprimary_game,
    iter_invariant_factor_groups,
    subgroup_lattice,
)
from hngame.game import (  # noqa: E402
    Game,
    dual,
    has_nash_equilibrium,
    has_seesaw_violation,
    is_affine,
    is_convex,
    is_semistable,
    is_slope_like,
    is_stable,
)
from hngame.order import (  # noqa: E402
    BoundedLattice,
    Interval,
    as_bounded_lattice,
    build_poset,
)
from hngame.slopes import RankDegreeData, quotient_payoff  # noqa: E402
from hngame.sweeps import (  # noqa: E402
    iter_sweep_games,
    lattice_iso_classes,
    random_lattice,
    random_poset,
    random_potentials,
)
from hngame.values import (  # noqa: E402
    NEG_INF,
    POS_INF,
    ExtendedRationals,
    FiniteChain,
    FiniteLatticeValues,
)

from oracles import cover_step_slope_like_tables  # noqa: E402

PREDICATES = (
    is_convex, is_affine, is_semistable, is_stable, is_slope_like,
    has_nash_equilibrium,
)


def sweep_games():
    for lattice in lattice_iso_classes(5):
        yield from iter_sweep_games(lattice)


def benchmark_groups():
    groups = iter_invariant_factor_groups(64, 3)
    groups += [FiniteAbelianGroup((2,) * 4), FiniteAbelianGroup((2,) * 5)]
    assert len(groups) == 110
    return groups


def group_games():
    for group in benchmark_groups():
        yield coprimary_game(group)


def divisor_lattice(m):
    divs = [d for d in range(1, m + 1) if m % d == 0]
    relation = [(str(a), str(b)) for a in divs for b in divs if a != b and b % a == 0]
    return as_bounded_lattice(build_poset([str(d) for d in divs], relation))


def potentials_games():
    for lattice in (fixtures.chain(40), divisor_lattice(360)):
        for seed in range(5):
            yield quotient_payoff(lattice, random_potentials(random.Random(seed), lattice))
    for lattice in (fixtures.chain(120), divisor_lattice(720720)):
        yield quotient_payoff(lattice, random_potentials(random.Random(12), lattice))


def explicit_games():
    rng = random.Random(11)
    kinds = [FiniteLatticeValues(fixtures.n5()), FiniteLatticeValues(fixtures.m3())]
    for lattice in lattice_iso_classes(5):
        pairs = lattice.strict_pairs()
        for values in kinds:
            for _ in range(20):
                payoff = {p: rng.choice(values.elements) for p in pairs}
                yield Game(lattice, values, payoff)


BIG = 10**20
HUGE = 10**400
RATIONAL_POOLS = (
    [NEG_INF, POS_INF, Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(2)],
    [Fraction(BIG + k, BIG) for k in range(-2, 3)] + [Fraction(1), POS_INF],
    [Fraction(HUGE), Fraction(HUGE + 1), Fraction(-HUGE), Fraction(1, HUGE),
     Fraction(-HUGE - 1, 3), NEG_INF, POS_INF],
)


def rationals_games():
    rng = random.Random(13)
    values = ExtendedRationals()
    for lattice in lattice_iso_classes(6):
        pairs = lattice.strict_pairs()
        for pool in RATIONAL_POOLS:
            for _ in range(12):
                yield Game(lattice, values, {p: rng.choice(pool) for p in pairs})
    for lattice in (fixtures.chain(12), divisor_lattice(360), random_lattice(rng, 20)):
        for seed in range(3):
            base = random_potentials(random.Random(seed), lattice, 0.3).tables(lattice)
            # rank' = a rank and degree' = b degree + c rank stay additive.
            for a, b, c in ((1, 1, 0), (Fraction(1, HUGE), 1, 0), (1, Fraction(1, BIG), 1)):
                data = RankDegreeData.from_tables(
                    lattice,
                    {p: a * r for p, r in base.rank.items()},
                    {p: b * d + c * base.rank[p] for p, d in base.degree.items()},
                )
                yield quotient_payoff(lattice, data)


def slope_like_games():
    lattice = fixtures.chain(5)
    values = FiniteChain(range(5))
    for table in cover_step_slope_like_tables(5, 5):
        yield Game(lattice, values, table)
    rng = random.Random(5)
    for lattice in (fixtures.chain(40), divisor_lattice(360)):
        for seed in range(5):
            g = quotient_payoff(lattice, random_potentials(random.Random(seed), lattice))
            yield g
            for _ in range(3):
                payoff = dict(g.payoff)
                pairs = sorted(payoff)
                shift = rng.choice((0, Fraction(1, 7), Fraction(-1, 7)))
                payoff[rng.choice(pairs)] = payoff[rng.choice(pairs)] + shift
                yield Game(lattice, g.values, payoff)


EXTRA_GROUPS = ((3,) * 4, (5,) * 3, (7,) * 2, (13,) * 2, (199,), (4, 4, 12), (2,) * 6)


def structures():
    rng = random.Random(3)
    d360 = divisor_lattice(360)
    yield from (divisor_lattice(m) for m in (12, 30, 36, 210, 720))
    yield d360
    yield from (fixtures.chain(k) for k in (2, 3, 10, 120))
    yield from (random_lattice(rng, n) for n in range(2, 25))
    yield from (
        random_poset(rng, n, density) for n in range(1, 25) for density in (0.2, 0.5)
    )
    yield from lattice_iso_classes(6)
    yield from (Interval(d360, *pair).as_lattice() for pair in d360.strict_pairs())
    groups = benchmark_groups() + [FiniteAbelianGroup(f) for f in EXTRA_GROUPS]
    yield from (subgroup_lattice(group).lattice for group in groups)


def feed_structure(h, p):
    for q in (p, p.dual()):
        h.update(repr((q.names, q.up, q.down, q.covers())).encode())
        if isinstance(q, BoundedLattice):
            h.update(repr((q.bot, q.top, q.meet, q.join)).encode())


def feed_lattice_class(h, l):
    h.update(repr((l.names, l.up, l.bot, l.top)).encode())


def feed_game(h, g):
    for d in (g, dual(g)):
        h.update(repr(d.tables()).encode())
        h.update(repr(tuple(p(d) for p in PREDICATES)).encode())


def feed_slope_like(h, g):
    for d in (g, dual(g)):
        h.update(repr((is_slope_like(d), has_seesaw_violation(d))).encode())


def feed_rationals_game(h, g):
    items = sorted(g.payoff.items())
    h.update(repr(items).encode())
    h.update(repr([type(v).__name__ for _, v in items]).encode())
    feed_game(h, g)


def feed_potentials_game(h, g):
    items = sorted(g.payoff.items())
    h.update(repr(items).encode())
    h.update(repr([type(v).__name__ for _, v in items]).encode())
    h.update(repr(len({id(v) for _, v in items})).encode())
    feed_game(h, g)


SECTIONS = {
    "structure": (structures, "orders and duals", feed_structure),
    "sweep": (sweep_games, "games and duals", feed_game),
    "groups": (group_games, "games and duals", feed_game),
    "potentials": (potentials_games, "games and duals", feed_potentials_game),
    "explicit": (explicit_games, "games and duals", feed_game),
    "rationals": (rationals_games, "games and duals", feed_rationals_game),
    "slope_like": (slope_like_games, "games and duals", feed_slope_like),
    "lattices": (lambda: lattice_iso_classes(7), "classes", feed_lattice_class),
}


# Item count and digest of each section, and the digest over all of them.
PINS = {
    "structure": (378, "f59f8fa3efce33a580844223a8b48d457a23f69dc85c434c1f4919a4e8babd09"),
    "sweep": (108165, "5b23e9a0053cc6df493f869fd80295d2aab93fdd4664eae6d36cbeaeef6a6297"),
    "groups": (110, "d4c472c175c8a35bbf08e917ddbe68f004b6855d33fb75f2319b0982c353070f"),
    "potentials": (12, "f11bbe7e01a65a515e2e49d1a83bae51cab91a93a9248ab2d1dd1a6251e770f8"),
    "explicit": (360, "75ed646633795701f147baf5f63b0404141af8198868df09d84a1e99452c70b5"),
    "rationals": (891, "60d6915ec8a9482b8367a58efdeebe9c022ca96880d839a35afe593f882b902d"),
    "slope_like": (141, "4fe3840ba73237ac9c16b82cfdbab9b1d1d6d19adc8a43db790e719cdafe4213"),
    "lattices": (77, "5732474f6943267f9557d932a08ef319e14af4614970e6383c0ced0c876e8253"),
}
PIN_ALL = "02ee6686a1aa5a1c6cddf2ab5fdfc91769ec2d8d9b16e02a2673fc5b0c4ac230"


def section_digest(name):
    """The number of items of a section and the SHA-256 hex digest of them."""
    make, _, feed = SECTIONS[name]
    h = hashlib.sha256()
    count = 0
    for item in make():
        feed(h, item)
        count += 1
    return count, h.hexdigest()


def main():
    """Print the lines; return 1 if any differs from its pin, else 0."""
    total = hashlib.sha256()
    differ = []
    for name, (_, kind, _) in SECTIONS.items():
        count, digest = section_digest(name)
        total.update(digest.encode())
        print(f"{name} {count} {kind}: {digest}", flush=True)
        if (count, digest) != PINS[name]:
            differ.append(name)
    print(f"all: {total.hexdigest()}")
    if total.hexdigest() != PIN_ALL:
        differ.append("all")
    if differ:
        print(f"differ from their pins: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
