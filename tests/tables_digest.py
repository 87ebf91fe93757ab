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
  chain and on the divisor lattice of 360.  For these the digest also takes
  the payoff itself, as the ``repr`` of its sorted items and the type name
  of each value, so it pins how the payoffs are built.

One line per section, then one over all of them.  Two checkouts whose table
engine and predicates agree print the same lines.  The file name does not
start with ``test_``, so pytest does not collect it.
"""

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hngame import fixtures  # noqa: E402
from hngame.abelian import (  # noqa: E402
    FiniteAbelianGroup,
    coprimary_game,
    iter_invariant_factor_groups,
)
from hngame.game import (  # noqa: E402
    dual,
    has_nash_equilibrium,
    is_affine,
    is_convex,
    is_semistable,
    is_slope_like,
    is_stable,
)
from hngame.order import as_bounded_lattice, build_poset  # noqa: E402
from hngame.slopes import quotient_payoff  # noqa: E402
from hngame.sweeps import (  # noqa: E402
    iter_sweep_games,
    lattice_iso_classes,
    random_potentials,
)

PREDICATES = (
    is_convex, is_affine, is_semistable, is_stable, is_slope_like,
    has_nash_equilibrium,
)


def sweep_games():
    for lattice in lattice_iso_classes(5):
        yield from iter_sweep_games(lattice)


def group_games():
    groups = iter_invariant_factor_groups(64, 3)
    groups += [FiniteAbelianGroup((2,) * 4), FiniteAbelianGroup((2,) * 5)]
    assert len(groups) == 110
    for group in groups:
        yield coprimary_game(group)


def divisor_lattice(m):
    divs = [d for d in range(1, m + 1) if m % d == 0]
    relation = [(str(a), str(b)) for a in divs for b in divs if a != b and b % a == 0]
    return as_bounded_lattice(build_poset([str(d) for d in divs], relation))


def potentials_games():
    for lattice in (fixtures.chain(40), divisor_lattice(360)):
        for seed in range(5):
            yield quotient_payoff(lattice, random_potentials(random.Random(seed), lattice))


def feed(h, g):
    h.update(repr(g.tables()).encode())
    h.update(repr(tuple(p(g) for p in PREDICATES)).encode())


def feed_payoff(h, g):
    items = sorted(g.payoff.items())
    h.update(repr(items).encode())
    h.update(repr([type(v).__name__ for _, v in items]).encode())


def main():
    total = hashlib.sha256()
    for name, games in (
        ("sweep", sweep_games()),
        ("groups", group_games()),
        ("potentials", potentials_games()),
    ):
        h = hashlib.sha256()
        count = 0
        for g in games:
            if name == "potentials":
                feed_payoff(h, g)
            feed(h, g)
            feed(h, dual(g))
            count += 1
        digest = h.hexdigest()
        total.update(digest.encode())
        print(f"{name} {count} games and duals: {digest}", flush=True)
    print(f"all: {total.hexdigest()}")


if __name__ == "__main__":
    main()
