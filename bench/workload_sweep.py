"""The ``sweep`` workload: many tiny games analysed through the library.

Inputs: payoff tables over the chain 0 < 1 < 2 on every bounded-lattice class
with 2 to 5 elements (108,165 games in all), plus 2-chain tables on the 15
six-element classes.  A round is a seeded sample of both, with a fixed
number of games per lattice class, in seeded order.  One operation analyses one game: tables, six predicates, st_set, the
canonical filtration and its uniqueness oracle on convex games, a
Jordan-Hölder filtration on eligible games, and mu_b* of the dual.
"""

from __future__ import annotations

import random
from collections import Counter
from time import perf_counter

from hngame import game as hgame
from hngame.filtration import canonical_hn_filtration, enumerate_hn_filtrations, st_set
from hngame.jordan_holder import find_jh, validate_jh
from hngame.sweeps import iter_sweep_games, lattice_iso_classes
from hngame.values import FiniteChain

from reference import LATTICE_CLASSES, literal_series

GAMES_PER_ROUND = 12000  # sampled from the 108,165 games on 2..5 elements
SIX_PER_CLASS = 40  # sampled 2-chain games on each six-element class
LITERAL_SAMPLE = 300  # games checked against the literal evaluator


class SweepGame:
    """One game: a lattice, its value chain and a payoff table."""

    __slots__ = ("lattice", "values", "payoff")

    def __init__(self, lattice, values, payoff):
        self.lattice = lattice
        self.values = values
        self.payoff = payoff

    def call(self):
        g = hgame.Game(self.lattice, self.values, self.payoff)
        g.tables()
        convex = hgame.is_convex(g)
        affine = hgame.is_affine(g)
        semistable = hgame.is_semistable(g)
        stable = hgame.is_stable(g)
        slope_like = hgame.is_slope_like(g)
        nash = hgame.has_nash_equilibrium(g)
        st = st_set(g)
        canonical = enumerated = jh = jh_check = None
        if convex:
            canonical = canonical_hn_filtration(g)
            enumerated = enumerate_hn_filtrations(g)
        lattice = self.lattice
        if (
            semistable
            and slope_like
            and self.payoff[(lattice.bot, lattice.top)] != self.values.top
        ):
            jh = find_jh(g)
            jh_check = validate_jh(g, jh)
        dual_star = hgame.mu_b_star(hgame.dual(g))
        return (g, convex, affine, semistable, stable, slope_like, nash, st,
                canonical, enumerated, jh_check, dual_star)

    def verify(self, result):
        """Returns (failed, problem)."""
        if isinstance(result, Exception):
            return True, None
        return False, self._problem(*result)

    def _problem(self, g, convex, affine, semistable, stable, slope_like, nash,
                 st, canonical, enumerated, jh_check, dual_star):
        """Required properties of one analysis; returns a problem or None."""
        lattice = self.lattice
        bt = (lattice.bot, lattice.top)
        if affine and not convex:
            return "affine but not convex"
        if stable and not semistable:
            return "stable but not semistable"
        if semistable != (st == frozenset({lattice.top})):
            return "semistable disagrees with st_set == {top}"
        if slope_like and nash != semistable:
            return "slope-like game where Nash and semistability differ"
        if dual_star != g.tables().mu_a[bt]:
            return "mu_b*(dual g) differs from mu_a*(g)"
        if convex:
            if not canonical.valid:
                return "canonical filtration fails validation"
            if [f.steps for f in enumerated] != [canonical.filtration.steps]:
                return "enumeration does not return exactly the canonical filtration"
        if jh_check is not None and not jh_check.valid:
            return "Jordan-Hölder filtration fails validation"
        return None


class Sweep:
    def __init__(self, seed):
        start = perf_counter()
        rng = random.Random(seed)
        self.classes = lattice_iso_classes(6)
        small = [l for l in self.classes if l.n <= 5]
        six = [l for l in self.classes if l.n == 6]
        self.game_counts = []  # (lattice, value count, games yielded)
        ops = []
        sizes = [3 ** len(l.strict_pairs()) for l in small]
        total = sum(sizes)
        # Each class gets its share of the round exactly, so every seed sees
        # the same mix of lattices (the 5-element chain alone is 55% of it).
        for lattice, size in zip(small, sizes):
            quota = round(GAMES_PER_ROUND * size / total)
            ops += self._collect(lattice, None, 3, set(rng.sample(range(size), quota)))
        two = FiniteChain((0, 1))
        for lattice in six:
            size = 2 ** len(lattice.strict_pairs())
            chosen = set(rng.sample(range(size), SIX_PER_CLASS))
            ops += self._collect(lattice, two, 2, chosen)
        rng.shuffle(ops)
        self.ops = ops
        self.rng = rng
        # The inputs come from library calls, so all of it is set-up time.
        self.library_s = perf_counter() - start

    def _collect(self, lattice, values, base, chosen):
        """Games at the chosen indices of the library's sweep, which must
        yield base^pairs games."""
        out = []
        count = 0
        for index, g in enumerate(iter_sweep_games(lattice, values)):
            count += 1
            if index in chosen:
                out.append(SweepGame(lattice, g.values, g.payoff))
        self.game_counts.append((lattice, base, count))
        return out

    def prepare(self):
        """Counts the library produced against A006966 and 3^pairs / 2^pairs."""
        problems = []
        by_size = Counter(l.n for l in self.classes)
        for n in range(2, 7):
            if by_size[n] != LATTICE_CLASSES[n]:
                problems.append(f"{by_size[n]} lattice classes on {n} elements")
        for lattice, base, count in self.game_counts:
            if count != base ** len(lattice.strict_pairs()):
                problems.append(f"{count} games on a {lattice.n}-element class")
        return problems

    def final_checks(self):
        """All four series at every pair against the literal evaluator."""
        problems = []
        for op in self.rng.sample(self.ops, LITERAL_SAMPLE):
            lattice = op.lattice
            g = hgame.Game(lattice, op.values, op.payoff)
            t = g.tables()
            ref = literal_series(
                lattice.le, list(lattice.elements()), op.payoff, max, min
            )
            for pair, expect in ref.items():
                got = (t.mu_max[pair], t.mu_min[pair], t.mu_a[pair], t.mu_b[pair])
                if got != expect:
                    problems.append(f"series at {pair} on a {lattice.n}-element game")
                    break
        return problems


def setup(seed, workdir):
    return Sweep(seed)


NAMESPACES = (globals(),)
