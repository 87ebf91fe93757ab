"""Jordan-Hölder filtrations of semistable games.

A Jordan-Hölder filtration descends top = y_0 > y_1 > ... > y_n = bot where
every step pays the whole-game value, mu(y_i, y_{i-1}) = mu(bot, top), and
beats every intermediate deviation strictly: mu(y_i, z) < mu(y_i, y_{i-1})
for y_i < z < y_{i-1}.  Both step conditions are local to the step, so a
backtracking descent enumerates valid filtrations exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import JHNotFound, PreconditionFailed, TooLarge
from .filtration import MAX_ENUMERATION_ELEMENTS
from .game import (
    _payoff_code,
    _row_witness,
    interval_stable,
    is_affine,
    is_semistable,
    is_slope_like,
)
from .order import check_chain, is_modular, iter_chains


@dataclass(frozen=True)
class JHFiltration:
    """A strict top-to-bot chain; length is the number of steps."""

    steps: tuple

    @property
    def length(self):
        return len(self.steps) - 1

    def labels(self, lattice):
        return tuple(lattice.names[i] for i in self.steps)


@dataclass(frozen=True)
class JHValidation:
    """Per-step outcome of the two defining conditions.

    ``step_payoff_matches[i]`` is condition one for the step from steps[i] to
    steps[i+1]; ``step_strictly_optimal[i]`` is condition two, with
    ``deviation_witness[i]`` naming a violating intermediate element if any.
    """

    valid: bool
    step_payoff_matches: tuple
    step_strictly_optimal: tuple
    deviation_witness: tuple


def _game_value(g):
    return g.mu(g.lattice.bot, g.lattice.top)


def _first_deviation(g, lower, upper):
    """The first z with lower < z < upper and mu(lower, z) not strictly below
    mu(lower, upper), or None when the step is strictly optimal.  Values
    need not be total, so this is not ``mu(lower, upper) <= mu(lower, z)``."""
    lt = g.values.code_order.lt
    return _row_witness(g, g._codes[0], lower, upper, lambda ref, c: not lt(c, ref))


def _check_jh_preconditions(g, modular_affine=False):
    if not is_semistable(g):
        raise PreconditionFailed("game is semistable")
    if not g.values.is_total:
        raise PreconditionFailed("value lattice is totally ordered")
    if not is_slope_like(g):
        raise PreconditionFailed("payoff is slope-like")
    if _game_value(g) == g.values.top:
        raise PreconditionFailed(
            "whole-game payoff differs from the top value of S"
        )
    if modular_affine:
        if not is_modular(g.lattice):
            raise PreconditionFailed("lattice is modular")
        if not is_affine(g):
            raise PreconditionFailed("payoff is affine")


def _jh_chains(g):
    """Top-to-bot chains whose every step passes both step conditions."""
    l = g.lattice
    code = _payoff_code(g)
    total = code(l.bot, l.top)
    return iter_chains(
        l, l.top, l.bot,
        lambda chain, lower: code(lower, chain[-1]) == total
        and _first_deviation(g, lower, chain[-1]) is None,
    )


def find_jh(g):
    """Find one Jordan-Hölder filtration by backtracking descent from top.

    Candidates at each level are tried in increasing element index, so the
    result is deterministic.  Under the checked hypotheses existence is
    guaranteed; exhausting the search raises the :class:`JHNotFound`
    diagnostic rather than returning silently.
    """
    _check_jh_preconditions(g)
    steps = next(_jh_chains(g), None)
    if steps is None:
        raise JHNotFound(
            "no Jordan-Hölder filtration found despite the hypotheses"
        )
    return JHFiltration(steps)


def validate_jh(g, f):
    """Check both step conditions exhaustively, with per-step diagnostics."""
    l = g.lattice
    steps = check_chain(l, f, l.top, l.bot)
    total = _game_value(g)
    cond1, cond2, witness = [], [], []
    for upper, lower in zip(steps, steps[1:]):
        cond1.append(g.mu(lower, upper) == total)
        bad = _first_deviation(g, lower, upper)
        cond2.append(bad is None)
        witness.append(bad)
    return JHValidation(
        valid=all(cond1) and all(cond2),
        step_payoff_matches=tuple(cond1),
        step_strictly_optimal=tuple(cond2),
        deviation_witness=tuple(witness),
    )


def piecewise_stability(g, f):
    """Stability of the restriction to every step interval.

    Requires a slope-like payoff over total values (the stronger chain
    condition holds vacuously here); under those hypotheses every step of a
    valid filtration is stable.
    """
    if not g.values.is_total:
        raise PreconditionFailed("value lattice is totally ordered")
    if not is_slope_like(g):
        raise PreconditionFailed("payoff is slope-like")
    l = g.lattice
    steps = check_chain(l, f, l.top, l.bot)
    return tuple(
        interval_stable(g, lower, upper) for upper, lower in zip(steps, steps[1:])
    )


def enumerate_jh_filtrations(g, max_elements=MAX_ENUMERATION_ELEMENTS):
    """All Jordan-Hölder filtrations, by exhaustive descent.

    No hypotheses are enforced beyond the size guard, so this can probe
    behaviour outside the theorems' scope (e.g. non-modular lattices).
    """
    l = g.lattice
    TooLarge.check("lattice size", l.n, max_elements)
    return [JHFiltration(steps) for steps in _jh_chains(g)]


@dataclass(frozen=True)
class JHLengthSurvey:
    """Observed lengths over all Jordan-Hölder filtrations of one game."""

    equal: bool
    lengths: frozenset
    count: int


def jh_lengths_equal(g, max_elements=MAX_ENUMERATION_ELEMENTS):
    """Whether all Jordan-Hölder filtrations share one length.

    Requires the semistable/slope-like/total/value hypotheses plus a modular
    lattice and an affine payoff; under those the answer is always yes, and a
    ``False`` therefore signals a bug.
    """
    _check_jh_preconditions(g, modular_affine=True)
    found = enumerate_jh_filtrations(g, max_elements)
    lengths = frozenset(f.length for f in found)
    return JHLengthSurvey(
        equal=len(lengths) == 1, lengths=lengths, count=len(found)
    )
