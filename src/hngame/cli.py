"""Command-line surface.

Exit codes: 0 when the computed property holds, 1 when a property fails
(invalid filtration, violated uniqueness, failed precondition), 2 on input
errors.  Reports are canonical JSON written to --output or stdout; a short
human summary goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import io as hio
from .errors import HNGameError, PreconditionFailed, TheoremViolation
from .filtration import (
    MAX_ENUMERATION_ELEMENTS,
    canonical_hn_filtration,
    enumerate_hn_filtrations,
    mu_admissible,
)
from .game import (
    Game,
    dual,
    has_nash_equilibrium,
    has_seesaw_violation,
    is_affine,
    is_convex,
    is_semistable,
    is_slope_like,
    is_stable,
    mu_a,
    mu_b,
    mu_b_star,
    mu_max,
    mu_min,
    nash_tfae_report,
)
from .abelian import MAX_GROUP_ORDER, FiniteAbelianGroup, coprimary_filtration
from .completion import (
    MAX_COMPLETION_ELEMENTS,
    check_universal_property,
    dedekind_macneille,
)
from .jordan_holder import (
    find_jh,
    jh_lengths_equal,
    piecewise_stability,
    validate_jh,
)
from .order import is_modular
from .sweeps import lattice_iso_classes, iter_sweep_games, random_quotient_game

OK, PROPERTY_FAILURE, INPUT_ERROR = 0, 1, 2


def _read_input(args):
    if args.input == "-":
        return sys.stdin.read()
    return hio.load_path(args.input)


def _write_output(args, text):
    """Write ``text`` to --output, or to stdout when none is given."""
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise HNGameError(
            f"cannot write {args.output}: {exc.strerror or exc}"
        ) from None


def _write_report(args, payload):
    _write_output(args, hio.emit_report(payload))


def _load_game(args, max_order=MAX_GROUP_ORDER):
    """The game of the input document; ``max_order`` guards the group of an
    ``abelian_group`` document."""
    kind, obj, name = hio.parse_document(_read_input(args), max_order=max_order)
    if kind != "game":
        raise HNGameError("this command needs a game document")
    return obj, name


def _enc(game, v):
    return hio._encode_value(game.values, v)


def cmd_check(args):
    game, name = _load_game(args, args.max_size)
    bot, top = game.lattice.bot, game.lattice.top
    payload = {
        "command": "check",
        "name": name,
        "predicates": {
            "convex": is_convex(game),
            "affine": is_affine(game),
            "semistable": is_semistable(game),
            "stable": is_stable(game),
            "slope_like": is_slope_like(game),
            "nash_equilibrium": has_nash_equilibrium(game),
        },
        "mu_series": {
            "payoff": _enc(game, game.mu(bot, top)),
            "mu_max": _enc(game, mu_max(game, bot, top)),
            "mu_min": _enc(game, mu_min(game, bot, top)),
            "mu_a": _enc(game, mu_a(game, bot, top)),
            "mu_b": _enc(game, mu_b(game, bot, top)),
        },
        "dual_first_mover_value": _enc(game, mu_b_star(dual(game))),
    }
    if payload["predicates"]["slope_like"] and game.values.is_total:
        report = nash_tfae_report(game)
        payload["nash_tfae"] = {
            "mu_max_attains_payoff": report.mu_max_attains_payoff,
            "mu_min_attains_payoff": report.mu_min_attains_payoff,
            "mu_min_equals_mu_max": report.mu_min_equals_mu_max,
            "nash_equilibrium": report.nash,
            "semistable": report.semistable,
        }
    else:
        payload["nash_tfae"] = None
    _write_report(args, payload)
    held = [k for k, v in payload["predicates"].items() if v]
    print(f"check: {', '.join(held) or '(none hold)'}", file=sys.stderr)
    return OK


def cmd_hn(args):
    game, name = _load_game(args, args.max_size)
    report = canonical_hn_filtration(game)
    labels = report.filtration.labels(game.lattice)
    payload = {
        "command": "hn",
        "name": name,
        "filtration": list(labels),
        "mu_a_steps": [_enc(game, v) for v in report.filtration.mu_a_steps],
        "piecewise_semistable": list(report.piecewise_semistable),
        "mu_a_decreasing": list(report.mu_a_decreasing),
        "valid": report.valid,
    }
    _write_report(args, payload)
    print(f"hn: {' < '.join(map(str, labels))} valid={report.valid}", file=sys.stderr)
    return OK if report.valid else PROPERTY_FAILURE


def cmd_hn_enumerate(args):
    game, name = _load_game(args)
    found = enumerate_hn_filtrations(game, max_elements=args.max_size)
    canonical = None
    if is_convex(game) and mu_admissible(game):
        canonical = canonical_hn_filtration(game).filtration
    unique = None
    if game.values.is_total and canonical is not None:
        unique = len(found) == 1 and found[0].steps == canonical.steps
    payload = {
        "command": "hn-enumerate",
        "name": name,
        "count": len(found),
        "filtrations": [list(f.labels(game.lattice)) for f in found],
        "canonical": list(canonical.labels(game.lattice)) if canonical else None,
        "unique_and_canonical": unique,
    }
    _write_report(args, payload)
    print(f"hn-enumerate: {len(found)} valid filtration(s)", file=sys.stderr)
    if unique is False:
        return PROPERTY_FAILURE
    return OK


def cmd_jh(args):
    game, name = _load_game(args)
    filtration = find_jh(game)
    validation = validate_jh(game, filtration)
    stability = piecewise_stability(game, filtration)
    lengths = None
    if is_modular(game.lattice) and is_affine(game):
        survey = jh_lengths_equal(game, max_elements=args.max_size)
        lengths = {
            "equal": survey.equal,
            "lengths": sorted(survey.lengths),
            "count": survey.count,
        }
    labels = filtration.labels(game.lattice)
    valid = validation.valid and all(stability)
    payload = {
        "command": "jh",
        "name": name,
        "filtration": list(labels),
        "step_payoff_matches": list(validation.step_payoff_matches),
        "step_strictly_optimal": list(validation.step_strictly_optimal),
        "piecewise_stable": list(stability),
        "lengths": lengths,
        "valid": valid,
    }
    _write_report(args, payload)
    print(f"jh: {' > '.join(map(str, labels))} valid={valid}", file=sys.stderr)
    return OK if valid and (lengths is None or lengths["equal"]) else PROPERTY_FAILURE


def cmd_dm(args):
    kind, obj, name = hio.parse_document(_read_input(args))
    if kind != "poset":
        raise HNGameError("dm needs a poset document")
    completion = dedekind_macneille(obj, max_elements=args.max_size)
    witness = check_universal_property(
        completion,
        completion.as_lattice(),
        {i: completion.embedding[i] for i in range(obj.n)},
    )
    payload = {
        "command": "dm",
        "name": name,
        "base_elements": list(obj.names),
        "count": len(completion.closed_sets),
        "closed_sets": [
            list(completion.members(k)) for k in range(len(completion.closed_sets))
        ],
        # Keyed by the label's string form, as JSON keys are strings.
        "embedding": {
            str(obj.names[i]): list(completion.members(completion.embedding[i]))
            for i in range(obj.n)
        },
        "linear": completion.is_linear(),
        "self_factorization": witness.holds,
    }
    _write_report(args, payload)
    print(f"dm: {len(completion.closed_sets)} closed sets", file=sys.stderr)
    return OK if witness.holds else PROPERTY_FAILURE


def cmd_coprimary(args):
    if any(k < 2 for k in args.orders):
        raise HNGameError("--orders: cyclic orders must all be at least 2")
    group = FiniteAbelianGroup(args.orders)
    report = coprimary_filtration(group, max_order=args.max_size)
    payload = {
        "command": "coprimary",
        "group": list(group.cyclic_orders),
        "group_order": group.order,
        "subgroup_count": report.subgroup_lattice.lattice.n,
        "filtration": list(report.step_labels),
        "step_primes": list(report.step_primes),
        "quotients_coprimary": list(report.quotients_coprimary),
        "primes_strictly_decreasing": report.primes_strictly_decreasing,
        "ass_matches_step_primes": report.ass_matches_step_primes,
        "hn_valid": report.hn_report.valid,
        "valid": report.valid,
    }
    _write_report(args, payload)
    print(
        f"coprimary: {' < '.join(report.step_labels)} "
        f"primes={list(report.step_primes)}",
        file=sys.stderr,
    )
    return OK if report.valid else PROPERTY_FAILURE


def cmd_export_dot(args):
    game, name = _load_game(args)
    highlight = []
    if args.hn:
        report = canonical_hn_filtration(game)
        highlight = list(report.filtration.labels(game.lattice))
    _write_output(args, hio.export_dot(game.lattice, highlight=highlight, title=name))
    print(f"export-dot: {game.lattice.n} nodes", file=sys.stderr)
    return OK


def cmd_selfcheck(args):
    if args.max_size < 2:
        raise HNGameError("--max-size: random lattices need at least 2 elements")
    if args.trials < 0:
        raise HNGameError("--trials: the number of random trials cannot be negative")
    rng = random.Random(args.seed)
    trials = args.trials
    all_slope_like = True
    no_violations = True
    for _ in range(trials):
        g = random_quotient_game(rng, max_elements=args.max_size)
        # A quotient game is built slope-like; the check is the scan of the
        # same payoff built by the public constructor.
        scanned = Game(g.lattice, g.values, g.payoff)
        if not (is_slope_like(g) and is_slope_like(scanned)):
            all_slope_like = False
        if has_seesaw_violation(g):
            no_violations = False
    exhaustive_ok = True
    for lattice in lattice_iso_classes(4):
        for g in iter_sweep_games(lattice):
            if is_slope_like(g) == has_seesaw_violation(g):
                exhaustive_ok = False
    payload = {
        "command": "selfcheck",
        "seed": args.seed,
        "random_trials": trials,
        "random_quotients_slope_like": all_slope_like,
        "no_seesaw_violations": no_violations,
        "seesaw_equivalence_small_sweep": exhaustive_ok,
        "valid": all_slope_like and no_violations and exhaustive_ok,
    }
    _write_report(args, payload)
    print(f"selfcheck: valid={payload['valid']}", file=sys.stderr)
    return OK if payload["valid"] else PROPERTY_FAILURE


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors instead of exiting."""

    def error(self, message):
        raise HNGameError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing never changes
    it."""
    parser = _Parser(
        prog="hngame",
        description="Harder-Narasimhan games on finite bounded lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The commands with a size guard, and the guard each one defaults to.
    guards = {
        "check": MAX_GROUP_ORDER,
        "hn": MAX_GROUP_ORDER,
        "hn-enumerate": MAX_ENUMERATION_ELEMENTS,
        "jh": MAX_ENUMERATION_ELEMENTS,
        "dm": MAX_COMPLETION_ELEMENTS,
        "coprimary": MAX_GROUP_ORDER,
        "selfcheck": 8,
    }

    def add(name, fn, needs_input=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_input:
            p.add_argument("--input", required=True, help="document path or '-'")
        p.add_argument("--output", help="write the JSON report here")
        if name in guards:
            p.add_argument(
                "--max-size", type=int, default=guards[name],
                help=f"the command's size guard (default {guards[name]})",
            )
        p.set_defaults(handler=fn)
        return p

    add("check", cmd_check, help="predicates, mu-series, Nash equivalences")
    add("hn", cmd_hn, help="canonical Harder-Narasimhan filtration")
    add("hn-enumerate", cmd_hn_enumerate, help="brute-force uniqueness oracle")
    add("jh", cmd_jh, help="Jordan-Hölder filtration search and checks")
    add("dm", cmd_dm, help="Dedekind-MacNeille completion of a poset")
    p = add("coprimary", cmd_coprimary, needs_input=False,
            help="coprimary filtration of a finite abelian group")
    p.add_argument(
        "--orders", type=int, nargs="+", required=True,
        help="cyclic orders, e.g. --orders 12 or --orders 4 3",
    )
    p = add("export-dot", cmd_export_dot, help="Hasse diagram as Graphviz DOT")
    p.add_argument(
        "--hn", action="store_true", help="highlight the canonical filtration"
    )
    p = add("selfcheck", cmd_selfcheck, needs_input=False,
            help="randomized and small exhaustive property sweeps")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="randomized sweep seed")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (PreconditionFailed, TheoremViolation) as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return PROPERTY_FAILURE
    except HNGameError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
