"""The ``documents`` workload: one CLI call per generated document.

Each operation is one in-process ``hngame.cli.main`` call that reads a JSON
document and writes its report to a file.  Every document carries its own
lattice, so per-lattice caches are built once and used once.  A round holds:

- affine slope games on divisor lattices D(m) (``check`` and ``hn``):
  chains D(2^k) with 20 to 120 elements, Boolean lattices and mixed D(m)
  with up to 240 divisors, with rank and degree made of seeded increments
  per prime;
- flat games on divisor lattices with at most 16 elements (``jh``);
- random posets on 12 to 16 elements (``dm``);
- seven inputs the CLI should reject with exit code 2 and a one-line
  message.  They do not depend on the seed.

The lattice shapes are fixed, so a round does the same amount of work for
every seed; the seed picks the numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from math import prod

from hngame import cli

from reference import (
    big_omega,
    closed_set_count,
    divisors,
    factorize,
    hn_polygon,
    maximal_chain_count,
    valuation,
)

# Element counts of the chains D(2^(n-1)).  The sizes are close together so
# that the slowest tenth of a round is a dense ladder of costs: the p90 then
# moves smoothly with the cost of the operations around it.
CHAIN_CHECK = (20, 25, 30, 35, 40, 45, 50, 55)
CHAIN_HN = (20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120)
# Boolean lattices on the first k primes, 8 to 64 elements.
BOOLEAN = (3, 4, 5, 6)
# Mixed divisor lattices: 8 to 120 divisors for check, up to 240 for hn.
MIXED_CHECK = (
    24, 36, 48, 72, 96, 120, 144, 180, 240, 360, 720, 2520, 5040, 27720, 55440,
)
MIXED_HN = MIXED_CHECK + (360360, 720720)
# Divisor lattices with at most 16 elements for the Jordan-Hölder pipeline.
FLAT = (
    6, 12, 30, 36, 60, 210, 24, 48, 72, 120, 96, 144, 216, 108, 192, 384,
    162, 128, 1024, 32768,
)
# Poset sizes for the Dedekind-MacNeille completion.
POSETS = (12, 12, 12, 12, 13, 13, 13, 13, 14, 14, 14, 14, 15, 15, 15, 16, 16)
POSET_DENSITY = 0.25

PRIMES = (2, 3, 5, 7, 11, 13)


def _rational(v):
    return f"{v.numerator}/{v.denominator}"


def _lattice_section(m):
    ds = divisors(m)
    ps = list(factorize(m))
    return {
        "elements": [str(d) for d in ds],
        "covers": [[str(d), str(d * p)] for d in ds for p in ps if m % (d * p) == 0],
    }


def _potentials(m, increments):
    """Rank and degree of each divisor: sums of its primes' increments."""
    rank, degree = {}, {}
    for d in divisors(m):
        r = q = Fraction(0)
        for p, incs in increments.items():
            for dr, dq in incs[: valuation(d, p)]:
                r += dr
                q += dq
        rank[str(d)] = _rational(r)
        degree[str(d)] = _rational(q)
    return rank, degree


def _game_doc(name, m, increments):
    rank, degree = _potentials(m, increments)
    return {
        "schema_version": 1,
        "kind": "game",
        "name": name,
        "lattice": _lattice_section(m),
        "payoff": {"source": "potentials", "rank": rank, "degree": degree},
    }


def _affine_increments(rng, m):
    return {
        p: [
            (Fraction(rng.randint(1, 6), rng.randint(1, 3)),
             Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            for _ in range(e)
        ]
        for p, e in factorize(m).items()
    }


def _flat_increments(rng, m):
    slope = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    out = {}
    for p, e in factorize(m).items():
        ranks = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(e)]
        out[p] = [(r, slope * r) for r in ranks]
    return out


def _poset_doc(rng, n):
    names = [f"p{i}" for i in range(n)]
    pairs = [
        [names[i], names[j]]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < POSET_DENSITY
    ]
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for a, b in pairs:
            if a == names[i]:
                up[i] |= up[names.index(b)]
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    doc = {
        "schema_version": 1,
        "kind": "poset",
        "poset": {"elements": names, "relation": pairs},
    }
    return doc, up, down


def _label_steps(steps):
    """Divisor labels of exponent dicts {p: k}."""
    return [str(prod(p**k for p, k in step.items())) for step in steps]


# Inputs the CLI should reject as input errors (exit 2, one stderr line).
_SQUARE = {
    "elements": ["bot", "a", "b", "top"],
    "covers": [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]],
}
_SQUARE_POTENTIALS = {
    "source": "potentials",
    "rank": {"bot": "0", "a": "1", "b": "1", "top": "2"},
    "degree": {"bot": "0", "a": "3", "b": "1", "top": "4"},
}
REJECTED = (
    ("duplicate element labels", ["check"], {
        "schema_version": 1, "kind": "game",
        "lattice": {"elements": ["bot", "a", "a", "top"],
                    "covers": [["bot", "a"], ["a", "top"]]},
        "payoff": _SQUARE_POTENTIALS,
    }),
    ("list used as a label", ["check"], {
        "schema_version": 1, "kind": "game",
        "lattice": {"elements": ["bot", ["a"], "top"],
                    "covers": [["bot", "top"]]},
        "payoff": _SQUARE_POTENTIALS,
    }),
    ("list-valued values section with potentials", ["check"], {
        "schema_version": 1, "kind": "game", "lattice": _SQUARE,
        "values": [], "payoff": _SQUARE_POTENTIALS,
    }),
    ("prime value outside the declared base", ["check"], {
        "schema_version": 1, "kind": "game",
        "lattice": {"elements": ["bot", "top"], "covers": [["bot", "top"]]},
        "values": {"kind": "prime_finsets", "primes": [2, 3]},
        "payoff": {"source": "table",
                   "entries": [{"lo": "bot", "hi": "top", "value": [5]}]},
    }),
    ("decreasing rank potential", ["check"], {
        "schema_version": 1, "kind": "game", "lattice": _SQUARE,
        "payoff": {"source": "potentials",
                   "rank": {"bot": "0", "a": "2", "b": "1", "top": "1"},
                   "degree": {"bot": "0", "a": "1", "b": "1", "top": "2"}},
    }),
    ("coprimary --orders 1", ["coprimary", "--orders", "1"], None),
    ("hn-enumerate --max-size 0", ["hn-enumerate", "--max-size", "0"], {
        "schema_version": 1, "kind": "game", "lattice": _SQUARE,
        "payoff": _SQUARE_POTENTIALS,
    }),
)


class CliCall:
    """One in-process CLI call and what its report must say.

    ``check(report, *expect)`` returns a problem or None; ``expect`` comes
    from ``reference()``, computed once before the timed phase.  With
    ``check=None`` the call must be rejected as an input error: exit code 2,
    one line on stderr, no exception.
    """

    __slots__ = ("argv", "output", "check", "reference", "expect")

    def __init__(self, argv, output, check=None, reference=tuple):
        self.argv = argv
        self.output = output
        self.check = check
        self.reference = reference
        self.expect = None

    def call(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            rc = cli.main(self.argv)
        return rc, err.getvalue()

    def verify(self, result):
        """Returns (failed, problem)."""
        try:
            with open(self.output, encoding="utf-8") as fh:
                report = json.load(fh)
            os.unlink(self.output)
        except FileNotFoundError:
            report = None
        if isinstance(result, Exception):
            return True, None
        rc, err = result
        if self.check is None:
            return not (rc == 2 and len(err.splitlines()) == 1), None
        if report is None:
            return True, None
        problem = self.check(report, *self.expect)
        if problem is None and rc != 0:
            problem = f"exit code {rc} on a report that passes its checks"
        return False, problem


def check_report(report, slopes):
    pred = report["predicates"]
    series = report["mu_series"]
    semistable = len(slopes) == 1
    if not (pred["convex"] and pred["affine"] and pred["slope_like"]):
        return "slope game on D(m) not convex, affine and slope-like"
    if pred["semistable"] != semistable or pred["nash_equilibrium"] != semistable:
        return "semistable/Nash disagree with a one-segment HN polygon"
    if Fraction(series["mu_max"]) != slopes[0] or Fraction(series["mu_b"]) != slopes[0]:
        return "mu_max / mu_b at (bot, top) differ from the steepest slope"
    if Fraction(series["mu_min"]) != slopes[-1] or Fraction(series["mu_a"]) != slopes[-1]:
        return "mu_min / mu_a at (bot, top) differ from the shallowest slope"
    if Fraction(report["dual_first_mover_value"]) != slopes[-1]:
        return "mu_b*(dual g) differs from mu_a*(g)"
    tfae = report["nash_tfae"]
    if tfae is None or len(set(tfae.values())) != 1:
        return "Nash equivalences missing or divergent"
    return None


def hn_report(report, labels, slopes):
    if not report["valid"]:
        return "canonical filtration reported invalid"
    if report["filtration"] != labels:
        return "HN steps differ from the HN polygon"
    if [Fraction(v) for v in report["mu_a_steps"]] != slopes:
        return "HN step payoffs differ from the polygon slopes"
    return None


def jh_report(report, length, chains):
    if not report["valid"]:
        return "Jordan-Hölder filtration reported invalid"
    if len(report["filtration"]) - 1 != length:
        return "Jordan-Hölder length differs from Omega(m)"
    if report["lengths"] != {"equal": True, "lengths": [length], "count": chains}:
        return "Jordan-Hölder count differs from the maximal-chain count"
    return None


def dm_report(report, closed):
    if not report["self_factorization"]:
        return "completion does not factor through itself"
    if report["count"] != closed:
        return "closed-set count differs from the intersections of down-sets"
    return None


class Documents:
    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.ops = []
        self._workdir = workdir

        for n in CHAIN_CHECK:
            self._slope_game("check", f"chain{n}", 2 ** (n - 1), rng)
        for n in CHAIN_HN:
            self._slope_game("hn", f"chain{n}", 2 ** (n - 1), rng)
        for k in BOOLEAN:
            m = prod(PRIMES[:k])
            for cmd in ("check", "hn"):
                self._slope_game(cmd, f"boolean{k}", m, rng)
        for m in MIXED_CHECK:
            self._slope_game("check", f"mixed{m}", m, rng)
        for m in MIXED_HN:
            self._slope_game("hn", f"mixed{m}", m, rng)
        for m in FLAT:
            doc = _game_doc(f"flat{m}", m, _flat_increments(rng, m))
            self._add(["jh"], doc["name"], doc, jh_report,
                      lambda m=m: (big_omega(m), maximal_chain_count(m)))
        for k, n in enumerate(POSETS):
            doc, up, down = _poset_doc(rng, n)
            self._add(["dm"], f"poset{k}", doc, dm_report,
                      lambda up=up, down=down: (closed_set_count(up, down),))
        for k, (_, argv, doc) in enumerate(REJECTED):
            self._add(argv, f"rejected{k}", doc)
        rng.shuffle(self.ops)

    def _slope_game(self, cmd, name, m, rng):
        increments = _affine_increments(rng, m)
        doc = _game_doc(name, m, increments)

        def reference():
            steps, slopes = hn_polygon(increments)
            return (slopes,) if cmd == "check" else (_label_steps(steps), slopes)

        check = check_report if cmd == "check" else hn_report
        self._add([cmd], f"{cmd}-{name}", doc, check, reference)

    def _add(self, argv, name, doc, check=None, reference=tuple):
        argv = list(argv)
        output = os.path.join(self._workdir, f"{name}.report.json")
        if doc is not None:
            path = os.path.join(self._workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv += ["--input", path]
        argv += ["--output", output]
        self.ops.append(CliCall(argv, output, check, reference))

    # The benchmark writes the inputs itself; no library call prepares them.
    library_s = 0.0

    def prepare(self):
        """Expected values from the reference computations."""
        for op in self.ops:
            op.expect = op.reference()
        return []

    def final_checks(self):
        return []


def setup(seed, workdir):
    return Documents(seed, workdir)


NAMESPACES = ()
