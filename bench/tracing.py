"""Spans and counts around the calls into hngame, recorded from outside it.

``Tracer.installed`` replaces each traced function with a timing wrapper
wherever a module looks the name up: every ``hngame`` module namespace that
binds the original object (``from .order import as_bounded_lattice`` in
``abelian`` makes a second binding), the namespaces the benchmark passes in,
and the class dictionary for methods such as ``Game.tables``.  Leaving the
``with`` block puts the originals back; the program's files do not change.

A span is (name, start, end, parent).  Spans stay in memory until the run
ends; ``write`` stores them column-wise as JSON.  A span's self time is its
duration minus the durations of its direct children, so a call that is not
traced (``interval_semistable`` inside ``validate_hn``, say) is charged to
the nearest traced caller.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import perf_counter_ns
from typing import Callable, NamedTuple


def _popcount(mask):
    return bin(mask).count("1")


def _count_tables(tracer, args):
    # Only a game whose tables are not cached yet does table work.
    game = args[0]
    if getattr(game, "_tables", None) is None:
        lattice = game.lattice
        tracer.counts["game.witness_terms"] += sum(
            _popcount(lattice.between(x, y)) for x, y in lattice.strict_pairs()
        )


def _count_slope_like(tracer, args):
    lattice = args[0].lattice
    tracer.counts["game.chain_triples"] += sum(
        _popcount(lattice.strictly_between(x, y)) for x, y in lattice.strict_pairs()
    )


def _count_chain(tracer, args):
    if tracer.innermost() == "filtration.enumerate_hn_filtrations":
        tracer.counts["filtration.chains_checked"] += 1


def _count_valid_chains(tracer, result):
    tracer.counts["filtration.valid_chains"] += len(result)


def _count_poset(tracer, args):
    poset = args[0]
    tracer.counts["order.elements"] += poset.n
    tracer.counts["order.strict_pairs"] += sum(map(_popcount, poset.up)) - poset.n


def _count_jh(tracer, result):
    tracer.counts["jordan_holder.filtrations"] += len(result)


def _count_completion(tracer, result):
    tracer.counts["completion.closed_sets"] += len(result.closed_sets)
    tracer.counts["completion.subsets"] += 1 << result.base.n


def _count_subgroups(tracer, result):
    tracer.counts["abelian.subgroups"] += len(result.subgroups)


class Traced(NamedTuple):
    """One traced name.

    ``attr`` "Class.method" is patched on the class, a plain name in every
    namespace that binds it.  ``group`` pools the span's self time into a
    shared metric.  ``before(tracer, args)`` and ``after(tracer, result)`` add
    work counts around the call.  ``timed=False`` records no span, so the
    call's time stays with its caller and only the hooks run.
    """

    module: str
    attr: str
    group: str | None = None
    before: Callable | None = None
    after: Callable | None = None
    timed: bool = True

    @property
    def span(self):
        return f"{self.module.split('.')[-1]}.{self.attr.split('.')[-1]}"


PREDICATES = "game.predicates"

TRACED = (
    Traced("hngame.sweeps", "lattice_iso_classes"),
    Traced("hngame.game", "Game.tables", before=_count_tables),
    Traced("hngame.game", "dual"),
    Traced("hngame.game", "is_convex", PREDICATES),
    Traced("hngame.game", "is_affine", PREDICATES),
    Traced("hngame.game", "is_semistable", PREDICATES),
    Traced("hngame.game", "is_stable", PREDICATES),
    Traced("hngame.game", "has_nash_equilibrium", PREDICATES),
    Traced("hngame.game", "nash_tfae_report", PREDICATES),
    Traced("hngame.game", "is_slope_like", before=_count_slope_like),
    Traced("hngame.filtration", "st_set"),
    Traced("hngame.filtration", "canonical_hn_filtration"),
    Traced("hngame.filtration", "validate_hn", before=_count_chain, timed=False),
    Traced(
        "hngame.filtration", "enumerate_hn_filtrations", after=_count_valid_chains
    ),
    Traced("hngame.jordan_holder", "find_jh"),
    Traced("hngame.jordan_holder", "enumerate_jh_filtrations", after=_count_jh),
    Traced("hngame.order", "build_poset"),
    Traced("hngame.order", "as_bounded_lattice", before=_count_poset),
    Traced("hngame.slopes", "quotient_payoff"),
    Traced("hngame.io", "parse_document"),
    Traced("hngame.io", "emit_report"),
    Traced("hngame.cli", "main"),
    Traced("hngame.completion", "dedekind_macneille", after=_count_completion),
    Traced("hngame.completion", "check_universal_property"),
    Traced("hngame.abelian", "subgroup_lattice", after=_count_subgroups),
    Traced("hngame.abelian", "coprimary_game"),
    Traced("hngame.abelian", "associated_primes"),
)

COUNTS = (
    "game.witness_terms",
    "game.chain_triples",
    "filtration.chains_checked",
    "filtration.valid_chains",
    "order.elements",
    "order.strict_pairs",
    "jordan_holder.filtrations",
    "completion.closed_sets",
    "completion.subsets",
    "abelian.subgroups",
)

# Value-lattice methods counted (not timed) under "values.calls".
VALUE_CLASSES = (
    "ValueLattice",
    "ExtendedRationals",
    "FiniteChain",
    "FiniteLatticeValues",
    "PrimeFinsets",
    "_DualValues",
)
VALUE_METHODS = ("sup", "inf", "leq", "lt", "gt")

OP_SPAN = "op"


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.names = [OP_SPAN]
        self.name_id = {OP_SPAN: 0}
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.value_calls = 0
        self._patches = []

    # -------------------------------------------------------------- spans

    def _open(self, name_id):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(perf_counter_ns())
        return idx

    def _close(self, idx):
        self.span_end[idx] = perf_counter_ns()
        self.stack.pop()

    def innermost(self):
        """Name of the innermost open span, or None."""
        return self.names[self.span_name[self.stack[-1]]] if self.stack else None

    def op_span(self, fn):
        """Run fn() inside a root span marking one benchmark operation."""
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, fn, t):
        before, after = t.before, t.after
        if not t.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                before(self, args)
                return fn(*args, **kwargs)

            return counted

        if t.span not in self.name_id:
            self.name_id[t.span] = len(self.names)
            self.names.append(t.span)
        name_id = self.name_id[t.span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, result)
            return result

        return traced

    def _count_value_call(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.value_calls += 1
            return fn(*args, **kwargs)

        return counted

    # --------------------------------------------------------- patching

    @contextlib.contextmanager
    def installed(self, extra_namespaces=()):
        """Trace inside the ``with`` block; ``extra_namespaces`` are module
        dicts of the benchmark that imported hngame names directly."""
        self._install(extra_namespaces)
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self, extra_namespaces):
        """Patch every traced name.  A name the program no longer has is
        skipped, and its metrics read 0."""
        namespaces = [
            vars(mod)
            for name, mod in sorted(sys.modules.items())
            if name == "hngame" or name.startswith("hngame.")
        ]
        namespaces.extend(extra_namespaces)
        for t in TRACED:
            module = sys.modules.get(t.module)
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._set_attr(cls, meth, self._wrap(vars(cls)[meth], t))
                continue
            original = getattr(module, t.attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, t)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, key, value, False))
                        ns[key] = wrapper
        values = sys.modules.get("hngame.values")
        for cls_name in VALUE_CLASSES:
            cls = getattr(values, cls_name, None)
            for meth in VALUE_METHODS if cls is not None else ():
                if meth in vars(cls):
                    self._set_attr(cls, meth, self._count_value_call(vars(cls)[meth]))

    def _set_attr(self, cls, attr, value):
        self._patches.append((cls, attr, vars(cls)[attr], True))
        setattr(cls, attr, value)

    def _uninstall(self):
        for target, key, original, is_class in reversed(self._patches):
            if is_class:
                setattr(target, key, original)
            else:
                target[key] = original
        self._patches = []

    # ---------------------------------------------------------- results

    def _self_seconds(self):
        """Per span name: summed duration minus direct children, seconds."""
        n = len(self.span_name)
        child_ns = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_ns[parent] += self.span_end[i] - self.span_start[i]
        out = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i] - child_ns[i]
            out[name] = out.get(name, 0) + dur
        return {name: ns / 1e9 for name, ns in out.items()}

    def _calls(self, span):
        name_id = self.name_id.get(span)
        return sum(1 for i in self.span_name if i == name_id)

    def layer_metrics(self):
        """The per-layer metrics, as {name: (value, unit)}."""
        self_s = self._self_seconds()
        grouped = {}
        for t in TRACED:
            if t.timed:
                key = t.group or t.span
                grouped[key] = grouped.get(key, 0.0) + self_s.get(t.span, 0.0)
        c = self.counts
        out = {f"{t.span}.self_s": (grouped[t.span], "s")
               for t in TRACED if t.timed and t.group is None}
        out[f"{PREDICATES}.self_s"] = (grouped[PREDICATES], "s")
        out.update({
            "game.tables.calls": (self._calls("game.tables"), "count"),
            "game.is_slope_like.calls": (self._calls("game.is_slope_like"), "count"),
            "abelian.associated_primes.calls": (
                self._calls("abelian.associated_primes"), "count"),
            "values.calls": (self.value_calls, "count"),
            "filtration.valid_per_chain": (
                _ratio(c["filtration.valid_chains"], c["filtration.chains_checked"]),
                "ratio"),
            "completion.closed_per_subset": (
                _ratio(c["completion.closed_sets"], c["completion.subsets"]), "ratio"),
        })
        for name in COUNTS:
            if name not in ("filtration.valid_chains", "completion.subsets"):
                out[name] = (c[name], "count")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name,
                    "start_ns": self.span_start,
                    "end_ns": self.span_end,
                    "parent": self.span_parent,
                    "counts": dict(self.counts, **{"values.calls": self.value_calls}),
                },
                fh,
                separators=(",", ":"),
            )


def _ratio(num, den):
    return num / den if den else 0.0
