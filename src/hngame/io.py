"""Document parsing and emission.

One JSON document format covers games and bare posets (schema shipped at
schema/document.schema.json).  Cover pairs are accepted and transitively
closed on load; rationals travel as exact strings "p/q"; emission is
canonical (sorted keys, fixed entry order), so parse-emit-parse is a
fixpoint.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

from .abelian import (
    MAX_GROUP_ORDER,
    FiniteAbelianGroup,
    coprimary_game,
    subgroup_lattice,
)
from .errors import HNGameError, SchemaError
from .game import Game
from .order import as_bounded_lattice, build_poset
from .slopes import PotentialData, quotient_payoff
from .values import (
    NEG_INF,
    POS_INF,
    ExtendedRationals,
    FiniteLatticeValues,
    PrimeFinsets,
)

SCHEMA_VERSION = 1

# The finite literals of the schema's ``rational`` pattern,
# ``^(-?[0-9]+(/[0-9]+)?|inf|-inf)$``.  ``int`` alone would also take a
# plus sign, a signed denominator, underscores, surrounding whitespace and
# non-ASCII digits.
_FINITE_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def format_rational(v):
    """Exact encoding: 'p/q' for finite values, 'inf'/'-inf' for the ends.

    Raises :class:`HNGameError`, naming the value in scientific notation,
    when p or q is over the interpreter's int-string limit.
    """
    if v == POS_INF:
        return "inf"
    if v == NEG_INF:
        return "-inf"
    f = Fraction(v)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:
        e = math.log10(abs(f.numerator)) - math.log10(f.denominator)
        sign = "-" if f < 0 else ""
        shown = f"{sign}{10 ** (e - math.floor(e)):.3f}e{math.floor(e):+d}"
        raise HNGameError(_over_digit_limit(f"report value about {shown}")) from None


def parse_rational(s, where="value"):
    if not isinstance(s, str):
        raise SchemaError("rational literals are strings like '3/2'", field=where)
    if s == "inf":
        return POS_INF
    if s == "-inf":
        return NEG_INF
    m = _FINITE_RATIONAL.fullmatch(s)
    try:
        num, den = (int(m[1]), int(m[2] or 1)) if m else (0, 0)
    except ValueError:
        raise SchemaError(_over_digit_limit("rational literal"), field=where) from None
    if not den:
        raise SchemaError(f"malformed rational literal {s!r}", field=where)
    return Fraction(num, den)


def _over_digit_limit(what):
    """The message for a number with more digits than the interpreter's
    int-string limit, which guards against quadratic-time conversion and is
    left as it is."""
    return f"{what} has more than {sys.get_int_max_str_digits()} digits"


def _parse_potential(s, where):
    v = parse_rational(s, where)
    if v in (POS_INF, NEG_INF):
        raise SchemaError("potentials are finite rationals", field=where)
    return v


def _require(doc, key, typ, where):
    """``doc[key]``, checked to be a ``typ``.  No field is a boolean, and a
    JSON true or false, which Python counts as an int, is refused."""
    if key not in doc:
        raise SchemaError(f"missing required field {key!r}", field=where)
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, typ):
        wanted = (
            typ.__name__
            if isinstance(typ, type)
            else " or ".join(t.__name__ for t in typ)
        )
        raise SchemaError(
            f"field {key!r} must be {wanted}", field=f"{where}.{key}"
        )
    return value


def _is_label(label):
    """Labels are strings or integers; a bool is not an integer here."""
    return isinstance(label, (str, int)) and not isinstance(label, bool)


def _load_order_section(section, where):
    elements = _require(section, "elements", list, where)
    field = f"{where}.elements"
    if not elements:
        raise SchemaError("an order needs at least one element", field=field)
    if not all(map(_is_label, elements)):
        raise SchemaError("element labels are strings or integers", field=field)
    # Reports key by label, and JSON object keys are strings, so 1 and "1"
    # count as the same label.
    if len(set(map(str, elements))) != len(elements):
        raise SchemaError(
            "element labels must be distinct, also as strings", field=field
        )
    if "covers" in section and "relation" in section:
        raise SchemaError(
            "give either 'covers' or 'relation', not both", field=where
        )
    pairs = section.get("covers", section.get("relation"))
    if pairs is None:
        raise SchemaError("missing 'covers' or 'relation'", field=where)
    if not isinstance(pairs, list):
        raise SchemaError("'covers'/'relation' must be a list", field=where)
    cleaned = []
    for k, entry in enumerate(pairs):
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and all(map(_is_label, entry))
        ):
            raise SchemaError(
                "relation entries are two-element lists of labels",
                field=f"{where}[{k}]",
            )
        cleaned.append((entry[0], entry[1]))
    return build_poset(elements, cleaned)


def _load_values_section(section, where):
    kind = _require(section, "kind", str, where)
    if kind == "extended_rational":
        return ExtendedRationals()
    if kind == "explicit_lattice":
        poset = _load_order_section(section, where)
        return FiniteLatticeValues(as_bounded_lattice(poset))
    if kind == "prime_finsets":
        primes = _require(section, "primes", list, where)
        if not all(isinstance(p, int) and p >= 2 for p in primes):
            raise SchemaError("primes must be integers >= 2", field=f"{where}.primes")
        if len(set(primes)) != len(primes):
            raise SchemaError("primes must be distinct", field=f"{where}.primes")
        return PrimeFinsets(primes)
    raise SchemaError(f"unknown value kind {kind!r}", field=f"{where}.kind")


def _decode_value(values, raw, where):
    if values.kind == "extended_rational":
        return parse_rational(raw, where)
    value = raw
    if values.kind == "prime_finsets":
        if not (isinstance(raw, list) and all(isinstance(p, int) for p in raw)):
            raise SchemaError("prime-set values are lists of ints", field=where)
        value = frozenset(raw)
    if isinstance(value, (list, dict, bool)) or not values.contains(value):
        raise SchemaError(f"{raw!r} is not a declared value", field=where)
    return value


def _encode_value(values, v):
    if values.kind == "extended_rational":
        return format_rational(v)
    if values.kind == "prime_finsets":
        return sorted(v)
    return v


def _load_payoff_table(lattice, values, entries, where):
    payoff = {}
    for k, entry in enumerate(entries):
        loc = f"{where}[{k}]"
        if not isinstance(entry, dict):
            raise SchemaError("payoff entries are objects", field=loc)
        lo = lattice.index(_require(entry, "lo", (str, int), loc))
        hi = lattice.index(_require(entry, "hi", (str, int), loc))
        if not lattice.lt(lo, hi):
            raise SchemaError(
                f"payoff entry on non-strict pair "
                f"({lattice.names[lo]!r}, {lattice.names[hi]!r})",
                field=loc,
            )
        if (lo, hi) in payoff:
            raise SchemaError(
                f"duplicate payoff entry for "
                f"({lattice.names[lo]!r}, {lattice.names[hi]!r})",
                field=loc,
            )
        if "value" not in entry:
            raise SchemaError("missing required field 'value'", field=loc)
        payoff[(lo, hi)] = _decode_value(values, entry["value"], f"{loc}.value")
    missing = set(lattice.strict_pairs()) - set(payoff)
    if missing:
        shown = sorted(
            (lattice.names[a], lattice.names[b]) for a, b in missing
        )[:5]
        raise SchemaError(f"payoff table misses strict pairs {shown}", field=where)
    return payoff


def parse_document(text, max_order=MAX_GROUP_ORDER):
    """Parse a document; returns ('game', Game, name) or ('poset', poset, name).

    ``max_order`` is the size guard on the group of an ``abelian_group``
    game, passed to :func:`~hngame.abelian.subgroup_lattice`; other
    documents do not read it.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc.msg}", line=exc.lineno) from None
    except RecursionError:
        raise SchemaError("not valid JSON: nested too deeply") from None
    except ValueError:
        raise SchemaError(_over_digit_limit("a number literal")) from None
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    version = _require(doc, "schema_version", int, "document")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {version}", field="schema_version"
        )
    kind = _require(doc, "kind", str, "document")
    name = _require(doc, "name", str, "document") if "name" in doc else None
    if kind == "poset":
        section = _require(doc, "poset", dict, "document")
        return "poset", _load_order_section(section, "poset"), name
    if kind != "game":
        raise SchemaError(f"unknown document kind {kind!r}", field="kind")

    payoff_section = _require(doc, "payoff", dict, "document")
    source = _require(payoff_section, "source", str, "payoff")
    if source == "abelian_group":
        if "lattice" in doc or "values" in doc:
            raise SchemaError(
                "abelian_group documents derive lattice and values; "
                "drop those sections",
                field="payoff",
            )
        orders = _require(payoff_section, "cyclic_orders", list, "payoff")
        if not orders or not all(isinstance(k, int) and k >= 2 for k in orders):
            raise SchemaError(
                "cyclic orders must be integers >= 2", field="payoff.cyclic_orders"
            )
        group = FiniteAbelianGroup(orders)
        sl = subgroup_lattice(group, max_order=max_order)
        return "game", coprimary_game(group, sl), name

    lattice = as_bounded_lattice(
        _load_order_section(_require(doc, "lattice", dict, "document"), "lattice")
    )
    if source == "table":
        values = _load_values_section(
            _require(doc, "values", dict, "document"), "values"
        )
        entries = _require(payoff_section, "entries", list, "payoff")
        payoff = _load_payoff_table(lattice, values, entries, "payoff.entries")
        return "game", Game(lattice, values, payoff), name
    if source == "potentials":
        values_section = doc.get("values", {"kind": "extended_rational"})
        if (
            not isinstance(values_section, dict)
            or values_section.get("kind") != "extended_rational"
        ):
            raise SchemaError(
                "potential payoffs use extended_rational values", field="values"
            )
        rank = _require(payoff_section, "rank", dict, "payoff")
        degree = _require(payoff_section, "degree", dict, "payoff")
        # JSON keys are strings, so each label is looked up as str(label).
        for label in lattice.names:
            if str(label) not in rank:
                raise SchemaError(f"rank misses element {label!r}", field="payoff.rank")
            if str(label) not in degree:
                raise SchemaError(
                    f"degree misses element {label!r}", field="payoff.degree"
                )
        parsed = [
            {k: _parse_potential(v, f"payoff.{field}.{k}") for k, v in table.items()}
            for field, table in (("rank", rank), ("degree", degree))
        ]
        data = PotentialData(*(
            {label: p[str(label)] for label in lattice.names} for p in parsed
        ))
        return "game", quotient_payoff(lattice, data), name
    raise SchemaError(f"unknown payoff source {source!r}", field="payoff.source")


def parse_game(text):
    """Parse a game document into a validated Game."""
    kind, obj, _ = parse_document(text)
    if kind != "game":
        raise SchemaError("expected a game document, got a poset document")
    return obj


def parse_poset(text):
    kind, obj, _ = parse_document(text)
    if kind != "poset":
        raise SchemaError("expected a poset document, got a game document")
    return obj


def _order_section(poset):
    covers = sorted(poset.covers())
    return {
        "elements": list(poset.names),
        "covers": [[poset.names[a], poset.names[b]] for a, b in covers],
    }


def _values_section(values):
    if values.kind == "extended_rational":
        return {"kind": "extended_rational"}
    if values.kind == "prime_finsets":
        return {"kind": "prime_finsets", "primes": list(values.primes)}
    return {"kind": "explicit_lattice", **_order_section(values.lattice)}


def game_to_document(game, name=None):
    """Canonical document for a game: explicit payoff table, sorted entries."""
    names = game.lattice.names
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "game",
        "lattice": _order_section(game.lattice),
        "values": _values_section(game.values),
        "payoff": {
            "source": "table",
            "entries": [
                {
                    "lo": names[a],
                    "hi": names[b],
                    "value": _encode_value(game.values, game.payoff[(a, b)]),
                }
                for a, b in game.lattice.strict_pairs()
            ],
        },
    }
    if name is not None:
        doc["name"] = name
    return doc


def poset_to_document(poset, name=None):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "poset",
        "poset": _order_section(poset),
    }
    if name is not None:
        doc["name"] = name
    return doc


def document_to_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit_game(game, name=None):
    return document_to_text(game_to_document(game, name))


def emit_report(payload):
    """Canonical machine-readable report text (stable field ordering)."""
    return document_to_text(payload)


def _dot_string(text):
    """A DOT quoted string, with backslashes and double quotes escaped."""
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(lattice, highlight=(), title=None):
    """Graphviz DOT for the Hasse diagram, bottom-up rank direction.

    ``highlight`` names elements (e.g. filtration steps) drawn filled.
    """
    highlight = set(highlight)
    ids = [_dot_string(name) for name in lattice.names]
    lines = ["digraph hasse {"]
    if title:
        lines.append(f"  label={_dot_string(title)};")
    lines.append("  rankdir=BT;")
    lines.append("  node [shape=box];")
    for name, node in zip(lattice.names, ids):
        attrs = ' [style=filled, fillcolor=lightgrey]' if name in highlight else ""
        lines.append(f"  {node}{attrs};")
    for a, b in sorted(lattice.covers()):
        lines.append(f"  {ids[a]} -> {ids[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_path(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise HNGameError(f"cannot read {path}: {exc}") from None
