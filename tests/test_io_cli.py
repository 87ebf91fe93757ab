import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hngame import fixtures
from hngame import game as hgame
from hngame.abelian import FiniteAbelianGroup, coprimary_game
from hngame.cli import build_parser, main
from hngame.errors import SchemaError
from hngame.values import FiniteLatticeValues
from hngame.io import (
    emit_game,
    export_dot,
    format_rational,
    parse_document,
    parse_game,
    parse_poset,
    parse_rational,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURE_DOCS = sorted((REPO / "fixtures").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_fixture_files_exist():
    assert len(FIXTURE_DOCS) >= 6


@pytest.mark.parametrize("path", FIXTURE_DOCS, ids=lambda p: p.stem)
def test_parse_emit_parse_fixpoint(path):
    text = path.read_text()
    kind, obj, _ = parse_document(text)
    if kind == "poset":
        from hngame.io import poset_to_document, document_to_text

        text2 = document_to_text(poset_to_document(obj))
        _, obj2, _ = parse_document(text2)
        assert obj2 == obj
        text3 = document_to_text(poset_to_document(obj2))
        assert text3 == text2
    else:
        text2 = emit_game(obj)
        obj2 = parse_game(text2)
        assert obj2 == obj
        assert emit_game(obj2) == text2


def test_gmod_document_matches_fixture():
    g = parse_game((REPO / "fixtures" / "gmod.json").read_text())
    assert g == fixtures.g_mod()


def test_abelian_document_expands_to_coprimary_game():
    g = parse_game((REPO / "fixtures" / "z12.json").read_text())
    assert g == coprimary_game(FiniteAbelianGroup([12]))


def test_schema_rejects_non_strict_pair():
    doc = json.loads((REPO / "fixtures" / "const_b2.json").read_text())
    doc["payoff"]["entries"][0] = {"lo": "a", "hi": "a", "value": "0/1"}
    with pytest.raises(SchemaError):
        parse_game(json.dumps(doc))


def test_schema_rejects_duplicate_entry():
    doc = json.loads((REPO / "fixtures" / "const_b2.json").read_text())
    doc["payoff"]["entries"].append(doc["payoff"]["entries"][0])
    with pytest.raises(SchemaError):
        parse_game(json.dumps(doc))


def test_schema_rejects_missing_pairs():
    doc = json.loads((REPO / "fixtures" / "const_b2.json").read_text())
    doc["payoff"]["entries"] = doc["payoff"]["entries"][:-1]
    with pytest.raises(SchemaError) as err:
        parse_game(json.dumps(doc))
    assert "misses" in str(err.value)


def test_schema_rejects_bad_json_with_line():
    with pytest.raises(SchemaError) as err:
        parse_document("{\n  broken\n}")
    assert err.value.line == 2


def test_poset_vs_game_mismatch():
    with pytest.raises(SchemaError):
        parse_poset((REPO / "fixtures" / "gmod.json").read_text())
    with pytest.raises(SchemaError):
        parse_game((REPO / "fixtures" / "two_antichain.json").read_text())


def test_shipped_fixtures_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((REPO / "schema" / "document.schema.json").read_text())
    for path in FIXTURE_DOCS:
        jsonschema.validate(json.loads(path.read_text()), schema)


def test_rational_formatting():
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(float("inf")) == "inf"
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("-inf") == float("-inf")
    with pytest.raises(SchemaError):
        parse_rational("3/0")
    with pytest.raises(SchemaError):
        parse_rational("a/b")


@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=1, max_value=10**6))
def test_rational_round_trip(num, den):
    v = Fraction(num, den)
    assert parse_rational(format_rational(v)) == v


def test_export_dot_b2():
    text = export_dot(fixtures.b2(), highlight=("bot", "top"))
    node_lines = [l for l in text.splitlines() if l.startswith('  "') and "->" not in l]
    edge_lines = [l for l in text.splitlines() if "->" in l]
    assert len(node_lines) == 4
    assert len(edge_lines) == 4
    assert sum("fillcolor" in l for l in node_lines) == 2


def test_export_dot_escapes_quotes_and_backslashes():
    lattice = fixtures.chain(3, ('say "hi"', "a\\b", "top"))
    text = export_dot(lattice, highlight=("top",), title='doc "x"')
    assert text == (
        "digraph hasse {\n"
        '  label="doc \\"x\\"";\n'
        "  rankdir=BT;\n"
        "  node [shape=box];\n"
        '  "say \\"hi\\"";\n'
        '  "a\\\\b";\n'
        '  "top" [style=filled, fillcolor=lightgrey];\n'
        '  "say \\"hi\\"" -> "a\\\\b";\n'
        '  "a\\\\b" -> "top";\n'
        "}\n"
    )


# Every command that reads a document, run on every fixture.  The exit code
# and stderr line of each pair are pinned in golden/cli_exits.json, and a
# pair that writes a report has it pinned byte for byte in
# golden/<fixture>_<command>.json (.dot for export-dot).
DOC_COMMANDS = {
    "check": ["check"],
    "hn": ["hn"],
    "hn_enumerate": ["hn-enumerate"],
    "jh": ["jh"],
    "dm": ["dm"],
    "export_dot": ["export-dot"],
    "export_dot_hn": ["export-dot", "--hn"],
}
CLI_EXITS = json.loads((GOLDEN / "cli_exits.json").read_text())
INPUT_ERRORS = json.loads((GOLDEN / "input_errors.json").read_text())


@pytest.mark.parametrize("command", list(DOC_COMMANDS))
@pytest.mark.parametrize("path", FIXTURE_DOCS, ids=lambda p: p.stem)
def test_cli_fixture_goldens(tmp_path, capsys, path, command):
    out = tmp_path / "report"
    code = main(DOC_COMMANDS[command] + ["--input", str(path), "--output", str(out)])
    assert [code, capsys.readouterr().err] == CLI_EXITS[f"{path.stem} {command}"]
    suffix = ".dot" if command.startswith("export") else ".json"
    golden = GOLDEN / f"{path.stem}_{command}{suffix}"
    assert out.exists() == golden.exists()
    if golden.exists():
        assert out.read_bytes() == golden.read_bytes()


def test_cli_exits_cover_every_fixture_and_command():
    assert set(CLI_EXITS) == {
        f"{path.stem} {command}" for path in FIXTURE_DOCS for command in DOC_COMMANDS
    }


def test_cli_hn_golden_bytes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["hn", "--input", str(REPO / "fixtures" / "gmod.json"),
                 "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "gmod_hn.json").read_bytes()


def test_cli_coprimary_golden_bytes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["coprimary", "--orders", "12", "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "z12_coprimary.json").read_bytes()


def test_cli_check_exit_zero(tmp_path):
    code = main(["check", "--input", str(REPO / "fixtures" / "steep_chain.json"),
                 "--output", str(tmp_path / "r.json")])
    assert code == 0


def test_cli_check_names_no_predicate_when_none_hold(tmp_path, capsys):
    code = main(["check", "--input", str(REPO / "fixtures" / "n5_chain_values.json"),
                 "--output", str(tmp_path / "r.json")])
    assert code == 0
    assert capsys.readouterr().err == "check: (none hold)\n"


def test_cli_property_failure_exit_one(tmp_path):
    # Jordan-Hölder on a non-semistable game is a property failure.
    code = main(["jh", "--input", str(REPO / "fixtures" / "steep_chain.json"),
                 "--output", str(tmp_path / "r.json")])
    assert code == 1


def test_cli_input_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{notjson")
    code = main(["hn", "--input", str(bad), "--output", str(tmp_path / "r.json")])
    assert code == 2
    code = main(["dm", "--input", str(REPO / "fixtures" / "gmod.json"),
                 "--output", str(tmp_path / "r.json")])
    assert code == 2


def test_cli_parser_is_reused_after_a_usage_error(tmp_path, capsys):
    # The parser is built once per process: a usage error, and a value given
    # in one call, leave the next call as it would be in a fresh process.
    assert build_parser() is build_parser()
    code = main(["coprimary", "--orders", "12", "--no-such-flag"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("input error: ")
    code = main(["coprimary", "--orders", "12", "--max-size", "5"])
    assert code == 2
    capsys.readouterr()
    out = tmp_path / "report.json"
    code = main(["coprimary", "--orders", "12", "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "z12_coprimary.json").read_bytes()


_SQUARE = {
    "elements": ["bot", "a", "b", "top"],
    "covers": [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]],
}
_SQUARE_POTENTIALS = {
    "source": "potentials",
    "rank": {"bot": "0", "a": "1", "b": "1", "top": "2"},
    "degree": {"bot": "0", "a": "3", "b": "1", "top": "4"},
}
_SQUARE_GAME = {
    "schema_version": 1, "kind": "game", "lattice": _SQUARE,
    "payoff": _SQUARE_POTENTIALS,
}


@pytest.mark.parametrize("argv, doc", [
    pytest.param(["check"], {
        "schema_version": 1, "kind": "game",
        "lattice": {"elements": ["bot", "a", "a", "top"],
                    "covers": [["bot", "a"], ["a", "top"]]},
        "payoff": _SQUARE_POTENTIALS,
    }, id="duplicate-labels"),
    pytest.param(["check"], {
        "schema_version": 1, "kind": "game",
        "lattice": {"elements": ["bot", ["a"], "top"], "covers": [["bot", "top"]]},
        "payoff": _SQUARE_POTENTIALS,
    }, id="list-label"),
    pytest.param(["check"], dict(_SQUARE_GAME, values=[]), id="list-values"),
    pytest.param(["check"], {
        "schema_version": 1, "kind": "game",
        "lattice": {"elements": ["bot", "top"], "covers": [["bot", "top"]]},
        "values": {"kind": "prime_finsets", "primes": [2, 3]},
        "payoff": {"source": "table",
                   "entries": [{"lo": "bot", "hi": "top", "value": [5]}]},
    }, id="prime-outside-base"),
    pytest.param(["check"], dict(_SQUARE_GAME, payoff={
        "source": "potentials",
        "rank": {"bot": "0", "a": "2", "b": "1", "top": "1"},
        "degree": {"bot": "0", "a": "1", "b": "1", "top": "2"},
    }), id="decreasing-rank-potential"),
    pytest.param(["coprimary", "--orders", "1"], None, id="coprimary-orders-1"),
    pytest.param(["hn-enumerate", "--max-size", "0"], _SQUARE_GAME, id="max-size-0"),
    pytest.param(["selfcheck", "--max-size", "1"], None, id="selfcheck-max-size-1"),
    pytest.param(["selfcheck", "--trials", "-5"], None, id="selfcheck-negative-trials"),
    pytest.param(["check", "--seed", "3"], _SQUARE_GAME, id="check-seed"),
    pytest.param(["check"], dict(_SQUARE_GAME, lattice={
        "elements": ["bot", "top"], "covers": [["bot", ["top"]]],
    }), id="list-in-relation-entry"),
    pytest.param(["dm"], {
        "schema_version": 1, "kind": "poset",
        "poset": {"elements": [], "covers": []},
    }, id="empty-poset"),
    pytest.param(["check"], dict(_SQUARE_GAME, payoff=dict(
        _SQUARE_POTENTIALS, degree={"bot": "0", "a": "inf", "b": "1", "top": "4"},
    )), id="infinite-potential"),
    pytest.param(["check"], {
        "schema_version": 1, "kind": "game",
        "payoff": {"source": "abelian_group", "cyclic_orders": []},
    }, id="empty-cyclic-orders"),
    pytest.param(["check"], {
        "schema_version": 1, "kind": "game",
        "lattice": {"elements": ["bot", "top"], "covers": [["bot", "top"]]},
        "values": {"kind": "prime_finsets", "primes": [2, 2]},
        "payoff": {"source": "table",
                   "entries": [{"lo": "bot", "hi": "top", "value": [2]}]},
    }, id="duplicate-primes"),
    pytest.param(["check"], {
        "schema_version": 1, "kind": "game",
        "lattice": {"elements": ["bot", "top"], "covers": [["bot", "top"]]},
        "values": {"kind": "explicit_lattice", "elements": [0, 1],
                   "covers": [[0, 1]]},
        "payoff": {"source": "table",
                   "entries": [{"lo": "bot", "hi": "top", "value": [1]}]},
    }, id="list-as-lattice-value"),
    pytest.param(["check"], dict(_SQUARE_GAME, name={"a": [1]}), id="object-name"),
    pytest.param(["export-dot"], dict(_SQUARE_GAME, name=["sq"]), id="list-name-dot"),
    pytest.param(["check"], dict(_SQUARE_GAME, schema_version=True),
                 id="boolean-schema-version"),
    pytest.param(["dm"], {
        "schema_version": 1, "kind": "poset",
        "poset": {"elements": ["a", True, "x"], "covers": [["a", "x"]]},
    }, id="boolean-label"),
    pytest.param(["dm"], {
        "schema_version": 1, "kind": "poset",
        "poset": {"elements": [1, "1"], "covers": []},
    }, id="labels-equal-as-strings"),
    pytest.param(["dm"], {
        "schema_version": 1, "kind": "poset",
        "poset": {"elements": [0, 1], "covers": [[0, True]]},
    }, id="boolean-label-in-covers"),
    pytest.param(["check"], {
        "schema_version": 1, "kind": "game",
        "lattice": {"elements": [0, 1], "covers": [[0, 1]]},
        "values": {"kind": "extended_rational"},
        "payoff": {"source": "table",
                   "entries": [{"lo": 0, "hi": True, "value": "1/2"}]},
    }, id="boolean-payoff-hi"),
    pytest.param(["check"], {
        "schema_version": 1, "kind": "game",
        "lattice": {"elements": ["bot", "top"], "covers": [["bot", "top"]]},
        "values": {"kind": "explicit_lattice", "elements": [0, 1],
                   "covers": [[0, 1]]},
        "payoff": {"source": "table",
                   "entries": [{"lo": "bot", "hi": "top", "value": True}]},
    }, id="boolean-lattice-value"),
])
def test_cli_input_error_is_one_line(tmp_path, capsys, request, argv, doc):
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--input", str(path)]
    code = main(argv + ["--output", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: ")
    assert err == INPUT_ERRORS[request.node.callspec.id]


# Literals that ``int`` parses but the schema's rational pattern refuses.
_OFF_PATTERN_RATIONALS = [
    "1_000", " 3", "\t5\n", "+3", "3/+4", "3/ 4", "1_0/2_0", "\u0663/\u0664",
    "3/-4",
]


@pytest.mark.parametrize("source", ["table", "potentials"])
@pytest.mark.parametrize("literal", _OFF_PATTERN_RATIONALS)
def test_cli_refuses_rational_literals_off_the_schema_pattern(
    tmp_path, capsys, literal, source
):
    if source == "table":
        doc = {
            "schema_version": 1, "kind": "game",
            "lattice": {"elements": ["bot", "top"], "covers": [["bot", "top"]]},
            "values": {"kind": "extended_rational"},
            "payoff": {"source": "table",
                       "entries": [{"lo": "bot", "hi": "top", "value": literal}]},
        }
    else:
        doc = dict(_SQUARE_GAME, payoff=dict(
            _SQUARE_POTENTIALS, degree={"bot": "0", "a": literal, "b": "1", "top": "4"},
        ))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--input", str(path), "--output", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("input error: ")
    assert f"malformed rational literal {literal!r}" in captured.err
    assert "Traceback" not in captured.err


# A literal longer than the interpreter's int-string limit, which guards
# against quadratic-time conversion.
_HUGE = "1" + "0" * 5000
_CHAIN2 = {"elements": ["bot", "top"], "covers": [["bot", "top"]]}
# The slope of the top, (10^2200 + 1)(10^2200 + 3), has 4401 digits.
_HUGE_SLOPE_GAME = {
    "schema_version": 1, "kind": "game", "lattice": _CHAIN2,
    "payoff": {"source": "potentials",
               "rank": {"bot": "0", "top": f"1/{10 ** 2200 + 3}"},
               "degree": {"bot": "0", "top": f"{10 ** 2200 + 1}"}},
}


@pytest.mark.parametrize("command", ["check", "hn"])
@pytest.mark.parametrize("text, message", [
    pytest.param(
        f'{{"schema_version": {_HUGE}, "kind": "game"}}',
        "a number literal has more than 4300 digits",
        id="json-number",
    ),
    pytest.param(json.dumps({
        "schema_version": 1, "kind": "game", "lattice": _CHAIN2,
        "values": {"kind": "extended_rational"},
        "payoff": {"source": "table",
                   "entries": [{"lo": "bot", "hi": "top", "value": f"{_HUGE}/3"}]},
    }), "rational literal has more than 4300 digits (field payoff.entries[0].value)",
        id="table-rational"),
    pytest.param(json.dumps(dict(_SQUARE_GAME, payoff=dict(
        _SQUARE_POTENTIALS, degree={"bot": "0", "a": _HUGE, "b": "1", "top": "4"},
    ))), "rational literal has more than 4300 digits (field payoff.degree.a)",
        id="degree-potential"),
    pytest.param(
        json.dumps(_HUGE_SLOPE_GAME),
        "report value about 1.000e+4400 has more than 4300 digits",
        id="report-value",
    ),
])
def test_cli_numbers_over_the_int_string_limit_are_input_errors(
    tmp_path, capsys, command, text, message
):
    path = tmp_path / "doc.json"
    path.write_text(text)
    out = tmp_path / "r.json"
    code = main([command, "--input", str(path), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and not out.exists()
    assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("argv", [
    ["check", "--input", "gmod.json"],
    ["coprimary", "--orders", "12"],
    ["export-dot", "--input", "gmod.json"],
], ids=lambda argv: argv[0])
def test_cli_unwritable_output_is_input_error(tmp_path, capsys, argv, target):
    argv = [str(REPO / "fixtures" / a) if a.endswith(".json") else a for a in argv]
    output = tmp_path / "missing" / "r.out" if target == "missing-directory" else tmp_path
    code = main(argv + ["--output", str(output)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"input error: cannot write {output}: ")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(REPO / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def test_cli_coprimary_guard_runs_before_building_elements():
    # A group of order 10^12 must be refused by the order guard, within
    # 1 GiB of address space, before any of its elements exists.
    proc = subprocess.run(
        [sys.executable, "-m", "hngame.cli", "coprimary",
         "--orders", "1000000", "1000000"],
        capture_output=True, text=True, timeout=60, env=_src_env(),
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("input error: ")


def test_python_m_hngame_runs_the_cli(capsys):
    argv = ["coprimary", "--orders", "12"]
    proc = subprocess.run(
        [sys.executable, "-m", "hngame", *argv],
        capture_output=True, text=True, timeout=60, env=_src_env(),
    )
    assert main(argv) == proc.returncode == 0
    captured = capsys.readouterr()
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
    assert proc.stdout == (GOLDEN / "z12_coprimary.json").read_text()


@pytest.mark.parametrize("argv", [
    ["coprimary", "--orders", "1000", "1000"],
    ["hn-enumerate", "--input", "gmod.json", "--max-size", "2"],
    ["dm", "--input", "fence_poset.json", "--max-size", "2"],
    ["jh", "--input", "const_b2.json", "--max-size", "2"],
], ids=lambda argv: argv[0])
def test_cli_size_guard_message_names_no_parameter(tmp_path, capsys, argv):
    argv = [str(REPO / "fixtures" / a) if a.endswith(".json") else a for a in argv]
    code = main(argv + ["--output", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: ") and "size guard" in err
    assert "max_order" not in err and "max_elements" not in err


@pytest.mark.parametrize("command", ["check", "hn"])
def test_cli_group_guard_of_abelian_group_documents(tmp_path, capsys, command):
    # check and hn take coprimary's --max-size, the order guard of the
    # group an abelian_group document names; other documents ignore it.
    doc = tmp_path / "z16xz16.json"
    doc.write_text(json.dumps({
        "schema_version": 1, "kind": "game", "name": "z16xz16",
        "payoff": {"source": "abelian_group", "cyclic_orders": [16, 16]},
    }))
    out = tmp_path / "r.json"
    argv = [command, "--input", str(doc), "--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "input error: group order is 256, over the size guard 200\n"
    assert main(argv + ["--max-size", "256"]) == 0
    assert json.loads(out.read_text())["name"] == "z16xz16"
    z12 = [command, "--input", str(REPO / "fixtures" / "z12.json"),
           "--output", str(out)]
    assert main(z12 + ["--max-size", "11"]) == 2
    capsys.readouterr()
    gmod = [command, "--input", str(REPO / "fixtures" / "gmod.json"),
            "--output", str(out)]
    assert main(gmod) == 0
    expect = out.read_bytes()
    assert main(gmod + ["--max-size", "1"]) == 0
    assert out.read_bytes() == expect


def test_cli_jh_on_constant_game(tmp_path):
    out = tmp_path / "r.json"
    code = main(["jh", "--input", str(REPO / "fixtures" / "const_b2.json"),
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["filtration"] == ["top", "a", "bot"]
    assert payload["lengths"] == {"equal": True, "lengths": [2], "count": 2}


def test_cli_hn_enumerate(tmp_path):
    out = tmp_path / "r.json"
    code = main(["hn-enumerate", "--input", str(REPO / "fixtures" / "gmod.json"),
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 1
    assert payload["unique_and_canonical"] is True


def test_cli_hn_enumerate_convex_but_not_mu_admissible(tmp_path, capsys):
    # B2 values whose mu_a infimum on (bot, top) is attained by no witness:
    # convex, but outside the hypotheses of the canonical filtration.  The
    # enumeration still reports its two valid filtrations, with no canonical.
    l = fixtures.b2()
    a, b = l.index("a"), l.index("b")
    g = hgame.Game(l, FiniteLatticeValues(fixtures.b2()), {
        (l.bot, a): "a", (l.bot, b): "b", (l.bot, l.top): "bot",
        (a, l.top): "b", (b, l.top): "a",
    })
    assert hgame.is_convex(g)
    doc = tmp_path / "g.json"
    doc.write_text(emit_game(g))
    out = tmp_path / "r.json"
    code = main(["hn-enumerate", "--input", str(doc), "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().err == "hn-enumerate: 2 valid filtration(s)\n"
    payload = json.loads(out.read_text())
    assert payload["count"] == 2
    assert payload["filtrations"] == [["bot", "a", "top"], ["bot", "b", "top"]]
    assert payload["canonical"] is None
    assert payload["unique_and_canonical"] is None


def test_cli_dm_poset(tmp_path):
    out = tmp_path / "r.json"
    code = main(["dm", "--input", str(REPO / "fixtures" / "fence_poset.json"),
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["self_factorization"] is True
    assert payload["count"] >= 4


def test_cli_dm_labels_with_commas(tmp_path):
    # The cuts {a, "b,c"} and {"a,b", c} must stay distinct elements of the
    # completion although their labels spell the same characters.
    covers = [[x, u] for x in ("a", "b,c") for u in ("u1", "u2")]
    covers += [[x, v] for x in ("a,b", "c") for v in ("v1", "v2")]
    doc = {
        "schema_version": 1,
        "kind": "poset",
        "name": "comma_labels",
        "poset": {
            "elements": ["a", "b,c", "a,b", "c", "u1", "u2", "v1", "v2"],
            "covers": covers,
        },
    }
    src = tmp_path / "p.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["dm", "--input", str(src), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 12
    assert ["a", "b,c"] in payload["closed_sets"]
    assert ["a,b", "c"] in payload["closed_sets"]


def test_cli_dm_mixed_labels(tmp_path):
    # Integer and string labels together: the embedding is keyed by each
    # label's string form.
    doc = {
        "schema_version": 1,
        "kind": "poset",
        "poset": {"elements": ["a", 1, "x"], "covers": [["a", 1], [1, "x"]]},
    }
    src = tmp_path / "p.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["dm", "--input", str(src), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["base_elements"] == ["a", 1, "x"]
    assert payload["embedding"] == {"1": ["a", 1], "a": ["a"], "x": ["a", 1, "x"]}


def test_cli_potentials_over_integer_labels(tmp_path, capsys):
    # JSON keys are strings: the potentials of labels 0, 1, 2 are keyed
    # "0", "1", "2", and a key that is really missing is still an input error.
    # The hn and jh summaries print integer labels.
    doc = {
        "schema_version": 1, "kind": "game",
        "lattice": {"elements": [0, 1, 2], "covers": [[0, 1], [1, 2]]},
        "payoff": {"source": "potentials",
                   "rank": {"0": "0", "1": "1", "2": "3"},
                   "degree": {"0": "0", "1": "2", "2": "1"}},
    }
    g = parse_game(json.dumps(doc))
    assert g.payoff == {(0, 1): 2, (0, 2): Fraction(1, 3), (1, 2): Fraction(-1, 2)}
    src = tmp_path / "g.json"
    src.write_text(json.dumps(doc))
    for command in ("check", "hn"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--input", str(src), "--output", str(out)]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == "hn: 0 < 1 < 2 valid=True"
    # jh needs a semistable game: the flat one on the same chain.
    entries = [
        {"lo": lo, "hi": hi, "value": "1"} for lo, hi in ((0, 1), (0, 2), (1, 2))
    ]
    flat = dict(doc, values={"kind": "extended_rational"},
                payoff={"source": "table", "entries": entries})
    src.write_text(json.dumps(flat))
    assert main(["jh", "--input", str(src), "--output", str(tmp_path / "jh.json")]) == 0
    assert capsys.readouterr().err == "jh: 2 > 1 > 0 valid=True\n"
    del doc["payoff"]["rank"]["2"]
    src.write_text(json.dumps(doc))
    code = main(["check", "--input", str(src), "--output", str(tmp_path / "r.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        "input error: rank misses element 2 (field payoff.rank)\n"
    )


def test_cli_deeply_nested_json_is_input_error(tmp_path, capsys):
    src = tmp_path / "deep.json"
    src.write_text("[" * 200000 + "]" * 200000)
    code = main(["check", "--input", str(src), "--output", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: ")


def test_cli_export_dot_hn(tmp_path):
    out = tmp_path / "hasse.dot"
    code = main(["export-dot", "--input", str(REPO / "fixtures" / "gmod.json"),
                 "--hn", "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.count("->") == 4
    assert text.count("fillcolor") == 3  # bot, a, top highlighted


def test_cli_selfcheck(tmp_path):
    out = tmp_path / "r.json"
    code = main(["selfcheck", "--trials", "20", "--seed", "3",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["valid"] is True


def test_cli_selfcheck_scans_the_random_quotients(tmp_path, monkeypatch):
    # Quotient games hold their slope-like verdict from construction, so the
    # selfcheck must scan the same payoffs built by the public constructor:
    # a scan that fails everything fails the random-quotient item.
    monkeypatch.setattr(hgame, "_scan_slope_like", lambda g: False)
    out = tmp_path / "r.json"
    assert main(["selfcheck", "--trials", "3", "--output", str(out)]) == 1
    assert json.loads(out.read_text())["random_quotients_slope_like"] is False


def test_full_relation_form_accepted():
    # Documents may give the full (or partial) relation instead of covers;
    # both are closed transitively on load.
    doc = {
        "schema_version": 1,
        "kind": "game",
        "lattice": {
            "elements": ["bot", "mid", "top"],
            "relation": [["bot", "mid"], ["mid", "top"], ["bot", "top"]],
        },
        "values": {"kind": "extended_rational"},
        "payoff": {
            "source": "table",
            "entries": [
                {"lo": "bot", "hi": "mid", "value": "1/1"},
                {"lo": "mid", "hi": "top", "value": "1/2"},
                {"lo": "bot", "hi": "top", "value": "3/4"},
            ],
        },
    }
    g = parse_game(json.dumps(doc))
    assert g.lattice.n == 3
    assert g.mu(0, 2) == Fraction(3, 4)


def test_covers_and_relation_mutually_exclusive():
    doc = {
        "schema_version": 1,
        "kind": "poset",
        "poset": {
            "elements": ["a", "b"],
            "covers": [["a", "b"]],
            "relation": [["a", "b"]],
        },
    }
    with pytest.raises(SchemaError):
        parse_document(json.dumps(doc))


def test_chain_valued_game_emits_and_reparses():
    # Sweep games carry FiniteChain values; emission normalizes them to the
    # explicit-lattice section and the emitted text is a fixpoint.
    from hngame.sweeps import iter_sweep_games

    g = next(iter_sweep_games(fixtures.b2()))
    text = emit_game(g, name="sweep")
    g2 = parse_game(text)
    assert g2.payoff == g.payoff
    assert g2.lattice == g.lattice
    assert g2 == g
    assert emit_game(g2, name="sweep") == text


def test_chain_values_listed_top_down_give_the_check_golden(tmp_path):
    # Chain values are coded by rank, whatever order their labels are listed in.
    doc = json.loads((REPO / "fixtures" / "n5_chain_values.json").read_text())
    doc["values"]["elements"].reverse()
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["check", "--input", str(path), "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "n5_chain_values_check.json").read_bytes()
