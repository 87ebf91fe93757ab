"""The fast sections of ``tables_digest.py``, checked against its pins.

Each digest covers the tables, predicate verdicts and (for some sections)
payloads of a fixed set of games, so a change to any output they take fails
here.  A deliberate change of output updates the pins in
``tables_digest.py`` with it.  The ``sweep`` and ``structure`` sections
take far longer and are run by hand: ``python tests/tables_digest.py``,
which exits 1 when a section differs from its pin.
"""

import hashlib

import pytest

import tables_digest

SLOW = {"structure", "sweep"}
FAST = [name for name in tables_digest.PINS if name not in SLOW]


@pytest.mark.parametrize("name", FAST)
def test_digest_section_is_pinned(name):
    assert tables_digest.section_digest(name) == tables_digest.PINS[name]


def test_pins_cover_every_section_but_the_slow_two():
    assert set(tables_digest.PINS) == set(tables_digest.SECTIONS)
    assert set(tables_digest.SECTIONS) - set(FAST) == SLOW


def test_pin_all_is_the_digest_of_the_section_pins():
    total = hashlib.sha256()
    for name in tables_digest.SECTIONS:
        total.update(tables_digest.PINS[name][1].encode())
    assert total.hexdigest() == tables_digest.PIN_ALL


def test_script_names_each_line_off_its_pin(monkeypatch, capsys):
    sections = {name: tables_digest.SECTIONS[name] for name in ("lattices", "explicit")}
    monkeypatch.setattr(tables_digest, "SECTIONS", sections)
    assert tables_digest.main() == 1
    assert capsys.readouterr().err == "differ from their pins: all\n"
    count, digest = tables_digest.PINS["explicit"]
    monkeypatch.setitem(tables_digest.PINS, "explicit", (count, "0" * 64))
    total = hashlib.sha256()
    for name in sections:
        total.update(tables_digest.section_digest(name)[1].encode())
    monkeypatch.setattr(tables_digest, "PIN_ALL", total.hexdigest())
    assert tables_digest.main() == 1
    assert capsys.readouterr().err == "differ from their pins: explicit\n"
    monkeypatch.setitem(tables_digest.PINS, "explicit", (count, digest))
    assert tables_digest.main() == 0
    assert capsys.readouterr().err == ""
