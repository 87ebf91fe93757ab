"""The fast sections of ``tables_digest.py``, pinned.

Each digest covers the tables, predicate verdicts and (for some sections)
payloads of a fixed set of games, so a change to any output they take fails
here.  A deliberate change of output updates the pinned digest with it.  The
``sweep`` and ``structure`` sections take far longer and are run by hand:
``python tests/tables_digest.py``.
"""

import pytest

import tables_digest

PINNED = {
    "groups": (110, "d4c472c175c8a35bbf08e917ddbe68f004b6855d33fb75f2319b0982c353070f"),
    "potentials": (12, "f11bbe7e01a65a515e2e49d1a83bae51cab91a93a9248ab2d1dd1a6251e770f8"),
    "explicit": (360, "75ed646633795701f147baf5f63b0404141af8198868df09d84a1e99452c70b5"),
    "rationals": (891, "60d6915ec8a9482b8367a58efdeebe9c022ca96880d839a35afe593f882b902d"),
    "slope_like": (141, "4fe3840ba73237ac9c16b82cfdbab9b1d1d6d19adc8a43db790e719cdafe4213"),
    "lattices": (77, "5732474f6943267f9557d932a08ef319e14af4614970e6383c0ced0c876e8253"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_digest_section_is_pinned(name):
    assert tables_digest.section_digest(name) == PINNED[name]


def test_pins_cover_every_section_but_the_slow_two():
    assert set(tables_digest.SECTIONS) - set(PINNED) == {"structure", "sweep"}
