"""Kaplansky pin: the exact verdict of every shipped Kaplansky check.

One entry per (shipped pair, family member of degree at most 3 that is not
constant), in ``kaplansky_suite`` order, holding the JSON text of
``kaplansky_check(seq, limit, rfunc).to_dict()``: status, start index,
multiplier and offset.  The acceptance suite only checks that these
verdicts are all ``yes``; this pins the witnesses too.  The expected text
lives in ``kaplansky_pin.json`` next to this file.  To re-record after an
intended output change, run ``PYTHONPATH=src python tests/test_kaplansky_pin.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from aclab.pcseq import R_FAMILY, kaplansky_check, shipped_pairs

PIN = os.path.join(os.path.dirname(__file__), "kaplansky_pin.json")

MAX_DEGREE = 3


def cases() -> list[tuple[str, str, object, object, object]]:
    return [(name, rfunc.label(), seq, limit, rfunc)
            for name, seq, limit in shipped_pairs()
            for rfunc in R_FAMILY
            if rfunc.degree() <= MAX_DEGREE and not rfunc.is_constant()]


def _record() -> list[dict]:
    return [{"pair": name, "rfunc": label,
             "verdict": json.dumps(kaplansky_check(seq, limit, rfunc).to_dict())}
            for name, label, seq, limit, rfunc in cases()]


@pytest.fixture(scope="module")
def pinned() -> list[dict]:
    with open(PIN, encoding="utf-8") as fh:
        return json.load(fh)


def test_pin_covers_every_case(pinned):
    assert len(pinned) == 270
    assert [(e["pair"], e["rfunc"]) for e in pinned] == [c[:2] for c in cases()]


def test_verdicts_are_byte_identical(pinned):
    for entry, (name, label, seq, limit, rfunc) in zip(pinned, cases()):
        got = json.dumps(kaplansky_check(seq, limit, rfunc).to_dict())
        assert got == entry["verdict"], (name, label)


if __name__ == "__main__":
    with open(PIN, "w", encoding="utf-8") as fh:
        json.dump(_record(), fh, indent=1)
        fh.write("\n")
