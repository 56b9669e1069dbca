"""Fault pin: the full reports of four suites run over deliberately broken
kernels.

Every other test runs the suites on working code, where they report no
failures, so a failure condition that could never fire would pass them
all.  Here each suite runs with one kernel monkeypatched to a wrong
answer, and the whole ``Report.to_dict()`` is pinned: which checks fire,
on which cases, with which data, and where the 50-failure cap stops the
run.

* ``couple-psi``: ``acouple.psi`` returns ``psi(g) - e_0`` whenever ``g``
  has at least 5 support entries; ``verify_couple_axioms(300, 3)``.
* ``couple-gap-psi``: the same fault, counting the support of an extension
  element's base; ``verify_couple_axioms(300, 3, "loggap")``.
* ``identities-chi``: ``acouple.chi`` returns ``chi(g) + e_0`` whenever
  ``g`` has at least 4 support entries; ``identity_suite(300, 3)``.
* ``field-valuation``: ``logts.Series.valuation`` adds ``e_3`` to the
  valuation of every 2-term series; ``check_axioms(80, 5)``.

The expected reports live in ``fault_pin.json`` next to this file.  To
re-record after an intended output change, run
``PYTHONPATH=src python tests/test_fault_pin.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from aclab import acouple, logts
from aclab.ogroup import ExtElem, unit

PIN = os.path.join(os.path.dirname(__file__), "fault_pin.json")


def _support_size(g) -> int:
    return len((g.base if isinstance(g, ExtElem) else g).key)


def _faulty_psi(mp: pytest.MonkeyPatch) -> None:
    real = acouple.psi

    def psi(g):
        return real(g) - unit(0) if _support_size(g) >= 5 else real(g)

    mp.setattr(acouple, "psi", psi)


def _couple_psi(mp: pytest.MonkeyPatch) -> dict:
    _faulty_psi(mp)
    return acouple.verify_couple_axioms(300, 3).to_dict()


def _couple_gap_psi(mp: pytest.MonkeyPatch) -> dict:
    _faulty_psi(mp)
    return acouple.verify_couple_axioms(300, 3, "loggap").to_dict()


def _identities_chi(mp: pytest.MonkeyPatch) -> dict:
    real = acouple.chi

    def chi(g):
        return real(g) + unit(0) if len(g.key) >= 4 else real(g)

    mp.setattr(acouple, "chi", chi)
    return acouple.identity_suite(300, 3).to_dict()


def _field_valuation(mp: pytest.MonkeyPatch) -> dict:
    real = logts.Series.valuation

    def valuation(self):
        return real(self) + unit(3) if len(self) == 2 else real(self)

    mp.setattr(logts.Series, "valuation", valuation)
    return logts.check_axioms(80, 5).to_dict()


FAULTS = {
    "couple-gap-psi": _couple_gap_psi,
    "couple-psi": _couple_psi,
    "field-valuation": _field_valuation,
    "identities-chi": _identities_chi,
}


def _run(name: str) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        return FAULTS[name](mp)


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(PIN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_faulty_report_is_byte_identical(pinned, name):
    assert json.dumps(_run(name), sort_keys=True) == json.dumps(pinned[name], sort_keys=True)


def test_pinned_reports_stop_at_the_failure_cap(pinned):
    for report in pinned.values():
        assert len(report["failures"]) > 50
        assert report["failures"][-1]["case"] < report["cases"] - 1


if __name__ == "__main__":
    with open(PIN, "w", encoding="utf-8") as fh:
        json.dump({name: _run(name) for name in sorted(FAULTS)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
