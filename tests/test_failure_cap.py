"""Failure paths beyond the fault pin: suites run over a deliberately
broken kernel must log failures in the shared format and stop at the
50-failure cap, right after the case that takes the log past it."""

from __future__ import annotations

from aclab import acouple, extend, pcseq
from aclab.acouple import FAILURE_CAP
from aclab.ogroup import unit


def _stops_at_the_cap(report) -> None:
    assert len(report.failures) == FAILURE_CAP + 1
    assert report.failures[-1]["case"] == FAILURE_CAP < report.cases - 1


def test_extension_structure_stops_at_the_cap(monkeypatch):
    # No value is a member, so every sampled value fails its witness.
    monkeypatch.setattr(extend, "member", lambda sc, gamma: False)
    report = extend.verify_downward_no_max(extend.example(extend.SMALL_INT), 80, 23)
    _stops_at_the_cap(report)
    assert {f["check"] for f in report.failures} == {"witness"}


def test_lambda_corpus_stops_at_the_cap(monkeypatch):
    monkeypatch.setattr(pcseq, "lambda_free_witness", lambda s, limit: None)
    report = pcseq.lambda_suite(prefix_len=6, corpus_size=80, seed=31)
    _stops_at_the_cap(report)
    assert report.failures[-1]["witness"] == "None"


def test_ac2_failure_logs_k_as_a_string(monkeypatch):
    # psi goes wrong once a coefficient leaves the sampling pool's range,
    # which scaling by k does.
    real = acouple.psi
    monkeypatch.setattr(acouple, "psi", lambda g: real(g) - unit(0)
                        if any(abs(c) > 16 for _, c in g.items) else real(g))
    report = acouple.verify_couple_axioms(100, 3)
    ac2 = [f for f in report.failures if f["axiom"] == "AC2"]
    assert ac2[0] == {"axiom": "AC2", "case": 1,
                      "a": "[0, 0, -16/11, -13/3, 0, 0, 1/4, 1, -9/11]", "k": "-5"}
    assert all(isinstance(f["k"], str) for f in ac2)
