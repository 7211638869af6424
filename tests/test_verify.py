import json

import numpy as np
import pytest

from ofwkit.sets import L2Ball
from ofwkit.verify import verify_suite


def test_sets_scope_passes():
    report = verify_suite("sets")
    failing = [r.name for r in report.results if not r.passed]
    assert report.passed, f"failing checks: {failing}"
    names = {r.name for r in report.results}
    assert "sets.lmo_optimality.l2_ball" in names
    assert "sets.strong_convexity_definition.lp_ball" in names
    assert "sets.projection_idempotent.simplex" in names


def test_bounds_scope_passes():
    report = verify_suite("bounds")
    failing = [(r.name, r.detail) for r in report.results if not r.passed]
    assert report.passed, f"failing checks: {failing}"
    names = {r.name for r in report.results}
    assert "bounds.gap_schedule.ofw_ls_l2" in names
    assert "bounds.regret.sc_ofw_simplex" in names


def test_scope_validation():
    with pytest.raises(ValueError):
        verify_suite("everything")


def test_report_json_shape():
    report = verify_suite("bounds")
    payload = json.loads(report.to_json())
    assert payload["passed"] is True
    assert {c["name"] for c in payload["checks"]} == {r.name for r in report.results}
    for c in payload["checks"]:
        assert set(c) == {"name", "scope", "passed", "detail"}


def test_corrupted_lmo_is_detected_and_named(monkeypatch):
    # flip the oracle's sign: argmax instead of argmin. The optimality
    # check must fail with a counterexample rather than pass silently.
    true_lmo = L2Ball._lmo

    def flipped(self, g):
        return -true_lmo(self, g)

    monkeypatch.setattr(L2Ball, "_lmo", flipped)
    report = verify_suite("sets")
    assert not report.passed
    failed = [r for r in report.results if not r.passed]
    assert any(r.name == "sets.lmo_optimality.l2_ball" for r in failed)
    culprit = next(r for r in failed if r.name == "sets.lmo_optimality.l2_ball")
    assert "g=" in culprit.detail  # witness objective included


def test_corrupted_projection_is_detected(monkeypatch):
    true_project = L2Ball.project

    def inflated(self, x):
        return 1.05 * true_project(self, x)

    monkeypatch.setattr(L2Ball, "project", inflated)
    report = verify_suite("sets")
    assert not report.passed
    failed = {r.name for r in report.results if not r.passed}
    assert any("projection" in name and "l2_ball" in name for name in failed)


def test_corrupted_line_search_is_detected(monkeypatch):
    # a line search that always takes the full step parks the iterate on
    # oracle vertices; the per-step contraction check must catch it
    import ofwkit.learners as learners

    monkeypatch.setattr(learners, "line_search_quadratic", lambda a, b: 1.0)
    report = verify_suite("learners")
    assert not report.passed
    failed = {r.name for r in report.results if not r.passed}
    assert any("contraction" in name for name in failed)
