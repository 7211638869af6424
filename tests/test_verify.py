import json

import numpy as np
import pytest

import ofwkit.verify
from ofwkit.harness import ALGO_OFW_LS, ExperimentSpec
from ofwkit.losses import LINEAR, LossSpec
from ofwkit.sets import L2Ball, LpBall, Simplex
from ofwkit.verify import _check_gap_schedule, _check_lmo_optimality, verify_suite


def test_sets_scope_passes():
    report = verify_suite("sets")
    failing = [r.name for r in report.results if not r.passed]
    assert report.passed, f"failing checks: {failing}"
    names = {r.name for r in report.results}
    assert "sets.lmo_optimality.l2_ball" in names
    assert "sets.strong_convexity_definition.lp_ball" in names
    assert "sets.projection_idempotent.simplex" in names


def test_learners_scope_passes():
    # The wall-clock check is left to the verify command: a loaded host can
    # fail it without any fault in the code.
    report = verify_suite("learners")
    results = {r.name: r for r in report.results}
    wall_clock = "learners.per_round_cost_constant"
    assert set(results) == {
        "learners.surrogate_identity.ofw_ls",
        "learners.surrogate_identity.sc_ofw",
        "learners.contraction.ofw_ls",
        "learners.contraction.sc_ofw",
        "learners.comparator_drift.ofw_ls",
        "learners.comparator_drift.sc_ofw",
        "learners.regularized_loss_lipschitz",
        wall_clock,
    }
    failing = [(n, r.detail) for n, r in results.items() if n != wall_clock and not r.passed]
    assert not failing, f"failing checks: {failing}"


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

    def flipped(self, g, norm):
        return -true_lmo(self, g, norm)

    monkeypatch.setattr(L2Ball, "_lmo", flipped)
    report = verify_suite("sets")
    assert not report.passed
    failed = [r for r in report.results if not r.passed]
    assert any(r.name == "sets.lmo_optimality.l2_ball" for r in failed)
    culprit = next(r for r in failed if r.name == "sets.lmo_optimality.l2_ball")
    assert "g=" in culprit.detail  # witness objective included


@pytest.mark.parametrize(
    "beaten_at, infeasible_at, detail",
    [(2, None, "beaten at sample 2"), (None, 4, "infeasible"), (2, 6, "beaten at sample 2"),
     (7, 3, "infeasible"), (5, 5, "infeasible")],
)
def test_lmo_optimality_names_the_first_failing_sample(monkeypatch, beaten_at, infeasible_at, detail):
    # Sample k's lmo output is flipped (beaten) or pushed outside the ball
    # (infeasible); the first failing sample is named, and a sample that
    # fails both is reported as infeasible.
    true_lmo = L2Ball._lmo
    calls = []

    def corrupted(self, g, norm):
        k = len(calls)
        calls.append(k)
        out = true_lmo(self, g, norm)
        if k == beaten_at:
            out = -out
        if k == infeasible_at:
            out = 1.5 * out
        return out

    monkeypatch.setattr(L2Ball, "_lmo", corrupted)
    passed, found = _check_lmo_optimality(L2Ball(4, 1.0), n=50)
    assert not passed
    assert detail in found
    grads = np.random.default_rng(91).standard_normal((50, 4))
    named = min(k for k in (beaten_at, infeasible_at) if k is not None)
    assert f"g={grads[named].tolist()}" in found


def test_corrupted_projection_is_detected(monkeypatch):
    true_project = L2Ball.project

    def inflated(self, x):
        return 1.05 * true_project(self, x)

    monkeypatch.setattr(L2Ball, "project", inflated)
    report = verify_suite("sets")
    assert not report.passed
    failed = {r.name for r in report.results if not r.passed}
    assert any("projection" in name and "l2_ball" in name for name in failed)


def test_overstated_diameter_is_detected(monkeypatch):
    # Sampled distances stay below a diameter 5% too large; the witness
    # pair lmo(-e_1), lmo(e_1) does not reach it.
    true_diameter = L2Ball.diameter.fget
    monkeypatch.setattr(L2Ball, "diameter", property(lambda self: 1.05 * true_diameter(self)))
    results = {r.name: r for r in verify_suite("sets").results}
    result = results["sets.diameter.l2_ball"]
    assert not result.passed
    assert "does not attain" in result.detail


def test_corrupted_line_search_is_detected(monkeypatch):
    # a line search that always takes the full step parks the iterate on
    # oracle vertices; the per-step contraction check must catch it
    import ofwkit.learners as learners

    monkeypatch.setattr(learners, "line_search_quadratic", lambda a, b: 1.0)
    report = verify_suite("learners")
    assert not report.passed
    failed = {r.name for r in report.results if not r.passed}
    assert any("contraction" in name for name in failed)


@pytest.mark.parametrize(
    "at,gap,detail",
    [(3, -0.5, "negative gap -0.5 at t=4"), (0, 0.25, "first-round gap 0.25 should be 0")],
    ids=["negative", "first_round"],
)
def test_gap_schedule_failure_details_print_plain_floats(monkeypatch, at, gap, detail):
    # Under numpy 2 the repr of a numpy scalar reads np.float64(...).
    true_run = ofwkit.verify.run_experiment

    def corrupted_run(spec):
        trace = true_run(spec)
        trace.gap[at] = gap
        return trace

    monkeypatch.setattr(ofwkit.verify, "run_experiment", corrupted_run)
    spec = ExperimentSpec(
        domain=L2Ball(4, 1.0),
        loss=LossSpec(kind=LINEAR, dim=4, seed=1, G=1.0),
        algo=ALGO_OFW_LS,
        horizon=8,
        gap_check=True,
    )
    passed, found = _check_gap_schedule(spec)
    assert not passed
    assert "np.float64" not in found
    assert found == detail


def test_a_raising_check_fails_only_itself(monkeypatch):
    # The Lp oracle raises: the two Lp checks that call lmo fail, naming
    # the exception, and every other set check still runs and passes.
    def broken(self, g, norm):
        raise RuntimeError("lmo is broken")

    monkeypatch.setattr(LpBall, "_lmo", broken)
    report = verify_suite("sets")
    assert len(report.results) == 18
    failed = {r.name: r.detail for r in report.results if not r.passed}
    assert set(failed) == {"sets.lmo_optimality.lp_ball", "sets.diameter.lp_ball"}
    assert all(d == "RuntimeError('lmo is broken')" for d in failed.values())
    assert {r.scope for r in report.results} == {"sets"}


def test_a_spec_that_fails_to_build_fails_only_its_checks(monkeypatch):
    def broken(self, *args, **kwargs):
        raise ValueError("no simplex today")

    monkeypatch.setattr(Simplex, "__init__", broken)
    report = verify_suite("bounds")
    assert len(report.results) == 6
    failed = {r.name: r.detail for r in report.results if not r.passed}
    assert set(failed) == {"bounds.gap_schedule.sc_ofw_simplex", "bounds.regret.sc_ofw_simplex"}
    assert all(d == "ValueError('no simplex today')" for d in failed.values())
