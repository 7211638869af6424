import json
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import ofwkit.harness
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


def test_report_json_gives_each_checks_duration():
    report = verify_suite("bounds")
    durations = json.loads(report.to_json())["durations_s"]
    assert set(durations) == {r.name for r in report.results}
    assert all(isinstance(s, float) and s >= 0.0 for s in durations.values())


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


def _force_modulus(monkeypatch):
    monkeypatch.setattr(L2Ball, "strong_convexity", property(lambda self: 50.0))


def _force_projection(monkeypatch):
    true_project = L2Ball.project
    monkeypatch.setattr(L2Ball, "project", lambda self, x: 0.999 * true_project(self, x))


def _force_diameter(monkeypatch):
    monkeypatch.setattr(L2Ball, "diameter", property(lambda self: 1.0))


def _force_certificate(monkeypatch, tag, **ceilings):
    # Only the spec of ``tag`` (algo or set class) gets the given ceilings.
    true_certificate = ofwkit.harness.certificate

    def tightened(spec):
        cert = true_certificate(spec)
        if tag not in (spec.algo, type(spec.domain).__name__):
            return cert
        return replace(cert, **{k: make(cert) for k, make in ceilings.items()})

    monkeypatch.setattr(ofwkit.harness, "certificate", tightened)


def _tiny_gap_ceiling(cert):
    return lambda t: None if cert.gap(t) is None else 1e-12


def _tiny_regret_ceiling(cert):
    return lambda ts: np.full(ts.shape, 1e-9)


def _tiny_regret_ceiling_before_the_last_round(cert):
    # 1024 is the regret check's horizon.
    return lambda ts: np.where(ts < 1024.0, 1e-9, 1e9)


# scope, the check forced to fail, the forcing, and its detail's start.
_FORCED = {
    "modulus": (
        "sets",
        "sets.strong_convexity_definition.l2_ball",
        _force_modulus,
        r"\d+ of 10000 certificates infeasible; first at sample \d+: norm=",
    ),
    "projection": (
        "sets",
        "sets.projection_idempotent.l2_ball",
        _force_projection,
        r"not idempotent: w=\[",
    ),
    "diameter": (
        "sets",
        "sets.diameter.l2_ball",
        _force_diameter,
        r"sampled distance 1\.\d+ exceeds diameter 1\.0: a=\[",
    ),
    "gap_ceiling": (
        "bounds",
        "bounds.gap_schedule.sc_ofw_simplex",
        partial(_force_certificate, tag="Simplex", gap=_tiny_gap_ceiling),
        r"gap \d\.\d+(e-\d+)? exceeds bound 1e-12 at t=\d+$",
    ),
    "final_regret_ceiling": (
        "bounds",
        "bounds.regret.ofw_ls_l2",
        partial(_force_certificate, tag="ofw_ls", regret=_tiny_regret_ceiling),
        r"final regret \d+\.\d+ exceeds bound 1e-09$",
    ),
    "per_round_regret_ceiling": (
        "bounds",
        "bounds.regret.ofw_ls_l2",
        partial(
            _force_certificate, tag="ofw_ls", regret=_tiny_regret_ceiling_before_the_last_round
        ),
        r"per-round regret \d\.\d+(e-\d+)? exceeds bound at t=\d+$",
    ),
}


@pytest.mark.parametrize("case", sorted(_FORCED))
def test_a_forced_failure_fails_only_its_check_with_its_detail(monkeypatch, case):
    # Each check's failure branch, forced by a monkeypatch, marks that check
    # failed with its counterexample; every other check of the scope still
    # runs and passes.
    scope, name, force, detail = _FORCED[case]
    force(monkeypatch)
    report = verify_suite(scope)
    assert len(report.results) == {"sets": 18, "bounds": 6}[scope]
    failed = {r.name: r.detail for r in report.results if not r.passed}
    assert list(failed) == [name]
    assert re.match(detail, failed[name]), failed[name]
