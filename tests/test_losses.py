import numpy as np
import pytest
from _helpers import feasible_point, loss_at, seeded_rounds, zero_rounds

from ofwkit import losses, sets
from ofwkit.losses import (
    LINEAR,
    QUADRATIC,
    LossSpec,
    as_rounds,
    certify_constants,
    make_round,
    mix64,
    round_chunks,
    round_seed,
)
from ofwkit.sets import L1Ball, L2Ball, LpBall, Simplex


def test_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(kind="cubic", dim=3, seed=0)
    with pytest.raises(ValueError):
        LossSpec(kind=LINEAR, dim=3, seed=0, G=0.0)
    with pytest.raises(ValueError):
        LossSpec(kind=LINEAR, dim=3, seed=0, G=-1.0)
    with pytest.raises(ValueError):
        LossSpec(kind=QUADRATIC, dim=3, seed=0, lam=0.0)
    with pytest.raises(ValueError):
        LossSpec(kind=QUADRATIC, dim=0, seed=0, lam=1.0)


def test_mix64_is_deterministic_and_spreads():
    assert mix64(0) == mix64(0)
    outs = {mix64(i) for i in range(1000)}
    assert len(outs) == 1000
    assert all(0 <= v < (1 << 64) for v in outs)


def test_round_seed_separates_rounds_and_streams():
    assert round_seed(1, 1) == round_seed(1, 1)
    assert round_seed(1, 1) != round_seed(1, 2)
    assert round_seed(1, 1) != round_seed(2, 1)
    seen = {round_seed(s, t) for s in range(20) for t in range(1, 51)}
    assert len(seen) == 20 * 50


def test_linear_round_gradient_norm_is_exactly_G():
    spec = LossSpec(kind=LINEAR, dim=12, seed=3, G=2.5)
    for t in (1, 2, 17, 400):
        g = make_round(spec, t, L2Ball(12, 1.0))
        assert g.shape == (12,)
        assert float(np.linalg.norm(g)) == pytest.approx(2.5, rel=1e-12)


def test_linear_round_is_deterministic_and_t_dependent():
    spec = LossSpec(kind=LINEAR, dim=6, seed=9, G=1.0)
    dom = L2Ball(6, 1.0)
    a = make_round(spec, 5, dom)
    b = make_round(spec, 5, dom)
    np.testing.assert_array_equal(a, b)
    c = make_round(spec, 6, dom)
    assert not np.array_equal(a, c)


def test_linear_round_value_and_gradient_agree():
    spec = LossSpec(kind=LINEAR, dim=6, seed=9, G=1.0)
    g = make_round(spec, 1, L2Ball(6, 1.0))
    x = np.linspace(-0.3, 0.3, 6)
    value, grad = loss_at(LINEAR, 0.0, g, x)
    assert value == pytest.approx(float(g @ x), rel=1e-12)
    assert loss_at(LINEAR, 0.0, g, np.zeros(6))[0] == 0.0
    np.testing.assert_array_equal(grad, g)


def test_linear_round_kind_checks():
    lin = LossSpec(kind=LINEAR, dim=3, seed=0, G=1.0)
    with pytest.raises(ValueError):
        make_round(lin, 0, L2Ball(3, 1.0))
    # round_seed keeps t * stride to 64 bits: round 2**64 + 1 would replay round 1
    for t in (2**64, 2**64 + 1, 2**70):
        with pytest.raises(ValueError, match="round index"):
            make_round(lin, t, L2Ball(3, 1.0))
    assert make_round(lin, 2**64 - 1, L2Ball(3, 1.0)).shape == (3,)
    with pytest.raises(ValueError):
        make_round(lin, 1, L2Ball(4, 1.0))


def test_quadratic_round_minimizer_is_feasible_target():
    dom = L2Ball(8, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=8, seed=4, lam=2.0)
    target = make_round(spec, 3, dom)
    assert dom.contains(target, 1e-12)
    value, grad = loss_at(QUADRATIC, spec.lam, target, target)
    assert value == 0.0
    np.testing.assert_array_equal(grad, np.zeros(8))


def test_quadratic_round_example_value():
    # lam=1 and distance 0.5 from the target gives loss 0.125
    dom = L2Ball(2, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=2, seed=4, lam=1.0)
    target = make_round(spec, 1, dom)
    x = target + np.array([0.5, 0.0])
    assert loss_at(QUADRATIC, spec.lam, target, x)[0] == pytest.approx(0.125, rel=1e-12)


def test_quadratic_round_gradient_matches_finite_differences():
    dom = Simplex(5)
    spec = LossSpec(kind=QUADRATIC, dim=5, seed=7, lam=1.7)
    target = make_round(spec, 2, dom)

    def value(x):
        return loss_at(QUADRATIC, spec.lam, target, x)[0]

    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.standard_normal(5)
        g = loss_at(QUADRATIC, spec.lam, target, x)[1]
        h = 1e-6
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            numeric = (value(x + e) - value(x - e)) / (2 * h)
            assert numeric == pytest.approx(g[j], rel=1e-5, abs=1e-7)


def test_quadratic_round_strong_convexity_is_exact():
    # quadratic losses meet the strong convexity lower bound with equality
    dom = L2Ball(6, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=6, seed=10, lam=0.8)
    target = make_round(spec, 1, dom)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        lhs = loss_at(QUADRATIC, spec.lam, target, y)[0]
        value, grad = loss_at(QUADRATIC, spec.lam, target, x)
        rhs = value + float(grad @ (y - x)) + 0.5 * spec.lam * float((y - x) @ (y - x))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_quadratic_round_dim_mismatch():
    spec = LossSpec(kind=QUADRATIC, dim=4, seed=0, lam=1.0)
    with pytest.raises(ValueError):
        make_round(spec, 1, L2Ball(5, 1.0))


def test_linear_losses_are_G_lipschitz_sampled():
    dom = L2Ball(10, 1.0)
    spec = LossSpec(kind=LINEAR, dim=10, seed=5, G=1.0)
    rng = np.random.default_rng(6)
    for t in range(1, 201):
        g = make_round(spec, t, dom)
        x = feasible_point(dom, int(rng.integers(1 << 30)))
        y = feasible_point(dom, int(rng.integers(1 << 30)))
        gap = abs(loss_at(LINEAR, 0.0, g, x)[0] - loss_at(LINEAR, 0.0, g, y)[0])
        assert gap <= 1.0 * float(np.linalg.norm(x - y)) + 1e-9


def test_quadratic_losses_are_certified_lipschitz_over_set():
    dom = L2Ball(10, 1.0)
    spec = LossSpec(kind=QUADRATIC, dim=10, seed=5, lam=1.5)
    G, lam = certify_constants(spec, dom)
    assert G == spec.lam * dom.diameter
    assert lam == spec.lam
    rng = np.random.default_rng(7)
    for t in range(1, 201):
        target = make_round(spec, t, dom)
        x = feasible_point(dom, int(rng.integers(1 << 30)))
        y = feasible_point(dom, int(rng.integers(1 << 30)))
        (fx, gx), (fy, _) = (loss_at(QUADRATIC, spec.lam, target, z) for z in (x, y))
        assert abs(fx - fy) <= G * float(np.linalg.norm(x - y)) + 1e-9
        assert float(np.linalg.norm(gx)) <= G + 1e-12


def test_certify_constants_examples():
    lin = LossSpec(kind=LINEAR, dim=10, seed=0, G=1.0)
    assert certify_constants(lin, L2Ball(10, 1.0)) == (1.0, 0.0)
    quad = LossSpec(kind=QUADRATIC, dim=10, seed=0, lam=1.0)
    assert certify_constants(quad, L2Ball(10, 1.0)) == (2.0, 1.0)
    quad_s = LossSpec(kind=QUADRATIC, dim=10, seed=0, lam=0.5)
    G, lam = certify_constants(quad_s, Simplex(10))
    assert G == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-12)
    assert lam == 0.5


def test_certify_constants_dim_mismatch():
    lin = LossSpec(kind=LINEAR, dim=3, seed=0, G=1.0)
    with pytest.raises(ValueError):
        certify_constants(lin, L2Ball(4, 1.0))


def test_zero_round_is_identically_zero():
    rounds = zero_rounds(3, 4)
    x = np.array([0.1, -0.2, 0.3, 0.0])
    for row in rounds.data:
        value, grad = loss_at(rounds.kind, rounds.lam, row, x)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros(4))


def test_seeding_kernel_matches_pcg64():
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    seeds = edges + [mix64(i) for i in range(10_000)] + list(range(2, 200))
    words = losses._pcg64_states(np.array(seeds, dtype=np.uint64))
    assert (words.shape, words.dtype) == ((len(seeds), 4), np.uint64)
    for s, (state_high, state_low, inc_high, inc_low) in zip(seeds, words.tolist()):
        state, inc = (state_high << 64) | state_low, (inc_high << 64) | inc_low
        assert np.random.PCG64(s).state["state"] == {"state": state, "inc": inc}, s


def test_round_seed_vectorises_over_uint64_rounds():
    ts = [1, 2, 1023, 1024, 1025, 2**62, 2**63 - 1]
    for seed in (0, -3, 2**63, 2**64 - 1):
        got = round_seed(seed, np.array(ts, dtype=np.uint64))
        assert got.tolist() == [round_seed(seed, t) for t in ts]


@pytest.mark.parametrize(
    "dom", [L2Ball(5, 1.0), LpBall(5, 2.0, 1.5), L1Ball(5, 0.5), Simplex(5)], ids=repr
)
@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_make_rounds_equals_make_round(dom, kind):
    # T = 1025 crosses the kernel's 1024-round chunk boundary.
    T = 1025
    for seed in (0, 1, -3, 2**63, 12345678901234):
        spec = LossSpec(kind=kind, dim=5, seed=seed, G=1.5, lam=0.5)
        shapes, t = [], 0
        for rows in round_chunks(spec, T, dom):
            shapes.append(rows.shape)
            for row in rows:
                t += 1
                assert row.tobytes() == make_round(spec, t, dom).tobytes()
        assert shapes == [(1024, 5), (1, 5)]


def test_make_rounds_redraws_short_directions_as_make_round_does(monkeypatch):
    # At a minimum norm of 2, most dim-3 draws are redrawn, some twice or
    # more: linear directions and the directions of quadratic targets on a
    # ball, by the one threshold.
    cases = [
        (LINEAR, L2Ball(3, 1.0), (sets, "_MIN_DIRECTION_NORM")),
        (QUADRATIC, L2Ball(3, 1.0), (sets, "_MIN_DIRECTION_NORM")),
        (QUADRATIC, LpBall(3, 2.0, 1.3), (sets, "_MIN_DIRECTION_NORM")),
        (QUADRATIC, L1Ball(3, 0.5), (sets, "_MIN_DIRECTION_NORM")),
    ]
    for kind, dom, threshold in cases:
        spec = LossSpec(kind=kind, dim=3, seed=9, G=1.5, lam=0.5)
        unpatched = seeded_rounds(spec, 130, dom)
        with monkeypatch.context() as patch:
            patch.setattr(*threshold, 2.0)
            rounds = seeded_rounds(spec, 130, dom)
            expected = np.array([make_round(spec, t, dom) for t in range(1, 131)])
        assert rounds.data.tobytes() == expected.tobytes(), (kind, dom)
        assert rounds.data.tobytes() != unpatched.data.tobytes(), (kind, dom)


@pytest.mark.parametrize("kind", [LINEAR, QUADRATIC])
def test_round_chunks_yields_one_reused_buffer(kind):
    dom = Simplex(4)
    spec = LossSpec(kind=kind, dim=4, seed=2, G=1.0, lam=0.5)
    (rows,) = round_chunks(spec, 100, dom)
    assert (rows.shape, rows.dtype) == ((100, 4), np.float64)
    chunks = list(round_chunks(spec, 2100, dom))
    assert [c.shape for c in chunks] == [(1024, 4), (1024, 4), (52, 4)]
    assert all(np.shares_memory(chunks[0], c) for c in chunks[1:])


def test_make_rounds_validation():
    # round_chunks is a generator: a bad request raises on the first chunk.
    dom = L2Ball(3, 1.0)
    lin = LossSpec(kind=LINEAR, dim=3, seed=0, G=1.0)
    chunks = round_chunks(lin, 0, dom)
    with pytest.raises(ValueError):
        next(chunks)
    quad = LossSpec(kind=QUADRATIC, dim=4, seed=0, lam=1.0)
    with pytest.raises(ValueError):
        next(round_chunks(quad, 5, dom))


def test_make_rounds_refuses_a_kernel_that_disagrees_with_numpy(monkeypatch):
    monkeypatch.setattr(losses, "_PCG64_MULT", losses._PCG64_MULT + 2)
    spec = LossSpec(kind=LINEAR, dim=3, seed=0, G=1.0)
    with pytest.raises(RuntimeError, match=f"NumPy {np.__version__}.*round_chunks' kernel"):
        next(round_chunks(spec, 3, L2Ball(3, 1.0)))


def test_make_rounds_refuses_a_state_layout_it_does_not_know(monkeypatch):
    # A view that reads back zeros matches neither word order of the probe,
    # which runs before any round's state is computed.
    seeded = []
    monkeypatch.setattr(losses, "_state_view", lambda bitgen: np.zeros(4, dtype=np.uint64))
    monkeypatch.setattr(losses, "_pcg64_states", seeded.append)
    spec = LossSpec(kind=LINEAR, dim=3, seed=0, G=1.0)
    with pytest.raises(RuntimeError, match=f"NumPy {np.__version__}.*round_chunks' kernel"):
        next(round_chunks(spec, 3, L2Ball(3, 1.0)))
    assert seeded == []


@pytest.mark.parametrize(
    "dom", [L2Ball(5, 1.0), LpBall(5, 2.0, 1.5), L1Ball(5, 0.5), Simplex(5)], ids=repr
)
def test_make_rounds_draws_never_use_the_state_fields_it_does_not_write(dom, monkeypatch):
    # The raw write sets state and inc only; a draw that buffered half a
    # 64-bit output (has_uint32, uinteger) would carry it into the next round.
    bitgens = []

    def recording_view(bitgen):
        bitgens.append(bitgen)
        return view(bitgen)

    view = losses._state_view
    monkeypatch.setattr(losses, "_state_view", recording_view)
    for kind in (LINEAR, QUADRATIC):
        for _ in round_chunks(LossSpec(kind=kind, dim=5, seed=4, G=1.5, lam=0.5), 1025, dom):
            pass
    assert len(bitgens) == 2
    for bitgen in bitgens:
        assert (bitgen.state["has_uint32"], bitgen.state["uinteger"]) == (0, 0)


@pytest.mark.parametrize(
    "kind,lam,data,message",
    [
        ("cubic", 0.0, np.zeros((2, 3)), "unknown loss kind 'cubic'"),
        (LINEAR, 1.0, np.zeros((2, 3)), "linear rounds need lam 0.0, got 1.0"),
        (QUADRATIC, 0.0, np.zeros((2, 3)), "quadratic rounds need a finite lam > 0, got 0.0"),
        (QUADRATIC, -1.0, np.zeros((2, 3)), "finite lam > 0, got -1.0"),
        (QUADRATIC, np.inf, np.zeros((2, 3)), "finite lam > 0, got inf"),
        (QUADRATIC, np.nan, np.zeros((2, 3)), "finite lam > 0, got nan"),
        (LINEAR, 0.0, np.zeros(3), r"got shape \(3,\)"),
        (LINEAR, 0.0, np.zeros((0, 3)), r"got shape \(0, 3\)"),
        (LINEAR, 0.0, np.zeros((2, 0)), r"got shape \(2, 0\)"),
        (LINEAR, 0.0, np.zeros((2, 3, 1)), r"got shape \(2, 3, 1\)"),
    ],
)
def test_as_rounds_refuses_bad_input_and_names_it(kind, lam, data, message):
    with pytest.raises(ValueError, match=message):
        as_rounds(kind, lam, data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_rounds_names_the_first_non_finite_round(bad):
    data = np.ones((8, 3))
    data[5, 2] = bad
    data[7, 0] = bad
    with pytest.raises(ValueError, match="^round 6 has non-finite data$"):
        as_rounds(QUADRATIC, 0.5, data)


def test_as_rounds_returns_a_read_only_copy():
    data = np.arange(12.0).reshape(4, 3)
    rounds = as_rounds(QUADRATIC, 0.5, data)
    assert (rounds.kind, rounds.lam, len(rounds)) == (QUADRATIC, 0.5, 4)
    assert not np.shares_memory(rounds.data, data)
    data[0, 0] = 99.0
    assert rounds.data[0, 0] == 0.0
    assert not rounds.data.flags.writeable
    with pytest.raises(ValueError):
        rounds.data[0, 0] = 1.0
    # Nested lists are rows too.
    assert as_rounds(LINEAR, 0.0, [[1.0, 2.0]]).data.tolist() == [[1.0, 2.0]]
