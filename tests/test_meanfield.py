import numpy as np
import pytest

from ryddecay.lattice import LatticeSpec
from ryddecay.meanfield import (
    AS_PRINTED,
    ORACLE_VERIFIED,
    MeanFieldParams,
    MeanFieldState,
    _box_violation,
    find_fixed_points,
    integrate_mf,
    mf_jacobian,
    mf_oracle_check,
    mf_rhs,
    refine_critical_point,
    scan_phase_diagram,
)
from ryddecay.operators import COLLECTIVE, SINGLE, ModelParams

BISTABLE = MeanFieldParams(Delta=-10.0, Omega=2.5, gamma=1.0, d=1, V=10.0)

# frozen from a grid-seeded Newton search cross-checked against the cubic
# resolvent; the two routes agree to all printed digits
BISTABLE_BRANCHES = (0.1215483287, 0.2721279276, 0.4677098823)


def test_params_validation():
    with pytest.raises(ValueError):
        MeanFieldParams(0.0, 1.0, gamma=0.0)
    with pytest.raises(ValueError):
        MeanFieldParams(0.0, 1.0, d=0)
    with pytest.raises(ValueError):
        mf_rhs(MeanFieldState(0.1, 0.0, 0.0), BISTABLE, sign_convention="other")


def test_rhs_pure_decay():
    # no drive, no detuning: n decays at gamma, transverse spin at gamma/2
    p = MeanFieldParams(Delta=0.0, Omega=0.0, gamma=2.0, d=1, V=0.0)
    out = mf_rhs(MeanFieldState(0.5, 0.3, -0.2), p, model=SINGLE)
    assert np.allclose(out, [-1.0, -0.3, 0.2])


def test_rhs_collective_rate_enhancement():
    # u = 4d multiplies the transverse damping through (u n + 1)
    p = MeanFieldParams(Delta=0.0, Omega=0.0, gamma=1.0, d=2, V=0.0)
    st = MeanFieldState(0.25, 0.4, 0.0)
    single = mf_rhs(st, p, model=SINGLE)
    coll = mf_rhs(st, p, model=COLLECTIVE)
    assert single[1] == pytest.approx(-0.5 * 0.4)
    assert coll[1] == pytest.approx(-0.5 * (8 * 0.25 + 1) * 0.4)
    assert single[0] == coll[0]


def test_rhs_sign_conventions_differ_only_in_delta_terms():
    p = MeanFieldParams(Delta=-3.0, Omega=1.5, gamma=1.0, d=1, V=10.0)
    st = MeanFieldState(0.3, 0.25, -0.35)
    a = mf_rhs(st, p, sign_convention=ORACLE_VERIFIED)
    b = mf_rhs(st, p, sign_convention=AS_PRINTED)
    assert a[0] == b[0]  # n equation carries no Delta
    assert a[2] - b[2] == pytest.approx(2 * p.Delta * st.s_x)
    zero_delta = MeanFieldParams(Delta=0.0, Omega=1.5, gamma=1.0, d=1, V=10.0)
    assert np.allclose(
        mf_rhs(st, zero_delta, sign_convention=ORACLE_VERIFIED),
        mf_rhs(st, zero_delta, sign_convention=AS_PRINTED),
    )


def test_rhs_broadcasts():
    states = np.random.default_rng(0).random((5, 4, 3))
    out = mf_rhs(states, BISTABLE)
    assert out.shape == (5, 4, 3)
    one = mf_rhs(states[2, 1], BISTABLE)
    assert np.allclose(out[2, 1], one)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for model in (SINGLE, COLLECTIVE):
        for _ in range(4):
            st = rng.random(3) * np.array([1.0, 2.0, 2.0]) - np.array([0.0, 1.0, 1.0])
            jac = mf_jacobian(st, BISTABLE, model=model)
            h = 1e-6
            fd = np.zeros((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[:, j] = (
                    mf_rhs(st + e, BISTABLE, model=model)
                    - mf_rhs(st - e, BISTABLE, model=model)
                ) / (2 * h)
            assert np.allclose(jac, fd, atol=1e-7)


def test_fixed_points_bistable_reference():
    fps = find_fixed_points(BISTABLE)
    ns = [fp.state.n for fp in fps]
    assert len(fps) == 3
    assert ns == pytest.approx(BISTABLE_BRANCHES, abs=1e-9)
    assert [fp.stable for fp in fps] == [True, False, True]
    assert all(fp.physical for fp in fps)


def test_fixed_points_residuals_vanish():
    for fp in find_fixed_points(BISTABLE):
        assert np.max(np.abs(mf_rhs(fp.state, BISTABLE))) < 1e-10


def test_cubic_agrees_with_grid_search():
    # the seed-grid Newton oracle against a one-cell scan, on random cells and
    # on the edge cases: a linear stationarity condition (V = 0, single model),
    # an undriven cell, the as_printed convention, and a linear condition
    # with no root (as_printed at Delta^2 = gamma^2 / 4 + 2 Omega^2)
    rng = np.random.default_rng(12)
    cases = [
        (MeanFieldParams(
            Delta=rng.uniform(-20, 5),
            Omega=rng.uniform(0.3, 6),
            gamma=1.0,
            d=int(rng.integers(1, 4)),
            V=rng.uniform(0, 15),
        ), ORACLE_VERIFIED, COLLECTIVE)
        for _ in range(10)
    ]
    cases += [
        (MeanFieldParams(Delta=-10.0, Omega=2.5, gamma=1.0, d=1, V=0.0), ORACLE_VERIFIED, SINGLE),
        (MeanFieldParams(Delta=-10.0, Omega=0.0, gamma=1.0, d=1, V=10.0), ORACLE_VERIFIED, COLLECTIVE),
        (MeanFieldParams(Delta=-3.0, Omega=1.5, gamma=1.0, d=2, V=5.0), AS_PRINTED, COLLECTIVE),
        (MeanFieldParams(Delta=-1.5, Omega=1.0, gamma=1.0, d=1, V=0.0), AS_PRINTED, SINGLE),
    ]
    for p, convention, model in cases:
        oracle = [fp for fp in find_fixed_points(p, convention, model) if fp.physical]
        cell = scan_phase_diagram([p.Delta], [p.Omega], p, convention, model)
        physical = cell.physical[0, 0]
        grid = sorted(fp.state.n for fp in oracle)
        cubic = sorted(cell.states[0, 0, physical, 0])
        assert len(grid) == len(cubic)
        assert grid == pytest.approx(cubic, abs=1e-8)
        assert [fp.stable for fp in oracle] == list(cell.stable[0, 0, physical])


def test_cubic_detuning_free_drive_free():
    p = MeanFieldParams(Delta=0.0, Omega=0.0, gamma=1.0, d=1, V=10.0)
    cell = scan_phase_diagram([0.0], [0.0], p)
    fps = cell.states[0, 0][~np.isnan(cell.states[0, 0, :, 0])]
    assert len(fps) == 1
    assert np.allclose(fps[0], [0.0, 0.0, 0.0])
    assert cell.stable[0, 0, 0]


@pytest.mark.parametrize("deltas, omegas, params", [
    ([np.nan, -10.0], [2.5], BISTABLE),
    ([-10.0], [2.5, np.inf], BISTABLE),
    ([-10.0], [2.5], MeanFieldParams(0.0, 0.0, gamma=1.0, d=1, V=np.nan)),
    ([-10.0], [2.5], MeanFieldParams(0.0, 0.0, gamma=np.inf, d=1, V=10.0)),
])
def test_scan_rejects_non_finite_input(deltas, omegas, params):
    with pytest.raises(ValueError, match="must be finite"):
        scan_phase_diagram(deltas, omegas, params)


@pytest.mark.parametrize("deltas, omegas, V, message", [
    ([-30.0], [1e150], 10.0, "candidate overflows"),
    ([-1e150], [2.5], 10.0, "cannot resolve a fixed point's stability"),
    ([-20000.0], [3250.0], 1e4, "residual below 1e-12"),
])
def test_scan_rejects_inputs_beyond_float64(deltas, omegas, V, message):
    # each of these cells used to come back with no stable fixed point
    params = MeanFieldParams(0.0, 0.0, gamma=1.0, d=1, V=V)
    with pytest.raises(ValueError, match=f"Delta, Omega or V too large: .*{message}"):
        scan_phase_diagram(deltas, omegas, params)


def test_residual_overflow_rejected():
    with pytest.raises(ValueError, match="residual overflows"):
        find_fixed_points(MeanFieldParams(Delta=0.0, Omega=1e308, gamma=1.0, d=1, V=0.0))


def test_unphysical_root_may_miss_residual():
    # p1 nearly cancels, so the one root is n = 363; it misses NEWTON_RESIDUAL
    # by rounding and is dropped without an error, as it lies outside the box
    params = MeanFieldParams(0.0, 0.0, gamma=1.0, d=1, V=0.0)
    cell = scan_phase_diagram([-14.0], [9.9], params, AS_PRINTED, SINGLE)
    assert cell.stable_count[0, 0] == 0


def test_vacuum_stability_depends_on_convention():
    # undriven vacuum: the verified form gives eigenvalues -gamma/2 +- i Delta
    # (stable); flipping the Delta sign on only one transverse equation makes
    # the pair real, -gamma/2 +- |Delta|, unstable whenever |Delta| > gamma/2
    p = MeanFieldParams(Delta=-5.0, Omega=0.0, gamma=1.0, d=1, V=0.0)
    origin = MeanFieldState(0.0, 0.0, 0.0)
    ev_ok = np.linalg.eigvals(mf_jacobian(origin, p, sign_convention=ORACLE_VERIFIED))
    ev_bad = np.linalg.eigvals(mf_jacobian(origin, p, sign_convention=AS_PRINTED))
    assert np.max(ev_ok.real) < -0.4
    assert np.max(ev_bad.real) > 4.0


def test_single_model_branches_differ():
    # interaction-shift bistability survives without the collective rate
    # enhancement, but the extra (u n + 1) damping compresses the hysteresis:
    # the collective branches sit strictly inside the single-model ones
    single = sorted(
        fp.state.n for fp in find_fixed_points(BISTABLE, model=SINGLE) if fp.physical
    )
    coll = sorted(
        fp.state.n for fp in find_fixed_points(BISTABLE, model=COLLECTIVE) if fp.physical
    )
    assert len(single) == 3 and len(coll) == 3
    assert single[0] < coll[0]
    assert single[2] > coll[2]
    assert abs(single[0] - coll[0]) > 0.01


def test_oracle_check_verified_convention():
    rng = np.random.default_rng(7)
    lat = LatticeSpec(1, (4,), "periodic")
    for _ in range(5):
        n = rng.uniform(0.05, 0.95)
        r = np.sqrt(max(0.0, n * (1 - n)))  # keep the Bloch vector length valid
        phi = rng.uniform(0, 2 * np.pi)
        scale = rng.uniform(0.1, 1.9)
        st = MeanFieldState(n, scale * r * np.cos(phi), scale * r * np.sin(phi))
        mp = ModelParams(V=rng.uniform(0, 8), gamma=1.0,
                         Omega=rng.uniform(0, 3), Delta=rng.uniform(-8, 2))
        for model in (SINGLE, COLLECTIVE):
            dev = mf_oracle_check(lat, mp, st, ORACLE_VERIFIED, model)
            assert np.max(np.abs(dev)) < 1e-9


def test_oracle_check_flags_printed_convention():
    lat = LatticeSpec(1, (4,), "periodic")
    st = MeanFieldState(0.3, 0.25, -0.35)
    mp = ModelParams(V=10.0, gamma=1.0, Omega=1.5, Delta=-2.0)
    dev = mf_oracle_check(lat, mp, st, AS_PRINTED, COLLECTIVE)
    assert np.max(np.abs(dev)) == pytest.approx(2 * abs(mp.Delta * st.s_x), rel=1e-9)


def test_oracle_check_rejects_open_chain():
    lat = LatticeSpec(1, (4,), "open")
    with pytest.raises(ValueError, match="translation-invariance"):
        mf_oracle_check(
            lat, ModelParams(V=1.0), MeanFieldState(0.2, 0.1, 0.0)
        )


def test_integrate_relaxes_to_nearest_branch():
    _, lower = integrate_mf(MeanFieldState(0.0, 0.0, 0.0), BISTABLE, 60.0)
    _, upper = integrate_mf(MeanFieldState(1.0, 0.0, 0.0), BISTABLE, 60.0)
    assert lower[-1][0] == pytest.approx(BISTABLE_BRANCHES[0], abs=1e-6)
    assert upper[-1][0] == pytest.approx(BISTABLE_BRANCHES[2], abs=1e-6)


def test_integrate_leaves_unstable_branch():
    mid = MeanFieldState(BISTABLE_BRANCHES[1] + 1e-4, 0.0, 0.0)
    _, states = integrate_mf(mid, BISTABLE, 80.0)
    final = states[-1][0]
    assert min(abs(final - BISTABLE_BRANCHES[0]), abs(final - BISTABLE_BRANCHES[2])) < 1e-4


def test_integrate_divergence_guard():
    # the sign-flipped convention blows up from a generic state at large
    # detuning once damping is weak; the integrator must refuse to continue
    p = MeanFieldParams(Delta=5.0, Omega=0.0, gamma=0.01, d=1, V=0.0)
    # (s_x, s_y) = (0.1, 0) overlaps the growing (1, -1) transverse mode;
    # (0.1, 0.1) would sit on the decaying one and never blow up
    with pytest.raises(RuntimeError, match="diverged"):
        integrate_mf(
            MeanFieldState(0.2, 0.1, 0.0), p, 200.0, sign_convention=AS_PRINTED
        )


def test_scan_counts_and_shape():
    deltas = np.linspace(-14.0, -6.0, 5)
    omegas = np.linspace(1.5, 3.5, 3)
    counts = scan_phase_diagram(deltas, omegas, BISTABLE).stable_count
    assert counts.size == 15
    assert counts.shape == (5, 3)
    assert np.all(counts >= 1)
    # the reference point sits inside the bistable lobe
    i = next(i for i, d in enumerate(deltas) if d == pytest.approx(-10.0))
    j = next(j for j, o in enumerate(omegas) if o == pytest.approx(2.5))
    assert counts[i, j] == 2


def test_scan_single_model_window_is_different():
    deltas = np.linspace(-20.0, -4.0, 17)
    omegas = np.array([2.5])
    single = scan_phase_diagram(deltas, omegas, BISTABLE, model=SINGLE).stable_count
    coll = scan_phase_diagram(deltas, omegas, BISTABLE, model=COLLECTIVE).stable_count
    # both windows cover the reference detuning, but not the same cells
    assert single[np.where(deltas == -10.0)[0][0], 0] == 2
    assert coll[np.where(deltas == -10.0)[0][0], 0] == 2
    assert np.any(single != coll)


def test_critical_point_frozen_value():
    crit_delta, crit_omega = refine_critical_point(BISTABLE)
    assert crit_omega == pytest.approx(3.46039, abs=5e-3)
    assert crit_delta == pytest.approx(-11.8236, abs=2e-2)
    # beyond the cusp the window has closed
    past = MeanFieldParams(Delta=crit_delta, Omega=crit_omega + 0.2, gamma=1.0, d=1, V=10.0)
    assert sum(1 for fp in find_fixed_points(past) if fp.stable) == 1


# triple root of the stationarity cubic from an independent 2-D fsolve of
# p2^2 = 3 p1 p3 and p1^2 = 3 p0 p2
CUSP = (-11.825487044686737, 3.4615157922026922)


@pytest.mark.parametrize("omega_range", [(2.5, 10.0), (0.0, 10.0)])
def test_critical_point_is_upper_triple_root(omega_range):
    # (0, 10] also holds the lobe's lower cusp near (-1.0685, 0.1233)
    crit = refine_critical_point(BISTABLE, omega_range=omega_range)
    assert crit == pytest.approx(CUSP, abs=1e-9)


def test_critical_point_single_model():
    # reference from an Omega continuation with Delta-window bisection to 1e-3
    crit_delta, crit_omega = refine_critical_point(BISTABLE, model=SINGLE)
    assert crit_delta == pytest.approx(-11.1819, abs=2e-3)
    assert crit_omega == pytest.approx(4.5508, abs=2e-3)


@pytest.mark.parametrize("params, kwargs", [
    (BISTABLE, {"sign_convention": AS_PRINTED}),
    (BISTABLE, {"omega_range": (2.5, 3.4)}),
    (MeanFieldParams(Delta=-10.0, Omega=2.5, gamma=1.0, d=1, V=0.0), {}),
])
def test_critical_point_absent_raises(params, kwargs):
    with pytest.raises(ValueError, match="no mean-field cusp"):
        refine_critical_point(params, **kwargs)


def test_bounds_violation_helper():
    assert _box_violation(MeanFieldState(0.5, 0.3, -0.3).as_array()) == 0.0
    assert _box_violation(MeanFieldState(1.2, 0.0, 0.0).as_array()) > 0.1
