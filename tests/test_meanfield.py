from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ryddecay.lattice import LatticeSpec
from ryddecay.meanfield import (
    AS_PRINTED,
    BOUNDS_SLACK,
    EIG_ROUNDING,
    ORACLE_VERIFIED,
    ROOTS_NEAR_REPEATED,
    STABLE_EIG_TOL,
    MeanFieldParams,
    MeanFieldState,
    _box_violation,
    _cubic_roots,
    _real_roots,
    _spectrum,
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


@pytest.mark.parametrize("model", [SINGLE, COLLECTIVE])
@pytest.mark.parametrize("convention", [ORACLE_VERIFIED, AS_PRINTED])
def test_jacobian_batch_is_bit_exact(model, convention):
    # every entry against its formula, each zero written as +0.0, on a batch
    # of (cells, candidates) with signed zeros in the states and the drive
    rng = np.random.default_rng(5)
    zeros = np.array([0.0, -0.0])
    states = np.where(rng.random((6, 3, 3)) < 0.3, rng.choice(zeros, (6, 3, 3)),
                      rng.normal(size=(6, 3, 3)))
    delta, omega = (np.where(rng.random((6, 1)) < 0.5, rng.choice(zeros, (6, 1)),
                             rng.normal(size=(6, 1))) for _ in range(2))
    params = MeanFieldParams(delta, omega, gamma=0.7, d=2, V=10.0)
    n, s_x, s_y = np.moveaxis(states, -1, 0)
    u = 8.0 if model == COLLECTIVE else 0.0
    sigma = 1.0 if convention == ORACLE_VERIFIED else -1.0
    g, w, z = 0.7, 40.0, np.zeros_like(n)
    a = 0.5 * g * (u * n + 1.0)
    expected = np.stack([np.stack(row, axis=-1) for row in (
        [-g + z, z, omega + z],
        [-0.5 * g * u * s_x - w * s_y, -a, -delta - w * n],
        [-0.5 * g * u * s_y + w * s_x - 4.0 * omega + z, sigma * delta + w * n, -a],
    )], axis=-2)
    jac = mf_jacobian(states, params, convention, model)
    assert jac.shape == (6, 3, 3, 3)
    assert np.array_equal(jac.view(np.int64), expected.view(np.int64))


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


@st.composite
def cubics(draw):
    """(p3, p2, p1, p0): a root and a pair 10^-k apart, real or complex, or
    an O(1) quadratic under a leading coefficient 10^-e shrinking toward 0."""
    unit = st.floats(-2.0, 2.0)
    if draw(st.booleans()):
        x, centre = draw(unit), draw(unit)
        half = 0.5 * 10.0 ** -draw(st.integers(0, 8))
        # (t - centre)^2 - half^2 for a real pair, + half^2 for a complex one
        c0 = centre * centre + (half * half if draw(st.booleans()) else -half * half)
        return 1.0, -2.0 * centre - x, c0 + 2.0 * centre * x, -c0 * x
    p2, p1, p0 = draw(unit), draw(unit), draw(unit)
    return 10.0 ** -draw(st.integers(0, 300)), p2, p1, p0


@settings(max_examples=300)
@given(cubics())
def test_cubic_closed_form_matches_np_roots(p):
    roots, real = _real_roots(*p)
    expected = np.roots(p)
    scale = 1.0 + np.max(np.abs(expected))
    if not _cubic_roots(*np.divide(p[1:], p[0]))[1] > ROOTS_NEAR_REPEATED:
        return  # near-repeated: _real_roots takes np.roots' own route
    expected_real = np.abs(expected.imag) < 1e-9 * scale
    assert np.count_nonzero(real) == np.count_nonzero(expected_real)
    # a tenth of the tolerance on |imag| that decides whether a root is real
    assert np.all(np.abs(np.sort(roots[real]) - np.sort(expected.real[expected_real]))
                  <= 1e-10 * scale)


@settings(max_examples=300)
@given(state=st.tuples(st.floats(-0.5, 1.5), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       delta=st.floats(-30.0, 10.0), omega=st.floats(0.0, 10.0), gamma=st.floats(0.1, 2.0),
       V=st.floats(0.0, 20.0), d=st.integers(1, 3), model=st.sampled_from([SINGLE, COLLECTIVE]),
       convention=st.sampled_from([ORACLE_VERIFIED, AS_PRINTED]))
def test_jacobian_spectrum_matches_eigvals(state, delta, omega, gamma, V, d, model, convention):
    jac = mf_jacobian(state, MeanFieldParams(delta, omega, gamma, d, V), convention, model)
    eig, near = _spectrum(jac)
    if near:
        return  # _solve takes np.linalg.eigvals there
    error = np.sort(eig.real) - np.sort(np.linalg.eigvals(jac).real)
    assert np.max(np.abs(error)) <= EIG_ROUNDING * np.linalg.norm(jac) / 10


@pytest.mark.parametrize("model", [SINGLE, COLLECTIVE])
@pytest.mark.parametrize("convention", [ORACLE_VERIFIED, AS_PRINTED])
def test_scan_stability_matches_eigvals(model, convention):
    # the benchmark's meanfield-chain grid at seed 1, coarsened to 41 x 41;
    # every kept root is classified again from np.linalg.eigvals of its
    # Jacobian in unscaled units, except inside the rounding band
    params = MeanFieldParams(0.0, 0.0, gamma=1.0, d=1, V=10.0)
    deltas, omegas = np.linspace(-30.0, 10.0, 41), np.linspace(0.073, 10.0, 41)
    pd = scan_phase_diagram(deltas, omegas, params, convention, model)
    kept = ~np.isnan(pd.states[..., 0])
    cells = replace(params, Delta=deltas[:, None, None], Omega=omegas[None, :, None])
    jac = mf_jacobian(pd.states, cells, convention, model)[kept]
    eig = np.linalg.eigvals(jac).real
    threshold = STABLE_EIG_TOL * params.gamma
    resolved = np.all(np.abs(eig - threshold)
                      > EIG_ROUNDING * np.linalg.norm(jac, axis=(-2, -1))[:, None], axis=-1)
    assert np.array_equal(pd.stable[kept][resolved], np.all(eig < threshold, axis=-1)[resolved])
    assert not np.any(pd.physical[kept][~resolved])
    assert np.array_equal(pd.physical, kept & (_box_violation(pd.states) <= BOUNDS_SLACK))


@pytest.mark.parametrize("deltas, omegas, params", [
    ([np.nan, -10.0], [2.5], BISTABLE),
    ([-10.0], [2.5, np.inf], BISTABLE),
    ([-10.0], [2.5], MeanFieldParams(0.0, 0.0, gamma=1.0, d=1, V=np.nan)),
    ([-10.0], [2.5], MeanFieldParams(0.0, 0.0, gamma=np.inf, d=1, V=10.0)),
])
def test_scan_rejects_non_finite_input(deltas, omegas, params):
    with pytest.raises(ValueError, match="must be finite"):
        scan_phase_diagram(deltas, omegas, params)


@pytest.mark.parametrize("params", [
    MeanFieldParams(-30.0, 1e150, gamma=1.0, d=1, V=10.0),
    MeanFieldParams(-1e150, 2.5, gamma=1.0, d=1, V=10.0),
    MeanFieldParams(0.0, 1e308, gamma=1.0, d=1, V=0.0),
    MeanFieldParams(1e200, 1e200, gamma=1.0, d=1, V=1e200),
    # only the collective rate 4 d gamma is large: the cubic would drop a degree
    MeanFieldParams(-6.0, 2.5, gamma=1.0, d=10**180, V=0.0),
])
def test_rates_beyond_the_span_limit_rejected_on_both_routes(params):
    # the first four once failed each with its own message (a candidate
    # overflow, an unresolved stability, a residual overflow, no converged
    # Newton seed); their largest rate is far above SPAN_LIMIT gamma
    with pytest.raises(ValueError, match="Delta, Omega or V too large: the flow's largest rate"):
        scan_phase_diagram([params.Delta], [params.Omega], params)
    with pytest.raises(ValueError, match="Delta, Omega or V too large: the flow's largest rate"):
        find_fixed_points(params)


def test_large_interaction_cell_keeps_its_root():
    # an absolute residual of 1e-12 lost this cell's one in-box root to
    # rounding; relative to the largest rate, 2e4, it converges
    params = MeanFieldParams(-20000.0, 3250.0, gamma=1.0, d=1, V=1e4)
    cell = scan_phase_diagram([params.Delta], [params.Omega], params)
    assert cell.stable_count[0, 0] == 1
    stable = cell.states[0, 0][cell.stable[0, 0] & cell.physical[0, 0]]
    assert stable[:, 0] == pytest.approx([0.0294943], abs=1e-7)
    oracle = [fp.state.n for fp in find_fixed_points(params) if fp.physical]
    assert oracle == pytest.approx(stable[:, 0], abs=1e-9)


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e3, 1e6, 1e10])
def test_oracle_is_scale_free(scale):
    params = MeanFieldParams(-6.0 * scale, 2.5 * scale, gamma=scale, d=1, V=10.0 * scale)
    physical = [fp for fp in find_fixed_points(params) if fp.physical]
    assert [fp.state.n for fp in physical] == pytest.approx([0.413643], abs=1e-6)
    assert all(fp.stable for fp in physical)


# tenths, so that every value and its power-of-two multiples are exact
tenths = st.integers(-300, 300).map(lambda i: i / 10)


@settings(max_examples=50)
@given(k=st.integers(-40, 40), model=st.sampled_from([SINGLE, COLLECTIVE]),
       convention=st.sampled_from([ORACLE_VERIFIED, AS_PRINTED]),
       delta=tenths, omega=tenths.map(abs), gamma=st.integers(1, 40).map(lambda i: i / 10),
       V=tenths.map(abs), d=st.integers(1, 3))
def test_scan_is_bit_identical_under_power_of_two_scaling(k, model, convention, delta,
                                                          omega, gamma, V, d):
    # the flow is homogeneous of degree 1 in (Delta, Omega, gamma, V), and a
    # power of two scales every input and s exactly
    def outcome(factor):
        params = MeanFieldParams(0.0, 0.0, gamma * factor, d, V * factor)
        try:
            pd = scan_phase_diagram((delta + np.linspace(-4.0, 4.0, 5)) * factor,
                                    (omega + np.linspace(0.0, 2.0, 3)) * factor,
                                    params, convention, model)
        except ValueError as exc:
            return str(exc)
        return pd.states.tobytes(), pd.stable.tobytes(), pd.physical.tobytes()

    assert outcome(2.0 ** k) == outcome(1.0)


def test_stability_guard_fires_next_to_the_threshold_at_unit_scale():
    # as printed, the undriven vacuum has the eigenvalue |Delta| - gamma/2,
    # here -1e-9 gamma = STABLE_EIG_TOL gamma: rounding decides its sign
    params = MeanFieldParams(0.0, 0.0, gamma=1.0, d=1, V=0.0)
    with pytest.raises(ValueError, match="float64 cannot resolve a fixed point's stability"):
        scan_phase_diagram([0.5 - 1e-9], [0.0], params, AS_PRINTED, SINGLE)


def test_stability_of_unphysical_roots_is_not_checked():
    # the root (n, s_x) = (-0.126, 117) has an eigenvalue of 5.9e-5 gamma,
    # inside its rounding band 1e-4 gamma; no output uses its stability
    params = MeanFieldParams(0.0, 0.0, gamma=1.0, d=2, V=1e7)
    cell = scan_phase_diagram([-5e6], [2.25e6], params, AS_PRINTED, COLLECTIVE)
    assert cell.stable_count[0, 0] == 1
    roots = cell.states[0, 0][~np.isnan(cell.states[0, 0, :, 0])]
    assert len(roots) == 2 and roots[0, 0] == pytest.approx(-0.1262, abs=1e-4)
    assert not cell.physical[0, 0, 0]


def test_unphysical_root_may_miss_residual():
    # p1 nearly cancels, so the one root is n = 363, far outside the box;
    # relative to the largest rate its residual converges, and it is kept
    # as an unphysical root
    params = MeanFieldParams(0.0, 0.0, gamma=1.0, d=1, V=0.0)
    cell = scan_phase_diagram([-14.0], [9.9], params, AS_PRINTED, SINGLE)
    assert cell.stable_count[0, 0] == 0
    assert cell.states[0, 0, 0, 0] == pytest.approx(363.0)
    assert not cell.physical[0, 0, 0]


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
    # the sextic's leading coefficients underflow: its roots come from
    # _real_roots like the cubic's, without a RuntimeWarning
    (MeanFieldParams(Delta=0.0, Omega=0.0, gamma=7.0, d=40, V=1e-160), {}),
])
def test_critical_point_absent_raises(params, kwargs):
    with pytest.raises(ValueError, match="no mean-field cusp"):
        refine_critical_point(params, **kwargs)


def test_bounds_violation_helper():
    assert _box_violation(MeanFieldState(0.5, 0.3, -0.3).as_array()) == 0.0
    assert _box_violation(MeanFieldState(1.2, 0.0, 0.0).as_array()) > 0.1
