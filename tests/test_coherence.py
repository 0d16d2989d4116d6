import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from ryddecay.coherence import (
    CoherenceState,
    evolve,
    exact_mode_series,
    initial_coherence,
    mode_series,
    short_time_coefficients,
    verify_against_master_equation,
)
from ryddecay.lattice import LatticeSpec, neighbor_table
from ryddecay.master_equation import PropagationStats, integrate_exact, product_density
from ryddecay.operators import (
    COLLECTIVE,
    SINGLE,
    ModelParams,
    atomic_hamiltonian,
    jump_operators,
    neighborhood_projector,
    site_operator,
)


def single_sum_oracle(d, omega_a, V, gamma, t):
    """Generating-function closed form for the summed single-model coherence:
    X(t) = 2^(-2d-1) e^(-(i omega_a + gamma/2) t) (1 + mu + (1-mu) e^(-(gamma+iV)t))^(2d)
    with mu = gamma/(gamma+iV). mode_series expands the same generating
    function mode by mode; this is its binomial sum at z = 1 in closed form.
    The independent oracle is the matrix exponential of the cascade
    (test_modes_match_matrix_exponential)."""
    lam = gamma + 1j * V
    mu = gamma / lam
    base = 1 + mu + (1 - mu) * np.exp(-lam * t)
    return 2.0 ** (-2 * d - 1) * np.exp(-(1j * omega_a + gamma / 2) * t) * base ** (2 * d)


def test_initial_profiles():
    assert np.allclose(initial_coherence(1).xi_values, [1 / 8, 1 / 4, 1 / 8])
    assert np.allclose(
        initial_coherence(2).xi_values, np.array([1, 4, 6, 4, 1]) / 32.0
    )
    for d in range(1, 5):
        state = initial_coherence(d)
        assert state.total == pytest.approx(0.5)
        assert np.all(state.xi_values.real > 0)
        assert np.all(state.xi_values.imag == 0)


def test_initial_profile_exact_binomials():
    for d in (1, 2, 3):
        vals = initial_coherence(d).xi_values.real
        for xi in range(2 * d + 1):
            assert vals[xi] == math.comb(2 * d, xi) * 2.0 ** (-2 * d - 1)


def test_state_validation():
    with pytest.raises(ValueError):
        CoherenceState(np.array([0.5, 0.5]), d=1)
    with pytest.raises(ValueError):
        CoherenceState(np.array([0.1, 0.2, 0.1]), d=1, gamma=-0.5)
    with pytest.raises(ValueError):
        initial_coherence(0)


def test_collective_mode_zero():
    state = initial_coherence(1, gamma=1.0)
    out = evolve(state, 1.0)
    assert abs(out.xi_values[0]) == pytest.approx(0.125 * np.exp(-0.5), rel=1e-12)


def test_collective_sum_v_zero():
    state = initial_coherence(1, V=0.0, gamma=1.0)
    out = evolve(state, 1.0)
    expect = 0.125 * np.exp(-0.5) + 0.25 * np.exp(-1.5) + 0.125 * np.exp(-2.5)
    assert out.abs_total == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.141859, abs=5e-7)


def test_evolve_at_zero_is_identity():
    for model in (SINGLE, COLLECTIVE):
        state = initial_coherence(2, V=7.0, gamma=0.8, model=model)
        out = evolve(state, 0.0)
        assert np.allclose(out.xi_values, state.xi_values, atol=1e-14)


def test_single_v_zero_resums_to_half_exponential():
    for d in (1, 2, 3, 20, 40, 511):
        state = initial_coherence(d, V=0.0, gamma=1.0, model=SINGLE)
        for t in (0.3, 1.0, 2.5):
            assert evolve(state, t).abs_total == pytest.approx(
                0.5 * np.exp(-t / 2), rel=1e-10
            )
    assert 0.5 * np.exp(-0.5) == pytest.approx(0.303265, abs=5e-7)


@pytest.mark.parametrize("d", [20, 40])
@pytest.mark.parametrize("model", [SINGLE, COLLECTIVE])
def test_modes_match_matrix_exponential(model, d):
    # the mode ODEs as one (2d+1) bidiagonal generator, solved by expm
    omega_a, V, gamma = 0.3, 10.0, 1.0
    state = initial_coherence(d, omega_a, V, gamma, model=model)
    xi = np.arange(2 * d + 1)
    gen = np.diag(-(1j * omega_a + gamma / 2 + xi * (gamma + 1j * V)))
    if model == SINGLE:
        gen += np.diag(gamma * xi[1:].astype(float), 1)
    ts = np.linspace(0.0, 2.0, 21)
    want = np.stack([expm(gen * t) @ state.xi_values for t in ts], axis=1)
    assert np.max(np.abs(mode_series(state, ts) - want)) < 1e-14


def test_single_top_mode_follows_collective_law():
    d = 2
    state = initial_coherence(d, V=3.0, gamma=1.0, model=SINGLE)
    out = evolve(state, 0.7)
    top = state.xi_values[-1] * np.exp(-(0.5 + 2 * d * (1.0 + 3.0j)) * 0.7)
    assert out.xi_values[-1] == pytest.approx(top, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "omega_a,V,gamma", [(0.0, 10.0, 1.0), (2.0, 3.0, 0.7), (0.0, 0.5, 2.0)]
)
def test_single_sum_against_generating_function(d, omega_a, V, gamma):
    state = initial_coherence(d, omega_a, V, gamma, model=SINGLE)
    for t in (0.2, 1.0):
        got = evolve(state, t).total
        want = single_sum_oracle(d, omega_a, V, gamma, t)
        assert abs(got - want) < 1e-12


def test_collective_modes_never_mix():
    rng = np.random.default_rng(2)
    t = 0.9
    factors = None
    for _ in range(2):
        prof = rng.random(3) + 1j * rng.random(3)
        state = CoherenceState(prof, d=1, V=5.0, gamma=1.0, model=COLLECTIVE)
        ratio = evolve(state, t).xi_values / prof
        if factors is None:
            factors = ratio
        else:
            assert np.allclose(ratio, factors, rtol=1e-12)


def test_gamma_zero_pure_phase():
    for model in (SINGLE, COLLECTIVE):
        state = initial_coherence(1, omega_a=2.0, V=8.0, gamma=0.0, model=model)
        out = evolve(state, 1.3)
        assert np.allclose(np.abs(out.xi_values), np.abs(state.xi_values), atol=1e-12)


def test_mode_odes_satisfied():
    # central finite difference of each mode matches the stated cascade RHS
    h = 1e-5
    t = 0.4
    for model in (SINGLE, COLLECTIVE):
        state = initial_coherence(2, omega_a=1.0, V=4.0, gamma=1.3, model=model)
        fplus = evolve(state, t + h).xi_values
        fminus = evolve(state, t - h).xi_values
        deriv = (fplus - fminus) / (2 * h)
        x = evolve(state, t).xi_values
        lam = 1j * 1.0 + 1.3 / 2
        rhs = np.zeros_like(x)
        for xi in range(5):
            rhs[xi] = -(lam + xi * (1.3 + 4.0j)) * x[xi]
            if model == SINGLE and xi < 4:
                rhs[xi] += 1.3 * (xi + 1) * x[xi + 1]
        assert np.max(np.abs(deriv - rhs)) < 1e-7


def test_collective_decays_faster_v_zero():
    # pointwise ordering; at large V single-model interference dips break it,
    # so the pointwise form is only asserted without interaction phases
    for d in (1, 2, 3):
        s = initial_coherence(d, V=0.0, gamma=1.0, model=SINGLE)
        c = initial_coherence(d, V=0.0, gamma=1.0, model=COLLECTIVE)
        for t in np.linspace(0.05, 3.0, 30):
            assert evolve(c, t).abs_total < evolve(s, t).abs_total


def test_collective_loses_integrated_coherence():
    for d in (1, 2):
        s = initial_coherence(d, V=10.0, gamma=1.0, model=SINGLE)
        c = initial_coherence(d, V=10.0, gamma=1.0, model=COLLECTIVE)
        ts = np.linspace(0.0, 6.0, 1200)
        area_s = np.trapezoid([evolve(s, t).abs_total for t in ts], ts)
        area_c = np.trapezoid([evolve(c, t).abs_total for t in ts], ts)
        assert area_c < area_s


def test_short_time_coefficients():
    assert short_time_coefficients(SINGLE, 3, 2.0, 5.0)[1] == pytest.approx(-0.5)
    assert short_time_coefficients(COLLECTIVE, 1, 1.0, 0.0)[1] == pytest.approx(-0.75)
    c = short_time_coefficients(COLLECTIVE, 1, 1.0, 10.0)
    assert c[0] == 0.5
    assert c[2] == pytest.approx((9 + 2 - 200) / 16)
    s = short_time_coefficients(SINGLE, 1, 1.0, 10.0)
    assert s[2] == pytest.approx((1 - 200) / 16)


@pytest.mark.parametrize("model", [SINGLE, COLLECTIVE])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_short_time_expansion_matches_curve(model, d):
    gamma, V = 1.0, 10.0
    state = initial_coherence(d, 0.0, V, gamma, model=model)
    c0, c1, c2 = short_time_coefficients(model, d, gamma, V)
    assert c0 == 0.5

    def absx(t):
        return evolve(state, t).abs_total if t > 0 else state.abs_total

    def fd1(step):
        return (absx(step) - absx(0.0)) / step

    h = 1e-4
    slope = 2 * fd1(h / 2) - fd1(h)  # Richardson kills the c2*h bias
    assert slope == pytest.approx(c1, rel=1e-3)

    def fd2(step):
        return (absx(2 * step) - 2 * absx(step) + absx(0.0)) / step**2

    curvature = (4 * fd2(h / 2) - fd2(h)) / 3  # Richardson-extrapolated
    assert curvature == pytest.approx(2 * c2, rel=1e-3)


def test_mode_series_shape():
    state = initial_coherence(1, V=10.0)
    ts = np.linspace(0, 2, 11)
    series = mode_series(state, ts)
    assert series.shape == (3, 11)
    assert np.allclose(series[:, 0], state.xi_values)


def test_master_equation_cross_check_small():
    lat = LatticeSpec(1, (3,), "periodic")
    mp = ModelParams(V=4.0, gamma=1.0)
    ts = np.linspace(0.0, 1.0, 6)
    for model in (SINGLE, COLLECTIVE):
        assert verify_against_master_equation(lat, mp, model, ts) < 1e-6


def test_cross_check_rejects_open_chain():
    lat = LatticeSpec(1, (3,), "open")
    with pytest.raises(ValueError, match="translation-invariance"):
        verify_against_master_equation(
            lat, ModelParams(V=4.0), COLLECTIVE, np.array([0.0, 0.5])
        )


def test_cross_check_rejects_driven():
    lat = LatticeSpec(1, (3,), "periodic")
    with pytest.raises(ValueError, match="Omega"):
        verify_against_master_equation(
            lat, ModelParams(V=4.0, Omega=1.0), COLLECTIVE, np.array([0.0, 0.5])
        )


def full_space_mode_series(lattice, params, model, t_grid):
    """The cross-check in the full 4^N-dimensional space: integrate_exact
    from the half-inverted product state, and the dense mode operators
    (1/N) sum_k P_k^xi sigma_k^- contracted with every snapshot."""
    table = neighbor_table(lattice)
    n = lattice.site_count
    rho0 = product_density(np.full((2, 2), 0.5), n)
    h = atomic_hamiltonian(lattice, table, params)
    jumps = jump_operators(lattice, table, params, model)
    res = integrate_exact(rho0, h, jumps, float(t_grid[-1]), sample_times=t_grid)
    mode_ops = np.stack([
        sum(neighborhood_projector(lattice, table, k, xi)
            @ site_operator(lattice, k, "sigma_minus") for k in range(n)).toarray()
        for xi in range(3)
    ]) / n
    return np.einsum("xij,tji->xt", mode_ops, np.asarray(res.states))


@pytest.mark.parametrize("n_sites, t_max, route", [(3, 2.0, "eig"), (4, 2.0, "eig"),
                                                   (6, 0.5, "expm")])
@pytest.mark.parametrize("model", [SINGLE, COLLECTIVE])
def test_reduced_cross_check_matches_full_space(n_sites, t_max, route, model):
    lat = LatticeSpec(1, (n_sites,), "periodic")
    mp = ModelParams(omega_a=0.37, V=10.0)
    ts = np.linspace(0.0, t_max, 21)
    stats = PropagationStats()
    reduced = exact_mode_series(lat, mp, model, ts, stats)
    assert reduced.shape == (3, len(ts))
    assert np.max(np.abs(reduced - full_space_mode_series(lat, mp, model, ts))) <= 1e-12
    assert (stats.eig_cells, stats.expm_cells) == ((1, 0) if route == "eig" else (0, 1))
    assert stats.reduced_dim == {3: 20, 4: 55, 6: 430}[n_sites]
    assert stats.renormalizations == 0 and stats.max_trace_drift < 1e-12
    if route == "eig":
        assert 1.0 <= stats.max_cond < 1e3 and stats.min_gap > 0.0
    else:
        assert stats.max_cond == 0.0 and np.isnan(stats.min_gap)


@pytest.mark.parametrize("ts, message", [
    ([1.0, 0.5, 0.0], "strictly increasing"),
    ([0.0, 0.5, 0.5, 1.0], "strictly increasing"),
    ([0.0, 0.1, 0.5], "equally spaced"),
    ([-0.5, 0.0, 0.5], ">= 0"),
    ([], "non-empty"),
])
def test_cross_check_rejects_bad_time_grid(ts, message):
    # a reversed or duplicated grid would come back sorted, misaligned with
    # mode_series(ts), if the cross-check reordered it
    lat = LatticeSpec(1, (3,), "periodic")
    with pytest.raises(ValueError, match=message):
        verify_against_master_equation(lat, ModelParams(V=4.0), COLLECTIVE, np.array(ts))


def test_cross_check_rejects_more_than_ten_sites():
    lat = LatticeSpec(1, (11,), "periodic")
    with pytest.raises(ValueError, match="N <= 10"):
        exact_mode_series(lat, ModelParams(V=4.0), COLLECTIVE, np.array([0.0, 0.5]))


def test_cross_check_refuses_a_huge_ring_before_building_it():
    # the orbits check N before half_coordination builds the N-site
    # neighbour table, which takes seconds and hundreds of MiB at 10**6 sites
    start = time.monotonic()
    with pytest.raises(ValueError, match="N <= 10"):
        exact_mode_series(LatticeSpec(1, (10**6,), "periodic"), ModelParams(V=4.0),
                          COLLECTIVE, np.array([0.0, 0.5]))
    assert time.monotonic() - start < 1.0
