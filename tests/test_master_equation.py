import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import ryddecay
import ryddecay.master_equation as master_equation
from ryddecay.coherence import _mode_rows
from ryddecay.lattice import LatticeSpec, neighbor_table
from ryddecay.master_equation import (
    EIG_MAX_DIM,
    check_density_matrix,
    excitation_density,
    integrate_exact,
    lindblad_rhs,
    liouvillian,
    product_density,
    propagate,
    reduced_detuning,
    reduced_drive,
    reduced_liouvillian,
    scan_steady_state,
    symmetry_orbits,
    vacuum_density,
    window_times,
)
from ryddecay.operators import (
    COLLECTIVE,
    SINGLE,
    ModelParams,
    build_system,
    driven_hamiltonian,
    effective_hamiltonian,
    excitation_count_vector,
    jump_operators,
    neighborhood_projector,
    site_operator,
)

LAT1 = LatticeSpec(1, (1,), "open")
LAT3 = LatticeSpec(1, (3,), "periodic")
LAT4 = LatticeSpec(1, (4,), "periodic")
LAT6 = LatticeSpec(1, (6,), "periodic")
LAT8 = LatticeSpec(1, (8,), "periodic")
LAT10 = LatticeSpec(1, (10,), "periodic")
OPEN3 = LatticeSpec(1, (3,), "open")
OPEN4 = LatticeSpec(1, (4,), "open")
SQUARE2 = LatticeSpec(2, (2, 2), "open")


def up_state_density():
    rho = np.zeros((2, 2), dtype=complex)
    rho[1, 1] = 1.0
    return rho


def random_density(rng, dim, diagonal=False):
    if diagonal:
        p = rng.random(dim)
        return np.diag(p / p.sum()).astype(complex)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_rhs_single_atom_decay_rate():
    h, jumps = build_system(LAT1, ModelParams(gamma=1.0), SINGLE)
    drho = lindblad_rhs(up_state_density(), h, jumps)
    assert drho[1, 1].real == pytest.approx(-1.0, abs=1e-14)


def test_rhs_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(5)
    h, jumps = build_system(LAT3, ModelParams(V=3.0, Omega=1.0, Delta=-1.0), COLLECTIVE)
    for _ in range(5):
        rho = random_density(rng, 8)
        drho = lindblad_rhs(rho, h, jumps)
        assert abs(np.trace(drho)) < 1e-12
        assert np.max(np.abs(drho - drho.conj().T)) < 1e-12


def test_rhs_single_equals_collective_for_one_atom():
    hs, js = build_system(LAT1, ModelParams(gamma=1.0), SINGLE)
    hc, jc = build_system(LAT1, ModelParams(gamma=1.0), COLLECTIVE)
    rng = np.random.default_rng(11)
    rho = random_density(rng, 2)
    assert np.array_equal(lindblad_rhs(rho, hs, js), lindblad_rhs(rho, hc, jc))


def test_rhs_dimension_mismatch():
    h, jumps = build_system(LAT1, ModelParams(), SINGLE)
    with pytest.raises(ValueError):
        lindblad_rhs(np.eye(4, dtype=complex) / 4, h, jumps)


def test_single_atom_decay_curve():
    h, jumps = build_system(LAT1, ModelParams(gamma=1.0), SINGLE)
    ts = np.linspace(0.0, 5.0, 26)
    res = integrate_exact(up_state_density(), h, jumps, 5.0, sample_times=ts)
    ns = np.array([excitation_density(r, LAT1) for r in res.states])
    assert np.max(np.abs(ns - np.exp(-ts)) / np.exp(-ts)) < 1e-8


def test_fully_mixed_populations_decay_per_site():
    rho0 = np.eye(8, dtype=complex) / 8
    h, jumps = build_system(LAT3, ModelParams(V=10.0), COLLECTIVE)
    res = integrate_exact(rho0, h, jumps, 1.0, sample_times=[1.0])
    expect = 0.5 * np.exp(-1.0)
    assert excitation_density(res.states[-1], LAT3) == pytest.approx(expect, rel=1e-7)


def test_diagonal_initial_state_model_equivalence():
    rng = np.random.default_rng(3)
    rho0 = random_density(rng, 16, diagonal=True)
    mp = ModelParams(V=10.0, gamma=1.0)
    out = {}
    for model in (SINGLE, COLLECTIVE):
        h, jumps = build_system(LAT4, mp, model)
        res = integrate_exact(rho0, h, jumps, 1.0, sample_times=[1.0])
        out[model] = res.states[-1]
    assert np.max(np.abs(out[SINGLE] - out[COLLECTIVE])) < 1e-10


def test_undriven_excitation_monotone_to_vacuum():
    rng = np.random.default_rng(9)
    rho0 = random_density(rng, 16)
    h, jumps = build_system(LAT4, ModelParams(V=10.0), COLLECTIVE)
    ts = np.linspace(0.0, 8.0, 33)
    res = integrate_exact(rho0, h, jumps, 8.0, sample_times=ts)
    ns = np.array([excitation_density(r, LAT4) for r in res.states])
    assert np.all(np.diff(ns) <= 1e-12)
    assert ns[-1] < 1e-3
    assert res.max_trace_drift < 1e-10
    assert res.max_herm_drift < 1e-10


def test_positivity_preserved_driven():
    h, jumps = build_system(LAT4, ModelParams(V=10.0, Omega=2.5, Delta=-6.0), COLLECTIVE)
    res = integrate_exact(vacuum_density(16), h, jumps, 1.0, sample_times=[0.3, 1.0])
    for rho in res.states:
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(4) * 0.5)  # trace 2
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = 0.5  # not Hermitian
    with pytest.raises(ValueError):
        check_density_matrix(bad)
    check_density_matrix(vacuum_density(8))


def test_state_builders():
    psi = np.zeros(4, dtype=complex)
    psi[2] = 1.0
    rho = np.outer(psi, psi.conj())
    assert rho[2, 2] == 1.0 and np.trace(rho) == 1.0
    lat2 = LatticeSpec(1, (2,), "open")
    assert excitation_density(rho, lat2) == pytest.approx(0.5)  # |up down>
    single = np.array([[0.25, 0.0], [0.0, 0.75]], dtype=complex)
    prod = product_density(single, 2)
    assert prod[3, 3] == pytest.approx(0.75**2)


def test_excitation_density_extremes():
    lat2 = LatticeSpec(1, (2,), "open")
    up = np.zeros((4, 4), dtype=complex)
    up[3, 3] = 1.0
    assert excitation_density(up, lat2) == pytest.approx(1.0)
    assert excitation_density(vacuum_density(4), lat2) == pytest.approx(0.0)


def test_window_times_definition():
    tw = window_times(1.0)
    assert len(tw) == 100
    assert tw[0] == pytest.approx(4.75) and tw[-1] == pytest.approx(5.0)
    tw2 = window_times(2.0)
    assert tw2[0] == pytest.approx(2.375)


def test_window_average_constant_and_ramp():
    # a ramp averages to its value at the window centre, because the samples
    # are equally spaced over [4.75, 5.00], endpoints included
    assert np.mean(1.0 + 2.0 * window_times(1.0)) == pytest.approx(1.0 + 2.0 * 4.875)


def test_window_average_exponential():
    # independent oracle: geometric closed form of the 100-sample mean
    h = 0.25 / 99
    expect = np.exp(-4.75) * (1 - np.exp(-100 * h)) / (1 - np.exp(-h)) / 100
    assert np.mean(np.exp(-window_times(1.0))) == pytest.approx(expect, abs=1e-15)
    assert expect == pytest.approx(0.00765540, abs=5e-8)


def test_scan_matches_single_cell_integration():
    mp = ModelParams(V=10.0, gamma=1.0)
    scan = scan_steady_state(
        LAT3, mp, np.array([-6.0]), np.array([2.5]), t_final=5.0
    )
    for model, grid in ((SINGLE, scan.n_single), (COLLECTIVE, scan.n_collective)):
        cell = ModelParams(V=10.0, gamma=1.0, Omega=2.5, Delta=-6.0)
        h, jumps = build_system(LAT3, cell, model)
        res = integrate_exact(
            vacuum_density(8), h, jumps, 5.0, sample_times=window_times(1.0)
        )
        direct = float(
            np.mean([excitation_density(r, LAT3) for r in res.states])
        )
        assert grid[0, 0] == pytest.approx(direct, abs=1e-12)


def test_scan_requires_window_coverage():
    with pytest.raises(ValueError):
        scan_steady_state(
            LAT3, ModelParams(V=10.0), np.array([0.0]), np.array([1.0]), t_final=2.0
        )


@pytest.mark.parametrize("lattice", [LAT3, LAT4])
@pytest.mark.parametrize("model", [SINGLE, COLLECTIVE])
def test_liouvillian_matches_operator_product_rhs(lattice, model):
    h, jumps = build_system(lattice, ModelParams(V=10.0, Omega=2.5, Delta=-6.0), model)
    gen = liouvillian(h, jumps)
    rng = np.random.default_rng(17)
    dim = h.shape[0]
    for _ in range(3):
        rho = random_density(rng, dim)
        applied = (gen @ rho.reshape(-1)).reshape(dim, dim)
        assert np.max(np.abs(applied - lindblad_rhs(rho, h, jumps))) < 1e-12


def test_propagate_rejects_trace_loss():
    decay = -sp.identity(4, format="csr")
    with pytest.raises(RuntimeError, match="drift"):
        propagate(decay, vacuum_density(2), np.array([0.0, 1.0]))


def test_unequally_spaced_sample_times_rejected():
    h, jumps = build_system(LAT3, ModelParams(V=10.0), COLLECTIVE)
    with pytest.raises(ValueError, match="equally spaced"):
        integrate_exact(vacuum_density(8), h, jumps, 1.0, sample_times=[0.1, 0.2, 0.5])


@pytest.mark.parametrize("ts", [[1.0, 0.5, 0.0], [0.0, 0.5, 0.5, 1.0]])
def test_reversed_or_duplicated_sample_times_rejected(ts):
    # one state per requested time, in the requested order, or an error:
    # a sorted or merged copy of the grid would misalign the caller's pairing
    h, jumps = build_system(LAT3, ModelParams(V=10.0), COLLECTIVE)
    with pytest.raises(ValueError, match="strictly increasing"):
        integrate_exact(vacuum_density(8), h, jumps, 1.0, sample_times=ts)


def _same_rng_state(a, b):
    return a[0] == b[0] and np.array_equal(a[1], b[1]) and a[2:] == b[2:]


def test_scan_bytes_independent_of_global_rng():
    # the eig route (N = 4) and the Taylor core (N = 6, above EIG_MAX_DIM)
    for lattice, deltas, omegas in ((LAT4, [-30.0, -6.0], [2.5, 10.0]), (LAT6, [-6.0], [2.5])):
        outputs = []
        for seed in (1, 2):
            np.random.seed(seed)
            before = np.random.get_state()
            scan = scan_steady_state(lattice, ModelParams(V=10.0), np.array(deltas),
                                     np.array(omegas))
            assert _same_rng_state(before, np.random.get_state())
            outputs.append((scan.n_single.tobytes(), scan.n_collective.tobytes()))
        assert outputs[0] == outputs[1]


def _scipy_samples(gen, v, times):
    """exp(tL) v on the grid by scipy's expm_multiply: one call to the first
    time, then its interval form from 0."""
    from scipy.sparse.linalg import expm_multiply

    if times[0] > 0:
        v = expm_multiply(gen * times[0], v)
    if len(times) == 1:
        return v[None, :]
    return expm_multiply(gen, v, start=0.0, stop=times[-1] - times[0], num=len(times),
                         endpoint=True)


def _reduced_generator(model):
    orbits = symmetry_orbits(LAT6)
    gen = (reduced_liouvillian(orbits, LAT6, ModelParams(V=10.0), model)
           - 6.0 * reduced_detuning(orbits) + 2.5 * reduced_drive(orbits))
    return sp.csr_matrix(gen), orbits.coords(orbits.reps == 0)


def _full_generator(model):
    h, jumps = build_system(LAT3, ModelParams(V=10.0, Omega=2.5, Delta=-6.0), model)
    return liouvillian(h, jumps), vacuum_density(8).ravel()


@pytest.mark.parametrize("model", [SINGLE, COLLECTIVE])
@pytest.mark.parametrize("system, times", [
    (_reduced_generator, window_times()),  # real, dimension 430
    # complex, dimension 64; [0.3, 1.0] has fewer intervals than Taylor
    # steps, so each interval is crossed in substeps
    (_full_generator, [0.3, 1.0]),
    (_full_generator, [0.0, 0.7]),
    (_full_generator, [1.0]),
    (_full_generator, np.linspace(0.0, 0.25, 26)),
])
def test_taylor_core_matches_scipy_expm_multiply(system, times, model):
    gen, v0 = system(model)
    times = np.asarray(times, dtype=float)
    ours = master_equation._expm_samples(gen, v0, times)
    ref = _scipy_samples(gen, v0, times)
    assert ours.shape == ref.shape and ours.dtype == ref.dtype
    scale = np.abs(ref).max(axis=1)
    assert np.all(np.abs(ours - ref).max(axis=1) <= 1e-12 * scale)


def test_taylor_core_refuses_a_non_finite_generator():
    huge = sp.csr_matrix(np.diag([np.inf, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="not finite"):
        propagate(huge, vacuum_density(2), np.array([0.0, 1.0]))


def test_taylor_plan_above_the_product_limit_fails_the_scan(monkeypatch):
    # a plan too long is an input error of the whole scan, not a cell's
    # drift failure to be left NaN
    monkeypatch.setattr(master_equation, "MAX_TAYLOR_WORK", 100)
    with pytest.raises(ValueError, match="sparse products"):
        scan_steady_state(LAT6, ModelParams(V=10.0), np.array([-6.0]), np.array([2.5]))


def test_taylor_plan_is_bounded_by_work_not_products():
    # about 1.1e6 sparse products, fewer than an N = 6 ring cell at V = 1e4
    # plans, but each of 2e5 non-zeros: refused before the first product
    n = 100_000
    gen = 1e5 * sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1],
                         format="csr")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="sparse products"):
        master_equation._expm_samples(gen, np.ones(n), np.array([0.0, 1.0]))
    assert time.perf_counter() - start < 1.0


def _heff_case():
    """G = -i H_eff of the N = 4 ring, a normalised state, and exp(tau G) psi
    by dense expm per tau."""
    from scipy.linalg import expm

    h, jumps = build_system(LAT4, ModelParams(V=10.0, Omega=10.0, Delta=-6.0), COLLECTIVE)
    heff = effective_hamiltonian(h, jumps).toarray()
    rng = np.random.default_rng(7)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    taus = np.linspace(0.0, 3.0, 31)
    return (master_equation.eigen_form(heff, -1j), psi, taus,
            np.array([expm(-1j * tau * heff) @ psi for tau in taus]))


def _reduced_case():
    """L_red of the N = 4 ring from the vacuum, and the Taylor core's samples."""
    orbits = symmetry_orbits(LAT4)
    gen = (reduced_liouvillian(orbits, LAT4, ModelParams(V=10.0), COLLECTIVE)
           - 6.0 * reduced_detuning(orbits) + 2.5 * reduced_drive(orbits))
    v0, times = orbits.coords(orbits.reps == 0), window_times()
    return (master_equation.eigen_form(gen), v0, times,
            master_equation._expm_samples(gen, v0, times))


@pytest.mark.parametrize("route", ["eig", "expm"])
@pytest.mark.parametrize("case", [_heff_case, _reduced_case])
def test_eigen_form_rows_match_their_references(case, route, monkeypatch):
    # the one closed form, on both of its generators; COND_LIMIT = 0 forces
    # the dense expm rows
    if route == "expm":
        monkeypatch.setattr(master_equation, "COND_LIMIT", 0.0)
    form, v, taus, ref = case()
    assert (form.lam is None) == (route == "expm")
    coefs = form.coefficients(v)
    batch = form.rows(np.tile(coefs, (len(taus), 1)), taus)
    assert batch.shape == ref.shape
    assert np.max(np.abs(batch - ref)) <= 1e-12 * np.abs(ref).max()
    # on the closed form one coefficient row serves every tau; on both
    # routes a row's bits do not depend on the batch it is evaluated in
    if route == "eig":
        assert form.rows(coefs, taus).tobytes() == batch.tobytes()
    for k in range(len(taus)):
        assert form.rows(coefs[None, :], taus[k:k + 1])[0].tobytes() == batch[k].tobytes()


def test_cli_import_leaves_out_sparse_linalg():
    # no path imports scipy.sparse.linalg, and the eig closed form takes
    # numpy.linalg, so importing the CLI loads neither scipy solver
    src = str(Path(ryddecay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ryddecay.cli; "
         "print([m in sys.modules for m in ('scipy.sparse.linalg', 'scipy.linalg')])"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[False, False]"


# Burnside counts of the pairs (i, j) under the dihedral group of a ring,
# (4^N + 4^ceil(N/2)) / 2 under the reflection of an open chain
@pytest.mark.parametrize("lattice, dim", [(LAT4, 55), (LAT6, 430), (OPEN3, 40), (OPEN4, 136),
                                          (LAT8, 4435)])
def test_symmetric_basis_dimension_and_orthonormality(lattice, dim):
    orbits = symmetry_orbits(lattice)
    basis = orbits.basis()
    assert orbits.dim == dim
    assert basis.shape == (4 ** lattice.site_count, dim)
    assert abs(basis.conj().T @ basis - sp.identity(dim)).max() < 1e-14


def _mode_operators(lattice):
    """The mode operators (1/N) sum_k P_k^xi sigma_k^-, xi = 0..2."""
    table = neighbor_table(lattice)
    n = lattice.site_count
    return [sum(neighborhood_projector(lattice, table, k, xi)
                @ site_operator(lattice, k, "sigma_minus") for k in range(n)) / n
            for xi in range(3)]


@pytest.mark.parametrize("lattice", [LAT4, LAT6, OPEN3, OPEN4, SQUARE2])
@pytest.mark.parametrize("model", [SINGLE, COLLECTIVE])
def test_reduced_generator_is_real_and_exact(lattice, model):
    # each part assembled from the orbit representatives against the
    # full-space liouvillian of its Hamiltonian and jumps: L B = B L_red holds
    # only if L maps the symmetric subspace into itself and L_red is B^dag L B
    table = neighbor_table(lattice)
    params = ModelParams(V=10.0, gamma=0.7)
    orbits = symmetry_orbits(lattice)
    basis = orbits.basis()
    oracles = [
        (driven_hamiltonian(lattice, table, params), jump_operators(lattice, table, params, model)),
        (driven_hamiltonian(lattice, table, ModelParams(Delta=1.0)), ()),
        (driven_hamiltonian(lattice, table, ModelParams(Omega=1.0)), ()),
    ]
    parts = (reduced_liouvillian(orbits, lattice, params, model), reduced_detuning(orbits),
             reduced_drive(orbits))
    for part, (h, jumps) in zip(parts, oracles):
        assert not np.iscomplexobj(part.data)
        gen = liouvillian(h, jumps)
        assert abs(gen @ basis - basis @ part).max() <= 1e-12
        assert abs((basis.conj().T @ gen @ basis).real - part).max() <= 1e-12

    # the start states, trace and observable rows against B^dag vec(rho) and
    # vec(A^T) B
    dim = 1 << lattice.site_count
    n = lattice.site_count
    vacuum = orbits.coords(orbits.reps == 0)
    assert np.max(np.abs(vacuum - (basis.conj().T @ vacuum_density(dim).ravel()).real)) <= 1e-14
    half = product_density(np.full((2, 2), 0.5), n)
    coords = orbits.coords(np.full(orbits.dim, 0.5 ** n))
    assert np.max(np.abs(coords - (basis.conj().T @ half.ravel()).real)) <= 1e-14
    trace = orbits.row(orbits.diagonal).real
    assert np.max(np.abs(trace - basis.T @ np.eye(dim).ravel())) <= 1e-14
    excitations = orbits.pair_bits()[0].sum(axis=1)
    observable = orbits.row(orbits.diagonal * excitations).real / n
    density = np.diag(excitation_count_vector(lattice)).ravel() / n
    assert np.max(np.abs(observable - basis.T @ density)) <= 1e-14
    if lattice.boundary == "periodic":
        full = np.stack([op.T.toarray().ravel() for op in _mode_operators(lattice)])
        assert np.max(np.abs(_mode_rows(orbits, lattice, 1) - (basis.T @ full.T).T)) <= 1e-14


@pytest.mark.parametrize("lattice, dim", [(LAT8, 4435), (LAT10, 53764)])
def test_reduced_generator_beyond_the_oracle(lattice, dim):
    # sizes whose full-space L (65,536 and 1,048,576 rows) the oracle cannot
    # reach: the Burnside dimension, real parts, and tr L rho = 0 for every rho
    orbits = symmetry_orbits(lattice)
    assert orbits.dim == dim
    trace = orbits.row(orbits.diagonal)
    assert np.max(np.abs(trace.imag)) == 0.0
    for model in (SINGLE, COLLECTIVE):
        for part in (reduced_liouvillian(orbits, lattice, ModelParams(V=10.0), model),
                     reduced_detuning(orbits), reduced_drive(orbits)):
            assert part.shape == (dim, dim) and not np.iscomplexobj(part.data)
            assert np.max(np.abs(trace.real @ part)) <= 1e-12


def _full_space_window_means(lattice, deltas, omegas, model):
    dim = 1 << lattice.site_count
    out = np.empty((len(deltas), len(omegas)))
    for i, delta in enumerate(deltas):
        for j, omega in enumerate(omegas):
            h, jumps = build_system(
                lattice, ModelParams(V=10.0, Omega=omega, Delta=delta), model)
            res = propagate(liouvillian(h, jumps), vacuum_density(dim), window_times(1.0))
            out[i, j] = np.mean([excitation_density(r, lattice) for r in res.states])
    return out


@pytest.mark.parametrize("lattice, deltas, omegas", [
    (LAT4, [-30.0, -6.0, 3.0], [2.5, 10.0]),
    (OPEN3, [-30.0, 0.0], [0.5, 10.0]),
    (LAT6, [-30.0], [4.0]),
])
def test_reduced_scan_matches_full_space_propagate(lattice, deltas, omegas):
    scan = scan_steady_state(lattice, ModelParams(V=10.0), np.array(deltas), np.array(omegas))
    cells = 2 * len(deltas) * len(omegas)
    eig = scan.reduced_dim <= EIG_MAX_DIM
    assert (scan.eig_cells, scan.expm_cells) == ((cells, 0) if eig else (0, cells))
    assert scan.errors == [] and scan.renormalizations == 0
    for model, grid in ((SINGLE, scan.n_single), (COLLECTIVE, scan.n_collective)):
        full = _full_space_window_means(lattice, deltas, omegas, model)
        assert np.max(np.abs(grid - full)) <= 1e-12
    if eig:
        assert 1.0 <= scan.max_cond < master_equation.COND_LIMIT
        assert 0.0 < scan.min_gap < 1.0
        # the complex closed form leaves rounding in the imaginary part
        assert 0.0 < scan.max_herm_drift < 1e-12
    else:
        assert scan.max_cond == 0.0 and np.isnan(scan.min_gap)
        assert scan.max_herm_drift == 0.0


def test_reduced_scan_renormalizes_and_counts(monkeypatch):
    deltas, omegas = np.array([-30.0, -6.0]), np.array([2.5])
    plain = scan_steady_state(LAT4, ModelParams(V=10.0), deltas, omegas)
    monkeypatch.setattr(master_equation, "RENORM_THRESHOLD", 0.0)
    renormed = scan_steady_state(LAT4, ModelParams(V=10.0), deltas, omegas)
    assert plain.renormalizations == 0
    assert 0 < renormed.renormalizations <= 4 * len(window_times())
    assert np.max(np.abs(renormed.n_single - plain.n_single)) <= 1e-12
    assert np.max(np.abs(renormed.n_collective - plain.n_collective)) <= 1e-12


def test_reduced_scan_falls_back_above_cond_limit(monkeypatch):
    deltas, omegas = np.array([-30.0, -6.0]), np.array([2.5, 10.0])
    closed = scan_steady_state(LAT4, ModelParams(V=10.0), deltas, omegas)
    monkeypatch.setattr(master_equation, "COND_LIMIT", 0.0)
    forced = scan_steady_state(LAT4, ModelParams(V=10.0), deltas, omegas)
    assert (closed.eig_cells, closed.expm_cells) == (8, 0)
    assert (forced.eig_cells, forced.expm_cells) == (0, 8)
    assert forced.max_cond == closed.max_cond and np.isnan(forced.min_gap)
    assert forced.max_herm_drift == 0.0  # real arithmetic keeps rho Hermitian
    assert np.max(np.abs(forced.n_single - closed.n_single)) <= 1e-12
    assert np.max(np.abs(forced.n_collective - closed.n_collective)) <= 1e-12


def test_reduced_scan_names_cells_that_fail_the_drift_check():
    # at V = 1e14 rounding in eig (eps V ~ 2e-2) shows as trace drift
    scan = scan_steady_state(OPEN3, ModelParams(V=1e14), np.array([-6.0]), np.array([2.5]))
    assert len(scan.errors) == 2 and "propagation drift" in scan.errors[0]
    assert np.isnan(scan.n_single[0, 0]) and np.isnan(scan.n_collective[0, 0])
