"""End-to-end acceptance suite.

One test per shipped guarantee. Each test prints a single summary line with
the measured figure next to its limit, so `pytest -v -s tests/test_acceptance.py`
doubles as a build report. Tolerances and budgets are stated inline; nothing
here may be loosened without a matching note in the project decision log.
"""

import itertools
import math
import time
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp

from ryddecay.coherence import evolve, initial_coherence, verify_against_master_equation
from ryddecay.kernels import KernelInputs, gamma_kernel, gamma_xi_rate, v_kernel
from ryddecay.lattice import LatticeSpec, neighbor_table
from ryddecay.master_equation import (
    excitation_density,
    integrate_exact,
    scan_steady_state,
    vacuum_density,
)
from ryddecay.meanfield import (
    AS_PRINTED,
    ORACLE_VERIFIED,
    MeanFieldParams,
    MeanFieldState,
    mf_oracle_check,
    refine_critical_point,
    scan_phase_diagram,
)
from ryddecay.operators import (
    COLLECTIVE,
    SINGLE,
    ModelParams,
    build_system,
    jump_operators,
    neighborhood_projector,
    occupation_vector,
)
from ryddecay.trajectories import effective_hamiltonian, run_ensemble

pytestmark = pytest.mark.acceptance

CHAIN4 = LatticeSpec(1, (4,), "periodic")
CHAIN5 = LatticeSpec(1, (5,), "periodic")
SQUARE33 = LatticeSpec(2, (3, 3), "periodic")


def report(num: int, name: str, detail: str) -> None:
    print(f"[acceptance {num:02d}] {name}: {detail}")


def test_criterion_01_single_atom_decay_law():
    t0 = time.monotonic()
    lat = LatticeSpec(1, (1,), "open")
    h, jumps = build_system(lat, ModelParams(gamma=1.0), SINGLE)
    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    ts = np.linspace(0.0, 5.0, 26)
    res = integrate_exact(rho0, h, jumps, 5.0, sample_times=ts)
    ns = np.array([excitation_density(r, lat) for r in res.states])
    rel = np.abs(ns - np.exp(-ts)) / np.exp(-ts)
    wall = time.monotonic() - t0
    report(1, "single-atom decay law",
           f"max rel err {rel.max():.2e} (limit 1e-8), wall {wall:.2f}s (limit 1s)")
    assert rel.max() < 1e-8
    assert wall < 1.0


def test_criterion_02_coherence_matches_master_equation():
    t0 = time.monotonic()
    mp = ModelParams(V=10.0, gamma=1.0)
    ts = np.linspace(0.0, 2.0, 21)
    devs = {}
    for model in (SINGLE, COLLECTIVE):
        devs[model] = verify_against_master_equation(CHAIN4, mp, model, ts)
    wall = time.monotonic() - t0
    report(2, "coherence vs exact integration",
           f"max dev single {devs[SINGLE]:.2e} collective {devs[COLLECTIVE]:.2e} "
           f"(limit 1e-6), wall {wall:.1f}s (limit 10s)")
    assert devs[SINGLE] < 1e-6
    assert devs[COLLECTIVE] < 1e-6
    assert wall < 10.0


def test_criterion_03_initial_profile_and_slopes():
    worst = 0.0
    for d in (1, 2, 3):
        state = initial_coherence(d, 0.0, 10.0, 1.0)
        for xi in range(2 * d + 1):
            assert state.xi_values[xi] == math.comb(2 * d, xi) * 2.0 ** (-2 * d - 1)
        for model, target in ((SINGLE, -0.25), (COLLECTIVE, -(2 * d + 1) / 4)):
            st = initial_coherence(d, 0.0, 10.0, 1.0, model=model)

            def fd1(step):
                return (evolve(st, step).abs_total - 0.5) / step

            h = 1e-4
            slope = 2 * fd1(h / 2) - fd1(h)
            rel = abs(slope - target) / abs(target)
            worst = max(worst, rel)
            assert rel < 1e-3, (d, model, slope, target)
    report(3, "initial coherence profile and slopes",
           f"binomial profile exact, worst slope rel err {worst:.2e} (limit 1e-3)")


def test_criterion_04_diagonal_equivalence():
    rng = np.random.default_rng(404)
    mp = ModelParams(V=10.0, gamma=1.0)  # undriven: Omega = 0
    hs, js = build_system(CHAIN4, mp, SINGLE)
    hc, jc = build_system(CHAIN4, mp, COLLECTIVE)
    worst = 0.0
    for _ in range(20):
        p = rng.random(16)
        rho0 = np.diag(p / p.sum()).astype(complex)
        a = integrate_exact(rho0, hs, js, 1.0, sample_times=[1.0]).states[-1]
        b = integrate_exact(rho0, hc, jc, 1.0, sample_times=[1.0]).states[-1]
        worst = max(worst, float(np.max(np.abs(a - b))))
    report(4, "diagonal-state equivalence of the two models",
           f"20 random diagonal states, worst element diff {worst:.2e} (limit 1e-10)")
    assert worst < 1e-10


def test_criterion_05_projector_algebra_identities():
    checked = 0
    for lat in (CHAIN4, CHAIN5, SQUARE33):
        table = neighbor_table(lat)
        dim = 1 << lat.site_count
        identity = sp.identity(dim, format="csr")
        for k in range(lat.site_count):
            n_neighbors = len(table.neighbors[k])
            projs = [
                neighborhood_projector(lat, table, k, xi)
                for xi in range(n_neighbors + 1)
            ]
            for xi, P in enumerate(projs):
                assert ((P @ P - P).nnz == 0)
            for a, b in itertools.combinations(range(len(projs)), 2):
                assert (projs[a] @ projs[b]).nnz == 0
            total = sum(projs[1:], projs[0])
            assert (total - identity).nnz == 0
            neighbor_sum = sum(
                sp.diags(occupation_vector(lat, m)) for m in table.neighbors[k]
            )
            weighted = sum(xi * P for xi, P in enumerate(projs))
            assert (sp.csr_matrix(neighbor_sum) - weighted).nnz == 0
            checked += 1
    report(5, "neighborhood projector algebra",
           f"idempotence/orthogonality/completeness/counting exact on "
           f"{checked} sites across 3 lattices")


def test_criterion_06_jump_rate_resolution_and_h_eff():
    for lat in (CHAIN4, CHAIN5, SQUARE33):
        table = neighbor_table(lat)
        for gamma in (1.0, 2.25):  # exact square roots keep the identity bitwise
            mp = ModelParams(V=10.0, gamma=gamma, Omega=2.5, Delta=-6.0)
            h, _ = build_system(lat, mp, SINGLE)
            sums = {}
            for model in (SINGLE, COLLECTIVE):
                jumps = jump_operators(lat, table, mp, model)
                acc = sum((j.matrix.conj().T @ j.matrix for j in jumps),
                          sp.csr_matrix(h.shape, dtype=complex))
                sums[model] = sp.csr_matrix(acc)
            counts = sum(
                sp.diags(occupation_vector(lat, k)) for k in range(lat.site_count)
            )
            target = sp.csr_matrix(gamma * counts, dtype=complex)
            for model in (SINGLE, COLLECTIVE):
                diff = sums[model] - target
                diff.eliminate_zeros()
                assert diff.nnz == 0
            h_s = effective_hamiltonian(h, jump_operators(lat, table, mp, SINGLE))
            h_c = effective_hamiltonian(h, jump_operators(lat, table, mp, COLLECTIVE))
            hdiff = h_s - h_c
            hdiff.eliminate_zeros()
            assert hdiff.nnz == 0
    report(6, "jump-rate resolution",
           "sum L^dag L = gamma sum n_k exact and H_eff model-independent "
           "on 3 lattices, gamma in {1, 2.25}")


C7_GRID = np.linspace(0.5, 5.0, 50)
C7_SEED = 7
C7_PARAMS = ModelParams(V=10.0, gamma=1.0, Omega=2.5, Delta=-6.0)


@lru_cache(maxsize=None)
def _c7_ensemble(tag: str, model: str):
    psi0 = np.zeros(16, dtype=complex)
    psi0[0] = 1.0
    return run_ensemble(
        CHAIN4, C7_PARAMS, model, psi0, n_traj=300, master_seed=C7_SEED,
        t_final=5.0, sample_times=C7_GRID, threads=1,
    )


@lru_cache(maxsize=None)
def _c7_exact(model: str):
    h, jumps = build_system(CHAIN4, C7_PARAMS, model)
    res = integrate_exact(vacuum_density(16), h, jumps, 5.0, sample_times=C7_GRID)
    return np.array([excitation_density(r, CHAIN4) for r in res.states])


def test_criterion_07_trajectories_track_exact_solution():
    t0 = time.monotonic()
    worst = 0.0
    for model in (SINGLE, COLLECTIVE):
        exact = _c7_exact(model)
        ens = _c7_ensemble("a", model)
        z = np.abs(ens.mean - exact) / ens.stderr
        worst = max(worst, float(z.max()))
        assert np.all(ens.stderr > 0.0)
    wall = time.monotonic() - t0
    report(7, "trajectory ensemble vs exact",
           f"300 trajectories, worst |z| {worst:.2f} (limit 3), "
           f"wall {wall:.0f}s (limit 300s)")
    assert worst < 3.0
    assert wall < 300.0


def test_criterion_08_mean_field_product_state_oracle():
    rng = np.random.default_rng(808)
    lat = LatticeSpec(1, (6,), "periodic")
    devs = {ORACLE_VERIFIED: 0.0, AS_PRINTED: 0.0}
    for _ in range(10):
        n = rng.uniform(0.05, 0.95)
        radius = np.sqrt(4 * n * (1 - n)) * rng.uniform(0.1, 0.999)
        phi = rng.uniform(0, 2 * np.pi)
        st = MeanFieldState(n, radius * np.cos(phi) / 2, radius * np.sin(phi) / 2)
        mp = ModelParams(V=rng.uniform(0, 12), gamma=1.0,
                         Omega=rng.uniform(0, 4), Delta=rng.uniform(-12, 4))
        for conv in devs:
            dev = mf_oracle_check(lat, mp, st, conv, COLLECTIVE)
            devs[conv] = max(devs[conv], float(np.max(np.abs(dev))))
    passed = sorted(c for c, v in devs.items() if v < 1e-9)
    report(8, "mean-field closure vs exact Lindbladian",
           f"sign convention passing at 1e-9: {passed} "
           f"(verified {devs[ORACLE_VERIFIED]:.2e}, printed {devs[AS_PRINTED]:.2e})")
    assert passed == [ORACLE_VERIFIED]


C9_PARAMS = MeanFieldParams(Delta=0.0, Omega=0.0, gamma=1.0, d=1, V=10.0)


def _stable_physical_count(delta: float, omega: float) -> int:
    return int(scan_phase_diagram([delta], [omega], C9_PARAMS).stable_count[0, 0])


def _bistable_window(omega: float, lo: float = -30.0, hi: float = 10.0,
                     n: int = 801, tol: float = 1e-4):
    ds = np.linspace(lo, hi, n)
    flags = scan_phase_diagram(ds, [omega], C9_PARAMS).stable_count[:, 0] >= 2
    hits = np.flatnonzero(flags)
    if hits.size == 0:
        return None

    def edge(outside, inside):
        while abs(inside - outside) > tol:
            mid = 0.5 * (outside + inside)
            if _stable_physical_count(mid, omega) >= 2:
                inside = mid
            else:
                outside = mid
        return inside

    left = edge(ds[hits[0] - 1], ds[hits[0]]) if hits[0] > 0 else ds[0]
    right = edge(ds[hits[-1] + 1], ds[hits[-1]]) if hits[-1] < ds.size - 1 else ds[-1]
    return left, right


def test_criterion_09_mean_field_bistability_region():
    deltas = np.linspace(-30.0, 10.0, 201)
    omegas = np.linspace(0.0, 10.0, 201)
    params = MeanFieldParams(0.0, 0.0, 1.0, 1, 10.0)
    t0 = time.monotonic()
    counts = scan_phase_diagram(deltas, omegas, params).stable_count
    wall = time.monotonic() - t0

    bi_d, bi_o = np.nonzero(counts == 2)
    assert bi_d.size > 0
    assert np.all(deltas[bi_d] < 0.0)

    # no drive: unique vacuum state all along the Omega = 0 row
    assert np.all(counts[:, 0] == 1)

    # cusp termination: bistability ends strictly inside the scanned Omega
    # range, every sampled row above the band is monostable, and the refined
    # cusp sits just above the last sampled row (the window narrows below the
    # 0.2 grid spacing before vanishing, so the sampled band stops early)
    top = omegas[bi_o.max()]
    assert top < omegas[-1]
    assert np.all(counts[:, bi_o.max() + 1:] == 1)
    crit_delta, crit_omega = refine_critical_point(params)
    assert top <= crit_omega < top + 0.5
    near = dict(lo=crit_delta - 2.0, hi=crit_delta + 2.0, n=4001)
    assert _bistable_window(crit_omega - 0.05, **near) is not None
    assert _bistable_window(crit_omega + 0.05, **near) is None
    assert _bistable_window(crit_omega + 0.05) is None

    # connectivity of the continuous region: every Omega row through the band
    # has a nonempty bistable Delta window and consecutive windows overlap,
    # so a path exists between any two bistable cells
    rows = np.unique(bi_o)
    band = np.arange(rows[0], rows[-1] + 1)
    windows = {r: _bistable_window(float(omegas[r])) for r in band}
    for r in band:
        assert windows[r] is not None, omegas[r]
    for r0, r1 in zip(band[:-1], band[1:]):
        lo = max(windows[r0][0], windows[r1][0])
        hi = min(windows[r0][1], windows[r1][1])
        assert lo < hi, (omegas[r0], omegas[r1], windows[r0], windows[r1])

    # two coexisting branches over a nonempty detuning interval on the cut
    cut = _bistable_window(2.5)
    assert cut is not None and cut[0] < cut[1] < 0.0
    mid = 0.5 * (cut[0] + cut[1])
    cell = scan_phase_diagram([mid], [2.5], C9_PARAMS)
    branches = sorted(cell.states[0, 0, cell.stable[0, 0] & cell.physical[0, 0], 0])
    assert len(branches) == 2 and branches[0] < branches[1]

    report(9, "mean-field bistability region",
           f"{bi_d.size} bistable cells, all at Delta<0, connected band "
           f"Omega {omegas[rows[0]]:.2f}..{top:.2f}, cusp at "
           f"({crit_delta:.3f}, {crit_omega:.3f}), cut window "
           f"{cut[0]:.2f}..{cut[1]:.2f}, scan wall {wall:.1f}s (limit 60s)")
    assert wall < 60.0


def test_criterion_10_steady_state_contrast():
    deltas = np.linspace(-30.0, 10.0, 41)
    omegas = np.linspace(10.0 / 21.0, 10.0, 21)
    mp = ModelParams(V=10.0, gamma=1.0)
    t0 = time.monotonic()
    scan = scan_steady_state(CHAIN4, mp, deltas, omegas,
                             models=(SINGLE, COLLECTIVE), t_final=5.0)
    wall = time.monotonic() - t0
    assert scan.errors == []
    with np.errstate(divide="ignore", invalid="ignore"):
        contrast = (scan.n_collective - scan.n_single) / scan.n_single
    contrast = np.where(np.abs(scan.n_single) < 1e-12, -np.inf, contrast)
    i, j = np.unravel_index(np.argmax(contrast), contrast.shape)
    best = contrast[i, j]
    report(10, "steady-state contrast between models",
           f"max (n_c-n_s)/n_s = {best:.3f} at Delta={deltas[i]:.1f}, "
           f"Omega={omegas[j]:.2f} (required > 1.0 at Delta < 0), "
           f"wall {wall:.0f}s (limit 600s)")
    assert wall < 600.0
    assert deltas[i] < 0.0
    assert best > 1.0


def test_criterion_11_kernel_limits():
    gamma_xi = gamma_xi_rate(1.0, 100.0, 10.0, 2)
    worst_small = 0.0
    for cos2 in (0.0, 1 / 3, 1.0):
        g = gamma_kernel(KernelInputs(1e-4, cos2, gamma_xi))
        worst_small = max(worst_small, abs(g - gamma_xi) / gamma_xi)
    worst_far = 0.0
    for cos2 in (0.0, 1 / 3, 1.0):
        k = KernelInputs(1e3, cos2, gamma_xi)
        worst_far = max(worst_far, abs(gamma_kernel(k)) / gamma_xi,
                        abs(v_kernel(k)) / gamma_xi)
    report(11, "pair kernel limits",
           f"contact limit rel err {worst_small:.2e} (limit 1e-6), "
           f"far-field magnitude {worst_far:.2e} of gamma_xi (limit 1e-2)")
    assert worst_small < 1e-6
    assert worst_far < 1e-2


def test_criterion_12_ensemble_determinism():
    same = True
    for model in (SINGLE, COLLECTIVE):
        first = _c7_ensemble("a", model)
        second = _c7_ensemble("b", model)
        same = same and first.mean.tobytes() == second.mean.tobytes()
        same = same and first.stderr.tobytes() == second.stderr.tobytes()
        same = same and first.samples.tobytes() == second.samples.tobytes()
    report(12, "seeded reproducibility",
           f"re-run with master seed {C7_SEED}: byte-identical = {same}")
    assert same
