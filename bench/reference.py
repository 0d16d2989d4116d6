"""Reference computations made apart from the ryddecay package.

Nothing here imports ryddecay. The Lindbladian is assembled from Kronecker
products of 2x2 matrices and propagated with
scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham 2011); the coherence
modes come from their closed form and from an ODE solve of the mode cascade;
the mean-field stationarity cubic is read off the equations of motion by
exact interpolation, and its triple root gives the cusp.

Conventions shared with the program's documented output: site 0 is the
leftmost Kronecker factor, basis state |1> is the excited atom, rates and
times are in units of gamma, the drive enters as Omega * sigma_x per site and
the detuning as Delta * n per site.
"""

from __future__ import annotations

from functools import reduce
from math import comb

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.optimize import fsolve
from scipy.sparse.linalg import expm_multiply

WINDOW = (4.75, 5.00)
WINDOW_POINTS = 100

_I2 = np.eye(2)
_N = np.array([[0.0, 0.0], [0.0, 1.0]])
_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def ring_bonds(n_sites: int) -> list[tuple[int, int]]:
    """Nearest-neighbour bonds of a periodic chain, each counted once."""
    if n_sites == 1:
        return []
    if n_sites < 3:
        raise ValueError("a periodic ring needs at least 3 sites")
    return [(k, (k + 1) % n_sites) for k in range(n_sites)]


def embed(op: np.ndarray, k: int, n_sites: int) -> sp.csr_matrix:
    """Single-site operator at site k: I x ... x op x ... x I."""
    factors = [sp.csr_matrix(op if j == k else _I2) for j in range(n_sites)]
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)


def hamiltonian_and_jumps(n_sites, bonds, Delta, Omega, V, gamma, model):
    """Driven ring Hamiltonian and the jump operators of one dissipation
    model: sqrt(gamma) sigma_k^- (single) or sqrt(gamma) P_k^xi sigma_k^-
    for every excited-neighbour count xi (collective)."""
    n = [embed(_N, k, n_sites) for k in range(n_sites)]
    sm = [embed(_SIGMA_MINUS, k, n_sites) for k in range(n_sites)]
    eye = sp.identity(1 << n_sites, format="csr")
    H = sum((Delta * n[k] + Omega * embed(_SIGMA_X, k, n_sites) for k in range(n_sites)),
            sp.csr_matrix(eye.shape))
    for a, b in bonds:
        H = H + V * (n[a] @ n[b])
    root = np.sqrt(gamma)
    jumps = []
    for k in range(n_sites):
        if model == "single":
            jumps.append(root * sm[k])
            continue
        nbrs = sorted({b for a, b in bonds if a == k} | {a for a, b in bonds if b == k})
        # P_k^xi: product over neighbours of n or (1 - n), summed over the
        # subsets with exactly xi excited neighbours
        for xi in range(len(nbrs) + 1):
            proj = sp.csr_matrix(eye.shape)
            for mask in range(1 << len(nbrs)):
                if bin(mask).count("1") != xi:
                    continue
                term = eye
                for bit, m in enumerate(nbrs):
                    term = term @ (n[m] if mask >> bit & 1 else eye - n[m])
                proj = proj + term
            jumps.append(root * (proj @ sm[k]))
    return H.tocsr(), jumps


def lindbladian(H, jumps) -> sp.csr_matrix:
    """Superoperator acting on column-stacked rho: vec(A rho B) = (B^T x A) vec(rho)."""
    eye = sp.identity(H.shape[0], format="csr")
    L = -1j * (sp.kron(eye, H) - sp.kron(H.T, eye))
    for J in jumps:
        JdJ = (J.conj().T @ J).tocsr()
        L = L + sp.kron(J.conj(), J) - 0.5 * sp.kron(eye, JdJ) - 0.5 * sp.kron(JdJ.T, eye)
    return L.tocsr()


def propagate(L, rho0: np.ndarray, t0: float, t1: float, num: int) -> np.ndarray:
    """Density matrices at num equally spaced times in [t0, t1], shape (num, dim, dim).

    The sampled interval always starts at t = 0: expm_multiply's interval
    form with start > 0 and a large ||L|| t overflowed (scipy 1.17).
    """
    dim = rho0.shape[0]
    v = np.asarray(rho0, dtype=complex).reshape(-1, order="F")
    if t0 > 0.0:
        v = expm_multiply(L * t0, v)
    vs = expm_multiply(L, v, start=0.0, stop=t1 - t0, num=num, endpoint=True)
    return vs.reshape(num, dim, dim).transpose(0, 2, 1)


def mean_excitation(rhos: np.ndarray, n_sites: int) -> np.ndarray:
    """Site-averaged <n_k> for each density matrix in the stack."""
    dim = 1 << n_sites
    counts = np.array([bin(i).count("1") for i in range(dim)], dtype=float)
    return np.einsum("tii,i->t", rhos, counts).real / n_sites


def window_density(n_sites, Delta, Omega, V, gamma, model) -> float:
    """Mean excitation density over the 100 window samples in
    [4.75, 5.00]/gamma, starting from all atoms in the ground state."""
    H, jumps = hamiltonian_and_jumps(n_sites, ring_bonds(n_sites), Delta, Omega, V, gamma, model)
    rho0 = np.zeros((1 << n_sites, 1 << n_sites), dtype=complex)
    rho0[0, 0] = 1.0
    rhos = propagate(lindbladian(H, jumps), rho0, WINDOW[0] / gamma, WINDOW[1] / gamma,
                     WINDOW_POINTS)
    return float(np.mean(mean_excitation(rhos, n_sites)))


# ---------------------------------------------------------------------------
# coherence modes
# ---------------------------------------------------------------------------


def _mode_rates(d, omega_a, V, gamma):
    xi = np.arange(2 * d + 1)
    return 1j * omega_a + gamma / 2.0 + xi * (gamma + 1j * V)


def initial_modes(d: int) -> np.ndarray:
    return np.array([comb(2 * d, xi) for xi in range(2 * d + 1)], dtype=complex) / 2.0 ** (2 * d + 1)


def collective_modes(d, omega_a, V, gamma, t) -> np.ndarray:
    """X_xi(t) = 2^(-2d-1) C(2d, xi) exp(-(i omega_a + gamma/2 + xi (gamma + i V)) t),
    shape (2d+1, len(t))."""
    return initial_modes(d)[:, None] * np.exp(-np.outer(_mode_rates(d, omega_a, V, gamma), t))


def single_modes(d, omega_a, V, gamma, t) -> np.ndarray:
    """ODE solve of the single-atom cascade
    dX_xi/dt = -(i omega_a + gamma/2 + xi (gamma + i V)) X_xi + gamma (xi+1) X_{xi+1}."""
    rates = _mode_rates(d, omega_a, V, gamma)
    feed = gamma * np.arange(1, 2 * d + 1)

    def rhs(_, x):
        out = -rates * x
        out[:-1] += feed * x[1:]
        return out

    t = np.asarray(t, dtype=float)
    sol = solve_ivp(rhs, (0.0, float(t[-1])), initial_modes(d), method="DOP853",
                    t_eval=t, rtol=1e-12, atol=1e-15)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y


# ---------------------------------------------------------------------------
# mean field
# ---------------------------------------------------------------------------


def mf_rhs(n, s_x, s_y, Delta, Omega, V, d=1, gamma=1.0):
    """Collective mean-field flow of (n, s_x, s_y), '+Delta s_x' convention:

    dn/dt   = Omega s_y - gamma n
    ds_x/dt = -Delta s_y - (gamma/2)(4dn + 1) s_x - 2dV n s_y
    ds_y/dt = +Delta s_x - (gamma/2)(4dn + 1) s_y + 2dV n s_x - Omega (4n - 2)
    """
    a = 0.5 * gamma * (4.0 * d * n + 1.0)
    w = 2.0 * d * V
    return (Omega * s_y - gamma * n,
            -Delta * s_y - a * s_x - w * n * s_y,
            Delta * s_x - a * s_y + w * n * s_x - Omega * (4.0 * n - 2.0))


def stationarity_cubic(Delta, Omega, V, d=1, gamma=1.0) -> np.ndarray:
    """Coefficients (p3, p2, p1, p0) of the cubic in n whose roots are the
    fixed points.

    dn/dt = 0 and ds_x/dt = 0 fix s_y and s_x linearly in terms of n; the
    remaining ds_y/dt, times the denominator a(n) Omega / gamma, is a cubic
    in n. It is read off mf_rhs by interpolation at four nodes, which is
    exact for a cubic.
    """
    nodes = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    vals = []
    for n in nodes:
        a = 0.5 * gamma * (4.0 * d * n + 1.0)
        s_y = gamma * n / Omega
        s_x = -(Delta + 2.0 * d * V * n) * s_y / a
        _, _, dsy = mf_rhs(n, s_x, s_y, Delta, Omega, V, d, gamma)
        vals.append(-a * Omega / gamma * dsy)
    return np.polyfit(nodes, vals, 3)


def cusp(V, d=1, gamma=1.0, guess=(-10.0, 3.0)) -> tuple[float, float, float]:
    """(Delta, Omega, n) where the stationarity cubic has a triple root:
    p2^2 = 3 p1 p3 and p1^2 = 3 p0 p2."""

    def eqs(x):
        p3, p2, p1, p0 = stationarity_cubic(x[0], x[1], V, d, gamma)
        return [p2 * p2 / (3.0 * p1 * p3) - 1.0, p1 * p1 / (3.0 * p0 * p2) - 1.0]

    sol, info, ok, msg = fsolve(eqs, guess, full_output=True, xtol=1e-13)
    if ok != 1:
        raise RuntimeError(f"cusp solve failed: {msg}")
    p3, p2, _, _ = stationarity_cubic(sol[0], sol[1], V, d, gamma)
    return float(sol[0]), float(sol[1]), float(-p2 / (3.0 * p3))
