"""Analytic coherence dynamics X(t) = sum_xi X_xi(t).

The site-averaged coherence of the initially half-inverted product state
splits into modes labelled by the excited-neighbor count xi. Both dissipation
models evolve the modes linearly:

    collective: dX_xi/dt = -(i omega_a + gamma/2) X_xi - xi (gamma + i V) X_xi
    single:     same plus the cascade feed  + gamma (xi+1) X_{xi+1}

with X_{2d+1} = 0. One generating-function closed form solves both: each
excited neighbor keeps its excitation with amplitude s(t), and under
single-atom decay only it has decayed with amplitude f(t) (mode_series).
Its terms are bounded by (|s| + |f|)^m, and no large terms cancel as in an
eigen-expansion of the cascade, so it stays accurate for every d whose
initial profile fits in float64. The module is parameterized by the half-coordination d only; no
lattice is involved except in the exact master-equation cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .lattice import LatticeSpec, half_coordination, neighbor_table
from .master_equation import integrate_exact, product_density
from .operators import (
    COLLECTIVE,
    SINGLE,
    ModelParams,
    atomic_hamiltonian,
    check_model,
    jump_operators,
    neighborhood_projector,
    site_operator,
)


@dataclass(frozen=True)
class CoherenceState:
    """Mode amplitudes X_0..X_2d with their evolution parameters."""

    xi_values: np.ndarray
    d: int
    omega_a: float = 0.0
    V: float = 0.0
    gamma: float = 1.0
    model: str = COLLECTIVE

    def __post_init__(self):
        object.__setattr__(self, "xi_values", np.asarray(self.xi_values, dtype=complex))
        if len(self.xi_values) != 2 * self.d + 1:
            raise ValueError(f"expected {2*self.d+1} modes for d={self.d}")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        check_model(self.model)

    @property
    def total(self) -> complex:
        return complex(np.sum(self.xi_values))

    @property
    def abs_total(self) -> float:
        # modulus of the summed complex modes, never a sum of moduli
        return abs(self.total)


def initial_coherence(
    d: int,
    omega_a: float = 0.0,
    V: float = 0.0,
    gamma: float = 1.0,
    model: str = COLLECTIVE,
) -> CoherenceState:
    """Binomial initial profile X_xi(0) = 2^(-2d-1) C(2d, xi) of the
    half-inverted product state."""
    if d < 1:
        raise ValueError("d must be >= 1")
    values = np.array([comb(2 * d, xi) for xi in range(2 * d + 1)], dtype=complex)
    values /= 2.0 ** (2 * d + 1)
    return CoherenceState(values, d, omega_a, V, gamma, model)


def mode_series(state: CoherenceState, times: np.ndarray) -> np.ndarray:
    """Mode amplitudes on a time grid, shape (2d+1, len(times)).

    Each excited neighbor keeps its excitation with amplitude
    s = exp(-(gamma + iV) t). With single-atom decay it has decayed with
    f = gamma (1 - s) / (gamma + iV); collective decay (or gamma = 0) has
    f = 0. Hence sum_xi X_xi(t) z^xi = exp(-(i omega_a + gamma/2) t)
    sum_m X_m(0) (s z + f)^m, expanded here by Horner's rule in m.
    """
    times = np.asarray(times, dtype=float)
    lam = state.gamma + 1j * state.V
    s = np.exp(-lam * times)
    f = state.gamma * (1.0 - s) / lam if state.model == SINGLE and state.gamma else 0.0
    out = np.zeros((2 * state.d + 1, len(times)), dtype=complex)
    # after the step for X_m, out holds the 2d - m + 1 coefficients of
    # sum_{m' >= m} X_m' (s z + f)^(m' - m)
    for k, x_m in enumerate(state.xi_values[::-1]):
        out[1:k + 1] = s * out[:k] + f * out[1:k + 1]
        out[0] = f * out[0] + x_m
    return np.exp(-(1j * state.omega_a + state.gamma / 2.0) * times) * out


def evolve(state: CoherenceState, t: float) -> CoherenceState:
    """The state at time t, from mode_series."""
    return replace(state, xi_values=mode_series(state, [t])[:, 0])


def short_time_coefficients(model: str, d: int, gamma: float, V: float):
    """Taylor coefficients (c0, c1, c2) of |X(t)| around t = 0."""
    check_model(model)
    if model == SINGLE:
        return 0.5, -gamma / 4.0, (gamma**2 - 2 * d * V**2) / 16.0
    c1 = -(2 * d + 1) * gamma / 4.0
    c2 = (((2 * d + 1) ** 2 + 2 * d) * gamma**2 - 2 * d * V**2) / 16.0
    return 0.5, c1, c2


def exact_mode_series(
    lattice: LatticeSpec,
    params: ModelParams,
    model: str,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Neighborhood-resolved coherences from the full master equation.

    Evolves the half-inverted product state under the undriven Hamiltonian
    with the requested dissipator and returns
    X_xi(t) = (1/N) sum_k <P_k^xi sigma_k^->, shape (2d+1, len(t_grid)).
    t_grid must be equally spaced (integrate_exact).
    """
    check_model(model)
    if params.Omega != 0.0:
        raise ValueError("coherence cross-check requires Omega = 0")
    d = half_coordination(lattice)
    table = neighbor_table(lattice)
    n = lattice.site_count

    rho0 = product_density(np.full((2, 2), 0.5), n)
    h = atomic_hamiltonian(lattice, table, params)
    jumps = jump_operators(lattice, table, params, model)
    t_grid = np.asarray(t_grid, dtype=float)
    res = integrate_exact(rho0, h, jumps, float(t_grid.max()), sample_times=t_grid)

    # dense mode operators (1/N) sum_k P_k^xi sigma_k^-, contracted with
    # every snapshot at once: X_xi(t) = tr(op_xi rho(t))
    mode_ops = np.stack([
        sum(neighborhood_projector(lattice, table, k, xi)
            @ site_operator(lattice, k, "sigma_minus") for k in range(n)).toarray()
        for xi in range(2 * d + 1)
    ]) / n
    return np.einsum("xij,tji->xt", mode_ops, np.asarray(res.states))


def verify_against_master_equation(
    lattice: LatticeSpec,
    params: ModelParams,
    model: str,
    t_grid: np.ndarray,
) -> float:
    """Max absolute deviation between exact_mode_series and the analytic
    mode solutions over the grid and all modes."""
    t_grid = np.asarray(t_grid, dtype=float)
    exact = exact_mode_series(lattice, params, model, t_grid)
    state = initial_coherence(half_coordination(lattice), params.omega_a, params.V,
                              params.gamma, model)
    analytic = mode_series(state, t_grid)
    return float(np.max(np.abs(exact - analytic)))
