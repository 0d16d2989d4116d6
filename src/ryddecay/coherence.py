"""Analytic coherence dynamics X(t) = sum_xi X_xi(t).

The site-averaged coherence of the initially half-inverted product state
splits into modes labelled by the excited-neighbor count xi. Both dissipation
models evolve the modes linearly:

    collective: dX_xi/dt = -(i omega_a + gamma/2) X_xi - xi (gamma + i V) X_xi
    single:     same plus the cascade feed  + gamma (xi+1) X_{xi+1}

with X_{2d+1} = 0. The collective modes decouple and have a one-line closed
form; the single-atom cascade is upper bidiagonal and is solved exactly by
backward recursion over xi with exponential integrating factors. The module
is parameterized by the half-coordination d only; no lattice is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .lattice import LatticeSpec, neighbor_table
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


def _mode_rates(state: CoherenceState) -> np.ndarray:
    xi = np.arange(2 * state.d + 1)
    return (1j * state.omega_a + state.gamma / 2.0) + xi * (state.gamma + 1j * state.V)


def _single_coefficients(state: CoherenceState) -> tuple[np.ndarray, np.ndarray]:
    """Expansion X_xi(t) = sum_j c[xi, j] exp(-a_j t) of the cascade.

    The denominators a_xi - a_j = (xi - j)(gamma + i V) never vanish for
    gamma > 0, so no confluence occurs there; gamma = 0 switches the feed
    term off entirely and the modes decouple (the limit formula).
    """
    n_modes = 2 * state.d + 1
    a = _mode_rates(state)
    c = np.zeros((n_modes, n_modes), dtype=complex)
    if state.gamma == 0.0:
        np.fill_diagonal(c, state.xi_values)
        return c, a
    lam = state.gamma + 1j * state.V
    c[n_modes - 1, n_modes - 1] = state.xi_values[n_modes - 1]
    for xi in range(n_modes - 2, -1, -1):
        js = np.arange(xi + 1, n_modes)
        c[xi, js] = state.gamma * (xi + 1) * c[xi + 1, js] / ((xi - js) * lam)
        c[xi, xi] = state.xi_values[xi] - np.sum(c[xi, js])
    return c, a


def mode_series(state: CoherenceState, times: np.ndarray) -> np.ndarray:
    """Mode amplitudes on a time grid, shape (2d+1, len(times))."""
    times = np.asarray(times, dtype=float)
    if state.model == COLLECTIVE:
        a = _mode_rates(state)
        return state.xi_values[:, None] * np.exp(-np.outer(a, times))
    c, a = _single_coefficients(state)
    return c @ np.exp(-np.outer(a, times))


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
    table = neighbor_table(lattice)
    coord = {len(nb) for nb in table.neighbors}
    if len(coord) != 1 or (coord.pop() % 2) != 0:
        raise ValueError(
            "translation-invariance violated: non-uniform coordination "
            "(use a periodic lattice)"
        )
    two_d = len(table.neighbors[0])
    n = lattice.site_count

    rho0 = product_density(np.full((2, 2), 0.5), n)
    h = atomic_hamiltonian(lattice, table, params)
    jumps = jump_operators(lattice, table, params, model)
    t_grid = np.asarray(t_grid, dtype=float)
    res = integrate_exact(rho0, h, jumps, float(t_grid.max()), sample_times=t_grid)

    # dense mode operators (1/N) sum_k P_k^xi sigma_k^-
    mode_ops = []
    for xi in range(two_d + 1):
        acc = None
        for k in range(n):
            op = neighborhood_projector(lattice, table, k, xi) @ site_operator(
                lattice, k, "sigma_minus"
            )
            acc = op if acc is None else acc + op
        mode_ops.append(np.asarray(acc.todense()) / n)

    out = np.zeros((two_d + 1, len(t_grid)), dtype=complex)
    for it, rho in enumerate(res.states):
        for xi, op in enumerate(mode_ops):
            out[xi, it] = np.trace(op @ rho)
    return out


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
    table = neighbor_table(lattice)
    d = len(table.neighbors[0]) // 2
    state = initial_coherence(d, params.omega_a, params.V, params.gamma, model)
    analytic = mode_series(state, t_grid)
    return float(np.max(np.abs(exact - analytic)))
