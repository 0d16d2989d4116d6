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

The cross-check (exact_mode_series) propagates the Lindblad equation of a
ring in the operator subspace invariant under its rotations and reflections
(master_equation.symmetry_orbits): the half-inverted product state, the
undriven Hamiltonian, both dissipators and the site-averaged mode operators
are all invariant. Its generator, start state and mode rows are assembled
from the orbit representatives, so no 4^N-dimensional object is built, and
it shares the steady-state scan's propagation core,
master_equation.propagate_reduced. The mode rows label each decay by
operators.excited_neighbours, the count that also resolves the collective
jump operators; the full-space integrate_exact is its oracle in the tests.
The closed form needs numpy alone; only the cross-check loads scipy.sparse,
on its first call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .lattice import LatticeSpec, half_coordination, neighbor_table
from .master_equation import (
    Orbits,
    PropagationStats,
    propagate_reduced,
    reduced_detuning,
    reduced_liouvillian,
    symmetry_orbits,
)
from .operators import COLLECTIVE, SINGLE, ModelParams, check_model, excited_neighbours


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
    stats: PropagationStats | None = None,
) -> np.ndarray:
    """Neighborhood-resolved coherences from the full master equation.

    Evolves the half-inverted product state under the undriven Hamiltonian
    with the requested dissipator and returns
    X_xi(t) = (1/N) sum_k <P_k^xi sigma_k^->, shape (2d+1, len(t_grid)).
    rho(t) = B v(t) is propagated in the symmetric basis B, and each mode is
    one complex row vec(op_xi^T) B applied to v(t), assembled from the orbit
    representatives (_mode_rows). t_grid must be a
    strictly increasing, equally spaced grid from t >= 0 (ValueError
    otherwise). The route, cond(R), gap and drifts of the propagation are
    recorded in stats when given.
    """
    check_model(model)
    if params.Omega != 0.0:
        raise ValueError("coherence cross-check requires Omega = 0")
    orbits = symmetry_orbits(lattice)  # refuses N > MAX_SITES before any N-site table
    d = half_coordination(lattice)
    gen = (reduced_liouvillian(orbits, lattice, params, model)
           + params.omega_a * reduced_detuning(orbits))
    # the half-inverted product state has every entry 2^-N
    v0 = orbits.coords(np.full(orbits.dim, 0.5 ** lattice.site_count))
    states = propagate_reduced(gen, v0, np.asarray(t_grid, dtype=float), orbits,
                               PropagationStats() if stats is None else stats)
    return _mode_rows(orbits, lattice, d) @ states


def _mode_rows(orbits: Orbits, lattice: LatticeSpec, d: int) -> np.ndarray:
    """The rows r_xi with X_xi(t) = r_xi . v(t), shape (2d+1, dim), of the
    mode operators op_xi = (1/N) sum_k P_k^xi sigma_k^-. They are invariant,
    and op_xi[j, i] = 1/N where i is j with one more site k excited, k
    having xi excited neighbours in j."""
    bits_i, bits_j = orbits.pair_bits()
    raised = bits_i - bits_j
    one_up = (raised >= 0).all(axis=1) & (raised.sum(axis=1) == 1)
    site = raised.argmax(axis=1)
    xi = excited_neighbours(bits_j, neighbor_table(lattice))[np.arange(orbits.dim), site]
    return np.stack([orbits.row(one_up & (xi == x)) for x in range(2 * d + 1)]) / lattice.site_count


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
