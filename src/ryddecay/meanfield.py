"""Mean-field equations for the driven lattice, fixed points, bistability.

Closed three-variable system for the homogeneous observables
(n, s_x, s_y) = (<n_k>, <sigma_x^k>, <sigma_y^k>):

    dn/dt   = Omega s_y - gamma n
    ds_x/dt = -Delta s_y - (gamma/2)(4 d n + 1) s_x - 2 d V n s_y
    ds_y/dt = +/-Delta s_x - (gamma/2)(4 d n + 1) s_y + 2 d V n s_x
              - Omega (4 n - 2)

The sign of the Delta term in ds_y/dt is ambiguous in its source; the
product-state oracle (mf_oracle_check) fixes it to '+' empirically, which is
the default convention 'oracle_verified'. 'as_printed' keeps '-' for literal
reproduction. The collective dissipator produces the (4 d n + 1) factor; the
single-atom dissipator reduces it to 1 (select with model='single').

Fixed points: find_fixed_points runs damped-free Newton from a 10x10x10 seed
grid (the documented per-cell contract). scan_phase_diagram instead
eliminates s_x, s_y linearly, reducing stationarity to a cubic in n, and
polishes the roots with the same Newton rule; this is what makes a 201x201
scan cheap. Both routes share classification and deduplication and are
cross-checked in tests.

The bistable lobe ends at a cusp, where that cubic has a triple root n0.
refine_critical_point solves for it in closed form: the triple-root
conditions leave one polynomial of degree 6 in n0, and each of its real
roots in (0, 1] gives a cusp (Delta, Omega).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeSpec, neighbor_table
from .master_equation import lindblad_rhs, product_density
from .operators import (
    COLLECTIVE,
    ModelParams,
    check_model,
    driven_hamiltonian,
    jump_operators,
    site_operator,
)

AS_PRINTED = "as_printed"
ORACLE_VERIFIED = "oracle_verified"
SIGN_CONVENTIONS = (AS_PRINTED, ORACLE_VERIFIED)

NEWTON_RESIDUAL = 1e-12
DEDUP_TOL = 1e-6
STABLE_EIG_TOL = -1e-9
BOUNDS_SLACK = 1e-6


@dataclass(frozen=True)
class MeanFieldParams:
    Delta: float
    Omega: float
    gamma: float = 1.0
    d: int = 1
    V: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.d < 1:
            raise ValueError("d must be >= 1")


@dataclass(frozen=True)
class MeanFieldState:
    n: float
    s_x: float
    s_y: float

    def as_array(self) -> np.ndarray:
        return np.array([self.n, self.s_x, self.s_y])

    def bounds_violation(self) -> float:
        """Soft physical-box diagnostic: how far outside n in [0,1],
        s_x, s_y in [-1,1] the state sits (0 when inside)."""
        over = max(0.0, -self.n, self.n - 1.0)
        over = max(over, abs(self.s_x) - 1.0, abs(self.s_y) - 1.0)
        return max(0.0, over)


@dataclass(frozen=True)
class FixedPoint:
    state: MeanFieldState
    jacobian_eigen_real_parts: tuple[float, float, float]
    stable: bool

    @property
    def physical(self) -> bool:
        return self.state.bounds_violation() <= BOUNDS_SLACK


@dataclass
class PhaseDiagramCell:
    Delta: float
    Omega: float
    fixed_points: list[FixedPoint]
    stable_count: int
    diagnostics: list[str] = field(default_factory=list)


def _sigma(sign_convention: str) -> float:
    if sign_convention not in SIGN_CONVENTIONS:
        raise ValueError(f"sign_convention must be one of {SIGN_CONVENTIONS}")
    return 1.0 if sign_convention == ORACLE_VERIFIED else -1.0


def _factor_u(params: MeanFieldParams, model: str) -> float:
    # collective dissipation gives the 4 d n + 1 factor; single-atom gives 1
    check_model(model)
    return 4.0 * params.d if model == COLLECTIVE else 0.0


def _rhs_raw(n, s_x, s_y, Delta, Omega, gamma, w, u, sigma):
    a = 0.5 * gamma * (u * n + 1.0)
    dn = Omega * s_y - gamma * n
    dsx = -Delta * s_y - a * s_x - w * n * s_y
    dsy = sigma * Delta * s_x - a * s_y + w * n * s_x - Omega * (4.0 * n - 2.0)
    return dn, dsx, dsy


def mf_rhs(
    state,
    params: MeanFieldParams,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
) -> np.ndarray:
    """Time derivative of (n, s_x, s_y). Accepts a MeanFieldState, a triple,
    or an (..., 3) array (broadcast over leading axes)."""
    sigma = _sigma(sign_convention)
    u = _factor_u(params, model)
    w = 2.0 * params.d * params.V
    arr = state.as_array() if isinstance(state, MeanFieldState) else np.asarray(state, float)
    n, s_x, s_y = arr[..., 0], arr[..., 1], arr[..., 2]
    dn, dsx, dsy = _rhs_raw(n, s_x, s_y, params.Delta, params.Omega, params.gamma, w, u, sigma)
    return np.stack([dn, dsx, dsy], axis=-1)


def mf_jacobian(
    state,
    params: MeanFieldParams,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
) -> np.ndarray:
    """Jacobian of mf_rhs, shape (..., 3, 3)."""
    sigma = _sigma(sign_convention)
    u = _factor_u(params, model)
    w = 2.0 * params.d * params.V
    g = params.gamma
    arr = state.as_array() if isinstance(state, MeanFieldState) else np.asarray(state, float)
    n, s_x, s_y = arr[..., 0], arr[..., 1], arr[..., 2]
    z = np.zeros_like(n)
    a = 0.5 * g * (u * n + 1.0)
    row0 = np.stack([-g + z, z, params.Omega + z], axis=-1)
    row1 = np.stack([-0.5 * g * u * s_x - w * s_y, -a, -params.Delta - w * n], axis=-1)
    row2 = np.stack(
        [-0.5 * g * u * s_y + w * s_x - 4.0 * params.Omega + z, sigma * params.Delta + w * n, -a],
        axis=-1,
    )
    return np.stack([row0, row1, row2], axis=-2)


def _classify(states: np.ndarray, params, sign_convention, model) -> list[FixedPoint]:
    out = []
    for s in np.atleast_2d(states):
        jac = mf_jacobian(s, params, sign_convention, model)
        reals = tuple(sorted(np.real(np.linalg.eigvals(jac))))
        stable = all(r < STABLE_EIG_TOL for r in reals)
        out.append(FixedPoint(MeanFieldState(*(float(x) for x in s)), reals, stable))
    return out


def _dedup(states: np.ndarray) -> np.ndarray:
    kept: list[np.ndarray] = []
    for s in states:
        if not any(np.max(np.abs(s - k)) < DEDUP_TOL for k in kept):
            kept.append(s)
    if not kept:
        return np.zeros((0, 3))
    return np.array(sorted(kept, key=lambda x: (x[0], x[1], x[2])))


def _newton_polish(states, params, sign_convention, model, iters=60):
    """Vectorized Newton on a batch of candidate states; returns converged
    roots (residual < 1e-12)."""
    x = np.atleast_2d(np.asarray(states, float)).copy()
    for _ in range(iters):
        f = mf_rhs(x, params, sign_convention, model)
        if np.max(np.abs(f)) < NEWTON_RESIDUAL * 0.1:
            break
        jac = mf_jacobian(x, params, sign_convention, model)
        dets = np.linalg.det(jac)
        ok = np.abs(dets) > 1e-14
        step = np.zeros_like(x)
        if np.any(ok):
            step[ok] = np.linalg.solve(jac[ok], f[ok][..., None])[..., 0]
        x = x - step
        bad = ~np.isfinite(x).all(axis=-1)
        x[bad] = 0.0  # runaway seeds restart at the origin
    res = np.max(np.abs(mf_rhs(x, params, sign_convention, model)), axis=-1)
    return x[res < NEWTON_RESIDUAL]


def find_fixed_points(
    params: MeanFieldParams,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
) -> list[FixedPoint]:
    """All fixed points found by Newton from a 10x10x10 seed grid over the
    physical box, deduplicated and classified by Jacobian eigenvalues."""
    ns = np.linspace(0.0, 1.0, 10)
    ss = np.linspace(-1.0, 1.0, 10)
    grid = np.stack(np.meshgrid(ns, ss, ss, indexing="ij"), axis=-1).reshape(-1, 3)
    roots = _newton_polish(grid, params, sign_convention, model)
    roots = _dedup(roots)
    return _classify(roots, params, sign_convention, model)


def _cubic_coefficients(D, omega2, g, w, u, sigma):
    """(p3, p2, p1, p0) of the stationarity cubic in n; D and omega2 =
    Omega^2 may be numpy Polynomials (the cusp search passes them)."""
    p3 = w * w + 0.25 * g * g * u * u
    p2 = (1.0 + sigma) * D * w + 0.5 * g * g * u + 2.0 * omega2 * u
    p1 = sigma * D * D + 0.25 * g * g + 2.0 * omega2 - omega2 * u
    return p3, p2, p1, -omega2


def _cubic_candidates(params: MeanFieldParams, sign_convention: str, model: str) -> np.ndarray:
    """Stationary states via elimination: s_y = gamma n / Omega and
    s_x = -(Delta + 2dVn) s_y / a turn stationarity into a cubic in n."""
    sigma = _sigma(sign_convention)
    u = _factor_u(params, model)
    w = 2.0 * params.d * params.V
    g, D, O = params.gamma, params.Delta, params.Omega
    if O == 0.0:
        return np.array([[0.0, 0.0, 0.0]])
    roots = np.roots(_cubic_coefficients(D, O * O, g, w, u, sigma))
    scale = 1.0 + np.max(np.abs(roots)) if len(roots) else 1.0
    nvals = np.real(roots[np.abs(np.imag(roots)) < 1e-9 * scale])
    out = []
    for n in nvals:
        a = 0.5 * g * (u * n + 1.0)
        if abs(a) < 1e-12:
            continue
        s_y = g * n / O
        s_x = -(D + w * n) * s_y / a
        out.append([n, s_x, s_y])
    return np.asarray(out) if out else np.zeros((0, 3))


def fixed_points_cubic(
    params: MeanFieldParams,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
) -> list[FixedPoint]:
    """Fixed points via the cubic resolvent, Newton-polished to the same
    residual as find_fixed_points."""
    cand = _cubic_candidates(params, sign_convention, model)
    if len(cand) == 0:
        return []
    roots = _dedup(_newton_polish(cand, params, sign_convention, model, iters=30))
    return _classify(roots, params, sign_convention, model)


def scan_phase_diagram(
    delta_grid: np.ndarray,
    omega_grid: np.ndarray,
    params: MeanFieldParams,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
) -> list[PhaseDiagramCell]:
    """Per-cell fixed-point analysis over the (Delta, Omega) grid.

    stable_count counts stable fixed points inside the physical box
    (soft slack 1e-6); out-of-box roots stay in the list and are flagged in
    the cell diagnostics.
    """
    delta_grid = np.asarray(delta_grid, float)
    omega_grid = np.asarray(omega_grid, float)
    if delta_grid.size == 0 or omega_grid.size == 0:
        raise ValueError("grids must be non-empty")
    cells = []
    for D in delta_grid:
        for O in omega_grid:
            p = MeanFieldParams(float(D), float(O), params.gamma, params.d, params.V)
            diagnostics: list[str] = []
            try:
                fps = fixed_points_cubic(p, sign_convention, model)
            except Exception as exc:  # record and continue, per contract
                cells.append(PhaseDiagramCell(float(D), float(O), [], 0, [f"error: {exc}"]))
                continue
            stable_count = sum(1 for f in fps if f.stable and f.physical)
            for f in fps:
                if not f.physical:
                    diagnostics.append(
                        f"fixed point outside physical box: n={f.state.n:.6f}"
                    )
            if stable_count not in (1, 2):
                diagnostics.append(f"stable_count={stable_count} outside expected range")
            cells.append(PhaseDiagramCell(float(D), float(O), fps, stable_count, diagnostics))
    return cells


def stable_count_map(cells: list[PhaseDiagramCell], n_delta: int, n_omega: int) -> np.ndarray:
    return np.array([c.stable_count for c in cells]).reshape(n_delta, n_omega)


def refine_critical_point(
    params: MeanFieldParams,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
    delta_range: tuple[float, float] = (-30.0, 0.0),
    omega_range: tuple[float, float] = (2.5, 10.0),
) -> tuple[float, float]:
    """Cusp (Delta, Omega) where the two-stable-states region terminates.

    There the stationarity cubic is p3 (n - n0)^3: matching p0 gives
    Omega^2 = p3 n0^3, matching p2 fixes Delta linearly in n0, and matching
    p1 leaves a degree-6 polynomial in n0. Of the cusps its real roots in
    (0, 1] give, those in delta_range x (omega_range[0], omega_range[1]]
    are kept and the one with the largest Omega, the upper end of the
    bistable lobe, is returned. Raises ValueError when none is kept, as for
    as_printed or V = 0, where the triple root sits at n0 <= 0.
    """
    sigma = _sigma(sign_convention)
    u = _factor_u(params, model)
    w = 2.0 * params.d * params.V
    g = params.gamma
    found = []
    if (1.0 + sigma) * w != 0.0:
        n0 = np.polynomial.Polynomial([0.0, 1.0])
        p3 = _cubic_coefficients(0.0, 0.0, g, w, u, sigma)[0]
        omega2 = p3 * n0**3
        # p2 = (1 + sigma) w Delta + (its value at Delta = 0) = -3 p3 n0
        p2_at_zero = _cubic_coefficients(0.0, omega2, g, w, u, sigma)[1]
        delta = -(p2_at_zero + 3.0 * p3 * n0) / ((1.0 + sigma) * w)
        p1 = _cubic_coefficients(delta, omega2, g, w, u, sigma)[2]
        for root in (p1 - 3.0 * p3 * n0**2).roots():
            n = float(np.real(root))
            if abs(np.imag(root)) < 1e-9 and 0.0 < n <= 1.0:
                found.append((float(delta(n)), float(np.sqrt(omega2(n)))))
    (d_lo, d_hi), (o_lo, o_hi) = delta_range, omega_range
    inside = [(D, O) for D, O in found if d_lo <= D <= d_hi and o_lo < O <= o_hi]
    if not inside:
        raise ValueError(
            f"no mean-field cusp with Delta in [{d_lo}, {d_hi}] and Omega in ({o_lo}, {o_hi}]"
        )
    return max(inside, key=lambda point: point[1])


def integrate_mf(
    state0,
    params: MeanFieldParams,
    t_final: float,
    dt: float = 1e-3,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
    sample_times=None,
):
    """RK4 integration of the mean-field flow.

    Returns (times, states) with states of shape (len(times), 3). Aborts
    with a diagnostic if the state norm exceeds 10 (divergence guard).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = state0.as_array() if isinstance(state0, MeanFieldState) else np.asarray(state0, float)
    x = x.astype(float).copy()
    if sample_times is None:
        sample_times = np.linspace(0.0, t_final, 201)
    sample_times = np.asarray(sample_times, float)
    out = np.zeros((len(sample_times), 3))
    t = 0.0
    ptr = 0

    def rhs(v):
        return mf_rhs(v, params, sign_convention, model)

    if ptr < len(sample_times) and sample_times[ptr] <= 1e-15:
        out[ptr] = x
        ptr += 1
    for target in sample_times[ptr:]:
        while t < target - 1e-15:
            h = min(dt, target - t)
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h * k2)
            k4 = rhs(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            if np.max(np.abs(x)) > 10.0:
                raise RuntimeError(f"mean-field flow diverged at t={t:.3f}: {x}")
        t = target
        out[ptr] = x
        ptr += 1
    return sample_times, out


def mf_oracle_check(
    lattice: LatticeSpec,
    params: ModelParams,
    state: MeanFieldState,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
) -> np.ndarray:
    """Exactness check of the mean-field equations at a product state.

    For a homogeneous product state the factorization behind the mean-field
    closure is exact, so d/dt of (<n>, <sigma_x>, <sigma_y>) computed from
    the full Lindbladian must match mf_rhs. Returns the three absolute
    deviations; s_z carries no freedom, it is pinned to 2n - 1 by the qubit
    identity.
    """
    table = neighbor_table(lattice)
    coord = {len(nb) for nb in table.neighbors}
    if len(coord) != 1:
        raise ValueError("translation-invariance violated: non-uniform coordination")
    two_d = coord.pop()
    if two_d % 2 != 0:
        raise ValueError("odd coordination cannot map to a half-coordination d")
    d = two_d // 2
    n_sites = lattice.site_count

    s_z = 2.0 * state.n - 1.0
    bloch2 = state.s_x**2 + state.s_y**2 + s_z**2
    if bloch2 > 1.0 + 1e-12:
        raise ValueError(f"unphysical single-site state, |bloch|^2 = {bloch2:.6f}")
    eye = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, 1j], [-1j, 0]], dtype=complex)  # basis order (down, up)
    sz = np.array([[-1, 0], [0, 1]], dtype=complex)
    rho1 = 0.5 * (eye + state.s_x * sx + state.s_y * sy + s_z * sz)
    rho = product_density(rho1, n_sites)

    h = driven_hamiltonian(lattice, table, params)
    jumps = jump_operators(lattice, table, params, model)
    drho = lindblad_rhs(rho, h, jumps)

    devs = []
    mf = mf_rhs(
        state,
        MeanFieldParams(params.Delta, params.Omega, params.gamma, d, params.V),
        sign_convention,
        model,
    )
    for i, which in enumerate(("number", "sigma_x", "sigma_y")):
        acc = None
        for k in range(n_sites):
            op = site_operator(lattice, k, which)
            acc = op if acc is None else acc + op
        exact = np.trace(acc.toarray() @ drho).real / n_sites
        devs.append(abs(exact - mf[i]))
    return np.array(devs)
