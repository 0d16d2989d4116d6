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

Fixed points: scan_phase_diagram eliminates s_x, s_y linearly, which reduces
stationarity to a cubic in n per (Delta, Omega) cell, and treats the whole
grid in one array pass: batched companion-matrix roots, one vectorised
Newton polish, deduplication and Jacobian classification as masks.
find_fixed_points is its independent oracle: Newton from a 10x10x10 seed
grid over the physical box, through the same polish, deduplication and
classification, with no use of the cubic. The two are cross-checked in tests.

The bistable lobe ends at a cusp, where that cubic has a triple root n0.
refine_critical_point solves for it in closed form: the triple-root
conditions leave one polynomial of degree 6 in n0, and each of its real
roots in (0, 1] gives a cusp (Delta, Omega).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeSpec, half_coordination, neighbor_table
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
# eigenvalues of a 3x3 Jacobian J carry absolute errors of a few eps ||J||
EIG_ROUNDING = 100 * np.finfo(float).eps
TOO_LARGE = "Delta, Omega or V too large"


@dataclass(frozen=True)
class MeanFieldParams:
    """Delta and Omega may be per-cell arrays, as in the whole-grid scan."""

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


def _box_violation(states) -> np.ndarray:
    """How far (n, s_x, s_y) on the last axis sit outside [0, 1] x [-1, 1]^2."""
    n, s_x, s_y = states[..., 0], states[..., 1], states[..., 2]
    return np.maximum.reduce([np.zeros_like(n), -n, n - 1.0, np.abs(s_x) - 1.0, np.abs(s_y) - 1.0])


@dataclass(frozen=True)
class MeanFieldState:
    n: float
    s_x: float
    s_y: float

    def as_array(self) -> np.ndarray:
        return np.array([self.n, self.s_x, self.s_y])


@dataclass(frozen=True)
class FixedPoint:
    state: MeanFieldState
    stable: bool
    physical: bool


@dataclass(frozen=True)
class PhaseDiagram:
    """Fixed points per cell, with leading axes (n_delta, n_omega) for a scan.

    states (..., K, 3) holds each cell's distinct roots (n, s_x, s_y) first,
    sorted by n, then s_x, s_y, and NaN in the unused slots. stable marks
    the roots whose Jacobian eigenvalues all have real part below
    STABLE_EIG_TOL; physical those inside the box (slack BOUNDS_SLACK).
    """

    states: np.ndarray
    stable: np.ndarray
    physical: np.ndarray

    @property
    def stable_count(self) -> np.ndarray:
        """Stable fixed points inside the physical box, per cell."""
        return np.sum(self.stable & self.physical, axis=-1)


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


# an overflow in the polish shows as a non-finite residual, rejected below
@np.errstate(over="ignore", invalid="ignore")
def _solve(candidates, valid, params, sign_convention, model, iters) -> PhaseDiagram:
    """Newton-polish, deduplicate and classify the candidates (..., K, 3) of
    each cell; params.Delta and params.Omega broadcast to the cells' shape
    plus a trailing 1. The back end of both fixed-point routes.

    A cell stops once its largest residual among valid candidates is below
    NEWTON_RESIDUAL / 10, and keeps the candidates below NEWTON_RESIDUAL.
    Duplicates (within DEDUP_TOL) are dropped greedily in candidate order.
    """
    shape, k = candidates.shape[:-2], candidates.shape[-2]
    valid = valid.reshape(-1, k)
    x = np.where(valid[..., None], candidates.reshape(-1, k, 3), 0.0)
    delta, omega = (np.broadcast_to(v, shape + (1,)).reshape(-1, 1)
                    for v in (params.Delta, params.Omega))
    cells = replace(params, Delta=delta, Omega=omega)

    def rows(idx):
        return replace(cells, Delta=cells.Delta[idx], Omega=cells.Omega[idx])

    active = np.arange(len(x))
    for _ in range(iters):
        f = mf_rhs(x[active], rows(active), sign_convention, model)
        worst = np.max(np.where(valid[active], np.max(np.abs(f), axis=-1), 0.0), axis=-1)
        moving = ~(worst < NEWTON_RESIDUAL * 0.1)
        if not moving.any():
            break
        active, f = active[moving], f[moving]
        xa = x[active]
        jac = mf_jacobian(xa, rows(active), sign_convention, model)
        ok = valid[active] & (np.abs(np.linalg.det(jac)) > 1e-14)
        step = np.zeros_like(xa)
        if ok.any():
            step[ok] = np.linalg.solve(jac[ok], f[ok][..., None])[..., 0]
        xa = xa - step
        xa[~np.isfinite(xa).all(axis=-1)] = 0.0  # runaway candidates restart at the origin
        x[active] = xa
    residual = np.max(np.abs(mf_rhs(x, cells, sign_convention, model)), axis=-1)
    if not np.isfinite(residual[valid]).all():
        raise ValueError(f"{TOO_LARGE}: a fixed-point candidate's residual overflows float64")
    kept = valid & (residual < NEWTON_RESIDUAL)

    for j in range(1, k):
        near = np.max(np.abs(x[:, :j] - x[:, j:j + 1]), axis=-1) < DEDUP_TOL
        kept[:, j] &= ~np.any(kept[:, :j] & near, axis=-1)

    stable = np.zeros_like(kept)
    jac = mf_jacobian(x, cells, sign_convention, model)[kept]
    eig = np.linalg.eigvals(jac)
    if np.any(np.abs(eig.real - STABLE_EIG_TOL)
              <= EIG_ROUNDING * np.linalg.norm(jac, axis=(-2, -1))[:, None]):
        raise ValueError(f"{TOO_LARGE}: float64 cannot resolve a fixed point's stability")
    stable[kept] = np.all(eig.real < STABLE_EIG_TOL, axis=-1)
    physical = kept & (_box_violation(x) <= BOUNDS_SLACK)

    order = np.lexsort((x[..., 2], x[..., 1], x[..., 0], ~kept), axis=-1)
    x = np.where(kept[..., None], x, np.nan)
    return PhaseDiagram(
        np.take_along_axis(x, order[..., None], axis=1).reshape(shape + (k, 3)),
        np.take_along_axis(stable, order, axis=1).reshape(shape + (k,)),
        np.take_along_axis(physical, order, axis=1).reshape(shape + (k,)),
    )


def find_fixed_points(
    params: MeanFieldParams,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
) -> list[FixedPoint]:
    """All fixed points found by Newton from a 10x10x10 seed grid over the
    physical box, sorted by n. Public as the independent oracle of
    scan_phase_diagram: it never uses the stationarity cubic."""
    ns = np.linspace(0.0, 1.0, 10)
    ss = np.linspace(-1.0, 1.0, 10)
    grid = np.stack(np.meshgrid(ns, ss, ss, indexing="ij"), axis=-1).reshape(-1, 3)
    fp = _solve(grid, np.ones(len(grid), bool), params, sign_convention, model, iters=60)
    found = ~np.isnan(fp.states[:, 0])
    return [
        FixedPoint(MeanFieldState(*(float(v) for v in s)), bool(st), bool(ph))
        for s, st, ph in zip(fp.states[found], fp.stable[found], fp.physical[found])
    ]


def _cubic_coefficients(D, omega2, g, w, u, sigma):
    """(p3, p2, p1, p0) of the stationarity cubic in n; D and omega2 =
    Omega^2 may be arrays or numpy Polynomials (the cusp search passes them)."""
    p3 = w * w + 0.25 * g * g * u * u
    p2 = (1.0 + sigma) * D * w + 0.5 * g * g * u + 2.0 * omega2 * u
    p1 = sigma * D * D + 0.25 * g * g + 2.0 * omega2 - omega2 * u
    return p3, p2, p1, -omega2


def _real_roots(p3, p2, p1, p0) -> tuple[np.ndarray, np.ndarray]:
    """Real roots of p3 n^3 + p2 n^2 + p1 n + p0 per cell (scalar p3), found
    as np.roots finds them: eigenvalues of the companion matrix, dropping
    those with |imag| >= 1e-9 (1 + max |root|). p3 = 0 (V = 0 with
    single-atom decay) makes p2 = 0 too, leaving the root -p0 / p1 where
    p1 != 0. Returns the roots (..., 3 or 1) and the mask of the real ones."""
    if p3 == 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            return (-p0 / p1)[..., None], (p1 != 0.0)[..., None]
    companion = np.zeros(p0.shape + (3, 3))
    companion[..., 0, :] = np.stack([-p2, -p1, -p0], axis=-1) / p3
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    r = np.linalg.eigvals(companion)
    scale = 1.0 + np.max(np.abs(r), axis=-1, keepdims=True)
    return r.real, np.abs(r.imag) < 1e-9 * scale


def scan_phase_diagram(
    delta_grid: np.ndarray,
    omega_grid: np.ndarray,
    params: MeanFieldParams,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
) -> PhaseDiagram:
    """Fixed points of every cell of the (Delta, Omega) grid, in one array pass.

    Stationarity gives s_y = gamma n / Omega and s_x = -(Delta + 2dVn) s_y / a,
    with a = (gamma/2)(u n + 1), and leaves a cubic in n. Its real roots are
    the candidates of a driven cell; an undriven cell has the vacuum as its
    one candidate. All are polished by Newton and classified (see _solve).
    Returns a PhaseDiagram of shape (len(delta_grid), len(omega_grid)).
    """
    delta_grid = np.asarray(delta_grid, float)
    omega_grid = np.asarray(omega_grid, float)
    if delta_grid.size == 0 or omega_grid.size == 0:
        raise ValueError("grids must be non-empty")
    if not np.isfinite(np.concatenate([delta_grid, omega_grid, [params.gamma, params.V]])).all():
        raise ValueError("grid values, gamma and V must be finite")
    sigma = _sigma(sign_convention)
    u = _factor_u(params, model)
    w = 2.0 * params.d * params.V
    g = params.gamma
    with np.errstate(over="ignore", invalid="ignore"):
        p3, *rest = _cubic_coefficients(delta_grid[:, None], omega_grid[None, :] ** 2,
                                        g, w, u, sigma)
    if not all(np.isfinite(c).all() for c in (p3, *rest)):
        raise ValueError(f"{TOO_LARGE}: the stationarity cubic's coefficients overflow float64")
    n, valid = _real_roots(p3, *np.broadcast_arrays(*rest))
    D, O = delta_grid[:, None, None], omega_grid[None, :, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = 0.5 * g * (u * n + 1.0)
        s_y = g * n / O
        s_x = -(D + w * n) * s_y / a
    driven = O != 0.0
    candidates = np.where(driven[..., None], np.stack([n, s_x, s_y], axis=-1), 0.0)
    valid = np.where(driven, valid & (np.abs(a) >= 1e-12), np.arange(n.shape[-1]) == 0)
    if not np.isfinite(candidates[valid]).all():
        raise ValueError(f"{TOO_LARGE}: a fixed-point candidate overflows float64")
    pd = _solve(candidates, valid, replace(params, Delta=D, Omega=O),
                sign_convention, model, iters=30)
    # a root outside the box may miss NEWTON_RESIDUAL by rounding alone
    inside = valid & (_box_violation(candidates) <= BOUNDS_SLACK)
    if np.any(inside.any(axis=-1) & np.isnan(pd.states[..., 0, 0])):
        raise ValueError(f"{TOO_LARGE}: no fixed-point candidate of a cell gets its "
                         f"residual below {NEWTON_RESIDUAL:g} in float64")
    return pd


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
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
    sample_times=None,
):
    """Mean-field flow from state0 by scipy's DOP853 (rtol 1e-11, atol 1e-13).

    Returns (times, states) with states of shape (len(times), 3); the times
    default to 201 points on [0, t_final]. Aborts with a diagnostic once
    max |x| reaches 10 (divergence guard).
    """
    from scipy.integrate import solve_ivp  # not loaded by `import ryddecay.cli`

    x0 = state0.as_array() if isinstance(state0, MeanFieldState) else np.asarray(state0, float)
    if sample_times is None:
        sample_times = np.linspace(0.0, t_final, 201)
    sample_times = np.asarray(sample_times, float)

    def diverged(t, x):
        return np.max(np.abs(x)) - 10.0

    diverged.terminal = True
    sol = solve_ivp(
        lambda t, x: mf_rhs(x, params, sign_convention, model), (0.0, t_final), x0,
        method="DOP853", t_eval=sample_times, events=diverged, rtol=1e-11, atol=1e-13,
    )
    if sol.status == 1:
        raise RuntimeError(
            f"mean-field flow diverged at t={sol.t_events[0][0]:.3f}: {sol.y_events[0][0]}"
        )
    if not sol.success:
        raise RuntimeError(f"mean-field flow failed: {sol.message}")
    return sample_times, sol.y.T


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
    d = half_coordination(lattice)
    table = neighbor_table(lattice)
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
        acc = sum(site_operator(lattice, k, which) for k in range(n_sites))
        exact = np.trace(acc.toarray() @ drho).real / n_sites
        devs.append(abs(exact - mf[i]))
    return np.array(devs)
