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
grid in one array pass: the cubic's roots in closed form, one vectorised
Newton polish, deduplication, and stability from the Jacobian's
characteristic cubic by the same closed form (_cubic_roots), all as masks.
np.linalg.eigvals (about 3 us per 3 x 3 matrix) is kept for the rows with a
near-repeated root, which no closed form resolves to full accuracy.
find_fixed_points is its independent oracle: Newton from a 10x10x10 seed
grid over the physical box, through the same polish, deduplication and
classification, with no use of the cubic. The two are cross-checked in tests.
Every term of the flow is linear in one of Delta, Omega, gamma and 2dV, so
both routes first divide them by the flow's largest rate s (_scaled): the
fixed points and their stability do not change, and every tolerance is
relative to s or gamma. The one size limit is s <= SPAN_LIMIT gamma.

The bistable lobe ends at a cusp, where that cubic has a triple root n0.
refine_critical_point solves for it in closed form: the triple-root
conditions leave one polynomial of degree 6 in n0, and each of its real
roots in (0, 1] gives a cusp (Delta, Omega).

The scan and the cusp need numpy alone, so the meanfield command never
loads scipy. integrate_mf imports scipy.integrate and mf_oracle_check builds
scipy.sparse operators, each on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeSpec, half_coordination
from .master_equation import lindblad_rhs, product_density
from .operators import COLLECTIVE, ModelParams, build_system, check_model, site_operator

AS_PRINTED = "as_printed"
ORACLE_VERIFIED = "oracle_verified"
SIGN_CONVENTIONS = (AS_PRINTED, ORACLE_VERIFIED)

NEWTON_RESIDUAL = 1e-12  # on the flow scaled to largest rate 1 (_scaled)
DEDUP_TOL = 1e-6
STABLE_EIG_TOL = -1e-9  # in units of gamma
BOUNDS_SLACK = 1e-6
# eigenvalues of a 3x3 Jacobian J carry absolute errors of a few eps ||J||.
# Against a 50-digit mpmath reference, the closed form's real parts (_spectrum)
# were within 1.1 eps ||J|| on the 16,673 Jacobians that take it in one
# 101 x 101 scan and 401-point cut, and np.linalg.eigvals' within 7.5 eps ||J||.
EIG_ROUNDING = 100 * np.finfo(float).eps
# largest s / gamma (see _scaled): there the rounding band EIG_ROUNDING ||J||,
# about 1e-13 s in the box, is about 1e-3 gamma. On 41 x 41 grids roots in the
# box first fell inside it at s = 1e11 gamma (as printed) and 1e13 (verified).
SPAN_LIMIT = 1e10
# relative discriminants (_cubic_roots) at or below which np.linalg.eigvals
# replaces the closed form, whose error near a root pair a gap apart grows as
# eps max |root|^2 / gap. The stationarity cubic's roots only seed the Newton
# polish, and its real/complex split matches eigvals' while no two roots are
# within about 1e-4 max |root|. A Jacobian's real parts must stay well inside
# EIG_ROUNDING ||J||: on 800,000 random Jacobians (long-double reference) the
# closed form's worst error fell from 14 to 8 eps ||J|| as SPECTRUM_NEAR_REPEATED
# rose from 1e-2 to 3e-2.
ROOTS_NEAR_REPEATED = 1e-8
SPECTRUM_NEAR_REPEATED = 3e-2


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
    STABLE_EIG_TOL gamma; physical those inside the box (slack BOUNDS_SLACK).
    Only for physical roots is stable checked to be resolved by float64.
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


def _terms(state, params: MeanFieldParams, sign_convention: str, model: str):
    """n, s_x, s_y of state, then Delta, Omega, gamma, w = 2dV, u and sigma."""
    sigma = _sigma(sign_convention)
    arr = state.as_array() if isinstance(state, MeanFieldState) else np.asarray(state, float)
    return (arr[..., 0], arr[..., 1], arr[..., 2], params.Delta, params.Omega, params.gamma,
            2.0 * params.d * params.V, _factor_u(params, model), sigma)


def mf_rhs(
    state,
    params: MeanFieldParams,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
) -> np.ndarray:
    """Time derivative of (n, s_x, s_y). Accepts a MeanFieldState, a triple,
    or an (..., 3) array (broadcast over leading axes)."""
    n, s_x, s_y, D, O, g, w, u, sigma = _terms(state, params, sign_convention, model)
    a = 0.5 * g * (u * n + 1.0)
    return np.stack([O * s_y - g * n,
                     -D * s_y - a * s_x - w * n * s_y,
                     sigma * D * s_x - a * s_y + w * n * s_x - O * (4.0 * n - 2.0)], axis=-1)


def mf_jacobian(
    state,
    params: MeanFieldParams,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
) -> np.ndarray:
    """Jacobian of mf_rhs, shape (..., 3, 3)."""
    n, s_x, s_y, D, O, g, w, u, sigma = _terms(state, params, sign_convention, model)
    a = 0.5 * g * (u * n + 1.0)
    jac = np.empty(np.broadcast_shapes(n.shape, np.shape(D), np.shape(O)) + (3, 3))
    # + 0.0 writes a zero entry as +0.0, never -0.0
    jac[..., 0, 0] = -g + 0.0
    jac[..., 0, 1] = 0.0
    jac[..., 0, 2] = O + 0.0
    jac[..., 1, 0] = -0.5 * g * u * s_x - w * s_y
    jac[..., 1, 1] = jac[..., 2, 2] = -a
    jac[..., 1, 2] = -D - w * n
    jac[..., 2, 0] = -0.5 * g * u * s_y + w * s_x - 4.0 * O + 0.0
    jac[..., 2, 1] = sigma * D + w * n
    return jac


def _scaled(params: MeanFieldParams) -> MeanFieldParams:
    """params with Delta, Omega, gamma and V divided by the flow's largest
    rate s = max(gamma (1 + 4d), 2d|V|, max |Delta|, max |Omega|); ValueError
    for a non-finite value or s > SPAN_LIMIT gamma. The first step of both
    fixed-point routes."""
    delta, omega = np.asarray(params.Delta, float), np.asarray(params.Omega, float)
    if not np.isfinite(np.r_[delta.ravel(), omega.ravel(), params.gamma, params.V]).all():
        raise ValueError("grid values, gamma and V must be finite")
    s = max(params.gamma * (1 + 4 * params.d), 2 * params.d * abs(params.V),
            np.max(np.abs(delta)), np.max(np.abs(omega)))
    if s > SPAN_LIMIT * params.gamma:
        raise ValueError(f"Delta, Omega or V too large: the flow's largest rate is "
                         f"{s / params.gamma:.3g} gamma; float64 resolves stability up to "
                         f"{SPAN_LIMIT:g} gamma")
    return replace(params, Delta=delta / s, Omega=omega / s, gamma=params.gamma / s,
                   V=params.V / s)


# an overflow in the polish shows as a non-finite residual, which is not kept
@np.errstate(over="ignore", invalid="ignore")
def _solve(candidates, valid, params, sign_convention, model, iters) -> PhaseDiagram:
    """Newton-polish, deduplicate and classify the candidates (..., K, 3) of
    each cell; params come from _scaled, with Delta and Omega broadcast to
    the cells' shape plus a trailing 1. The back end of both routes.

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
    kept = valid & (residual < NEWTON_RESIDUAL)

    for j in range(1, k):
        near = np.max(np.abs(x[:, :j] - x[:, j:j + 1]), axis=-1) < DEDUP_TOL
        kept[:, j] &= ~np.any(kept[:, :j] & near, axis=-1)

    stable = np.zeros_like(kept)
    physical = kept & (_box_violation(x) <= BOUNDS_SLACK)
    # the kept candidates' Jacobians only, each with its own cell's drive
    jac = mf_jacobian(x[kept][:, None], rows(np.nonzero(kept)[0]), sign_convention, model)[:, 0]
    eig, near = _spectrum(jac)
    if near.any():
        eig[near] = np.linalg.eigvals(jac[near])
    threshold = STABLE_EIG_TOL * params.gamma
    # only the stability of physical roots reaches an output
    unresolved = (np.abs(eig.real - threshold)
                  <= EIG_ROUNDING * np.linalg.norm(jac, axis=(-2, -1))[:, None])
    if np.any(unresolved[physical[kept]]):
        raise ValueError("float64 cannot resolve a fixed point's stability")
    stable[kept] = np.all(eig.real < threshold, axis=-1)

    order = np.lexsort((x[..., 2], x[..., 1], x[..., 0], ~kept), axis=-1)
    x = np.where(kept[..., None], x, np.nan)
    return PhaseDiagram(
        np.take_along_axis(x, order[..., None], axis=1).reshape(shape + (k, 3)),
        np.take_along_axis(stable, order, axis=1).reshape(shape + (k,)),
        np.take_along_axis(physical, order, axis=1).reshape(shape + (k,)),
    )


def _spectrum(jac) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (..., 3) of 3x3 matrices as the roots of their
    characteristic polynomial l^3 - tr l^2 + m2 l - det (_cubic_roots), with
    the trace, the sum m2 of principal 2x2 minors and the determinant in
    closed form, and the mask of rows whose relative discriminant is at most
    SPECTRUM_NEAR_REPEATED, where np.linalg.eigvals is to be used instead."""
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(jac, (-2, -1), (0, 1))
    minors = e * i - f * h, d * i - f * g, d * h - e * g
    m2 = a * e - b * d + a * i - c * g + minors[0]
    det = a * minors[0] - b * minors[1] + c * minors[2]
    eig, disc = _cubic_roots(-(a + e + i), m2, -det)
    return eig, ~(disc > SPECTRUM_NEAR_REPEATED)


def find_fixed_points(
    params: MeanFieldParams,
    sign_convention: str = ORACLE_VERIFIED,
    model: str = COLLECTIVE,
) -> list[FixedPoint]:
    """All fixed points found by Newton from a 10x10x10 seed grid over the
    physical box, sorted by n. Public as the independent oracle of
    scan_phase_diagram: it never uses the stationarity cubic.

    Under ORACLE_VERIFIED the flow keeps physical states physical, so it
    has a fixed point there (Brouwer), and ValueError is raised when no seed
    converges to one. AS_PRINTED has no such guarantee (at
    Delta^2 = gamma^2/4 + 2 Omega^2, V = 0, single-atom decay it has none),
    and there the list may be empty."""
    scaled = _scaled(params)
    ns = np.linspace(0.0, 1.0, 10)
    ss = np.linspace(-1.0, 1.0, 10)
    grid = np.stack(np.meshgrid(ns, ss, ss, indexing="ij"), axis=-1).reshape(-1, 3)
    fp = _solve(grid, np.ones(len(grid), bool), scaled, sign_convention, model, iters=60)
    found = ~np.isnan(fp.states[:, 0])
    if sign_convention == ORACLE_VERIFIED and not found.any():
        raise ValueError(f"no Newton seed converged to a fixed point for {params}")
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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _cubic_roots(b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """Roots r of x^3 + b x^2 + c x + d per row, as complex (..., 3), and
    their relative discriminant prod_{i<j} |r_i - r_j|^2 / max |r|^6 (NaN
    where a root is not finite or all are 0).

    Kahan's QBC ("To solve a real cubic equation", 1986): Newton from his
    starting point beside the inflection point converges monotonically to a
    real root x, stopping once a step no longer moves forward; the cubic is
    deflated to x^2 + b1 x + c2 by whichever of the two recurrences rounds
    less, and that quadratic is solved without cancellation. No closed form
    keeps full accuracy near a repeated root: there each root moves by about
    the square or cube root of the rounding, and callers use
    np.linalg.eigvals instead."""
    b, c, d = np.broadcast_arrays(*(np.asarray(v, float) for v in (b, c, d)))
    shape = b.shape
    b, c, d = b.ravel(), c.ravel(), d.ravel()

    def horner(x, b, c, d):
        # p(x), p'(x), and b1, c2 with p(t) = (t - x)(t^2 + b1 t + c2) + p(x)
        b1 = x + b
        c2 = b1 * x + c
        return c2 * x + d, (x + b1) * x + c2, b1, c2

    x = -b / 3.0
    q, dq, _, _ = horner(x, b, c, d)
    s = np.sign(q)
    r = np.cbrt(np.abs(q))
    r = np.where(dq < 0, 1.324718 * np.maximum(r, np.sqrt(-dq)), r)
    step = x - s * r
    moved = step != x
    rows = np.flatnonzero(moved)
    while rows.size:
        x[rows] = step[rows]
        q, dq, _, _ = horner(x[rows], b[rows], c[rows], d[rows])
        step[rows] = np.where(dq == 0, x[rows], x[rows] - q / dq / 1.000000000000001)
        rows = rows[s[rows] * step[rows] > s[rows] * x[rows]]
    _, _, b1, c2 = horner(x, b, c, d)
    # for a large root, c2 = -d / x rounds less than b1 x + c
    alt = moved & (x * x > np.abs(d / x))
    c2 = np.where(alt, -d / x, c2)
    b1 = np.where(alt, (c2 - c) / x, b1)
    zero = d == 0
    x, b1, c2 = np.where(zero, 0.0, x), np.where(zero, b, b1), np.where(zero, c, c2)

    # the other two roots: re1 + i im and re2 - i im
    h = -0.5 * b1
    q = h * h - c2
    sq = np.sqrt(np.abs(q))
    big = h + np.copysign(sq, h)
    im = np.where(q < 0, sq, 0.0)
    re1 = np.where(q < 0, h, np.where(big == 0, c2, c2 / big))
    re2 = np.where(q < 0, h, np.where(big == 0, -c2, big))
    roots = np.stack([x + 0j, re1 + 1j * im, re2 - 1j * im], axis=-1)

    scale = np.maximum(np.abs(x), np.hypot(np.maximum(np.abs(re1), np.abs(re2)), im))
    disc = (np.hypot(x - re1, im) / scale * np.hypot(x - re2, im) / scale
            * np.hypot(re1 - re2, 2.0 * im) / scale) ** 2
    return roots.reshape(shape + (3,)), disc.reshape(shape)


def _real_roots(*coefficients) -> tuple[np.ndarray, np.ndarray]:
    """Real roots of p_k n^k + ... + p_0 per cell (coefficients highest
    degree first, broadcast together), found as np.roots finds them:
    eigenvalues of the companion matrix, dropping those with |imag| >=
    1e-9 (1 + max |root|). A cubic takes the closed form (_cubic_roots)
    instead, except where its relative discriminant is at most
    ROOTS_NEAR_REPEATED. Where the companion matrix is not finite, as for
    p3 = 0 (V = 0 with single-atom decay) or a subnormal p3 (V near 1e-160),
    the cell's roots are those of the polynomial without its leading
    coefficient: the roots dropped lie far outside the box. Returns the
    roots (..., k) and the mask of the real ones."""
    coeffs = np.stack(np.broadcast_arrays(*coefficients), axis=-1)
    shape, k = coeffs.shape[:-1], coeffs.shape[-1] - 1
    coeffs = coeffs.reshape(-1, k + 1)
    roots, real = np.zeros((len(coeffs), k)), np.zeros((len(coeffs), k), bool)
    if k == 0:
        return roots.reshape(shape + (0,)), real.reshape(shape + (0,))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        top = -coeffs[:, 1:] / coeffs[:, :1]
    finite = np.isfinite(top).all(axis=-1)
    if k == 3:
        r, disc = _cubic_roots(*-top[finite].T)
        companion = ~(disc > ROOTS_NEAR_REPEATED)
    else:
        r = np.zeros((np.count_nonzero(finite), k), complex)
        companion = np.ones(len(r), bool)
    if companion.any():
        matrix = np.zeros((np.count_nonzero(companion), k, k))
        matrix[:, 0, :] = top[finite][companion]
        matrix[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        r[companion] = np.linalg.eigvals(matrix)
    scale = 1.0 + np.max(np.abs(r), axis=-1, keepdims=True)
    roots[finite], real[finite] = r.real, np.abs(r.imag) < 1e-9 * scale
    if not finite.all():
        roots[~finite, :-1], real[~finite, :-1] = _real_roots(*coeffs[~finite, 1:].T)
    return roots.reshape(shape + (k,)), real.reshape(shape + (k,))


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
    p = _scaled(replace(params, Delta=delta_grid[:, None], Omega=omega_grid[None, :]))
    sigma = _sigma(sign_convention)
    u = _factor_u(params, model)
    g, w = p.gamma, 2.0 * p.d * p.V
    shape = (len(delta_grid), len(omega_grid))
    driven = np.broadcast_to(p.Omega != 0.0, shape)
    n, valid = np.zeros(shape + (3,)), np.zeros(shape + (3,), bool)
    # an undriven cell's one candidate is the vacuum, so its cubic is not solved
    n[driven], valid[driven] = _real_roots(*(
        np.broadcast_to(c, shape)[driven]
        for c in _cubic_coefficients(p.Delta, p.Omega ** 2, g, w, u, sigma)))
    D, O = p.Delta[..., None], p.Omega[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = 0.5 * g * (u * n + 1.0)
        s_y = g * n / O
        s_x = -(D + w * n) * s_y / a
    candidates = np.where(driven[..., None, None], np.stack([n, s_x, s_y], axis=-1), 0.0)
    valid = np.where(driven[..., None], valid & (np.abs(a) >= 1e-12 * g), np.arange(3) == 0)
    # a root whose s_x or s_y overflows float64 lies far outside the box
    valid &= np.isfinite(candidates).all(axis=-1)
    return _solve(candidates, valid, replace(p, Delta=D, Omega=O), sign_convention, model,
                  iters=30)


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
        roots, real = _real_roots(*(p1 - 3.0 * p3 * n0**2).coef[::-1])
        for n in roots[real & (roots > 0.0) & (roots <= 1.0)]:
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
    # imported on first use (~0.25 s): the meanfield command never integrates
    from scipy.integrate import solve_ivp

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

    drho = lindblad_rhs(rho, *build_system(lattice, params, model))

    mf = mf_rhs(state, MeanFieldParams(params.Delta, params.Omega, params.gamma, d, params.V),
                sign_convention, model)
    exact = [np.trace(sum(site_operator(lattice, k, which) for k in range(n_sites)).toarray()
                      @ drho).real / n_sites for which in ("number", "sigma_x", "sigma_y")]
    return np.abs(np.array(exact) - mf)
