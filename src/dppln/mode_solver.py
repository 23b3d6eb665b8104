"""Variational mode solver for titanium-indiffused channel waveguides.

The guide is modelled by the graded squared-index profile

    n^2(y, z) = n_b^2 + 2 n_b dn * g(y) f(z)        (z >= 0, cover at z < 0)

with an erf-walled lateral channel g(y) = (erf((w/2+y)/w_d) + erf((w/2-y)/w_d))/2
of diffusion scale w_d, and a Gaussian depth decay f(z) = exp(-z^2/(s_z h)^2).
The fundamental mode is approximated by the two-parameter trial field

    E(y, z) = exp(-a_y^2 y^2 / w^2) * (z/h) * exp(-a_z^2 z^2 / h^2)   (z >= 0)

which vanishes on the air interface and at infinity.  The effective index is
the square root of the maximised Rayleigh quotient

    n_eff^2 = [ k0^2 int n^2 E^2 - int |grad E|^2 ] / [ k0^2 int E^2 ]

over (a_y, a_z).  The profile and trial field are separable, so every
integral factorises into one-dimensional panelled Gauss-Legendre quadratures
on the truncated domain y in [-5w, 5w], z in [0, 8h]; panel orders are
doubled until successive estimates agree (see `quadrature`).  All mode
normalisations and overlaps use the same truncated domain.

The optimiser is deterministic: a 16x16 logarithmic scan of
(a_y, a_z) in [0.2, 5]^2 followed by Nelder-Mead refinement (Nelder & Mead,
Comput. J. 7, 308 (1965)) from the best grid point with a fixed initial
simplex.  `minimize` is an in-house port of SciPy's non-adaptive Nelder-Mead
that repeats its floating-point trajectory on the objective `_rq_scalar`.
The grid scan, the mode norms and `effective_index` read the quotient from
Gaussian moment rows instead; `effective_index` needs n_eff only, which is
stationary at the optimum, so it refines by safeguarded Newton steps
(Nocedal & Wright, Numerical Optimization, ch. 3).  Quadrature nodes,
profile samples and moment rows depend on the geometry, diffusion scales and
Gauss order only, so they are built once per shape and order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial, reduce
from operator import add

import numpy as np

from .dispersion import Polarization
from .errors import (
    BoundaryOptimumError,
    ConfigurationError,
    ConsistencyError,
    NoGuidedModeError,
)
from .quadrature import panel_nodes, refine_scalar

ALPHA_MIN = 0.2
ALPHA_MAX = 5.0
GRID_POINTS = 16
GRID_ORDER = 96
GRID_ALPHAS = np.geomspace(ALPHA_MIN, ALPHA_MAX, GRID_POINTS)
GRID_ALPHAS.flags.writeable = False
# Optima this close to the box edge are treated as untrusted geometry.
_EDGE_MARGIN = 0.015
# Local refinements stop below this alpha: the mode has left the trusted box.
_ALPHA_FLOOR = 0.05
# Increments below this cannot produce a trustworthy bound mode.
MIN_GUIDING_INCREMENT = 1e-5

COVER_INDEX = 1.0
# Supported channel width and depth in um.
SIZE_RANGE_UM = (1.0, 50.0)

# math.erf elementwise; returns float arrays (and a 0-d array for a scalar)
_erf = np.vectorize(math.erf, otypes=[float])


@dataclass(frozen=True)
class WaveguideGeometry:
    """Channel geometry: lateral width and diffusion depth in um, length in cm."""

    width_um: float
    depth_um: float
    length_cm: float

    def __post_init__(self):
        if not (0.0 < self.length_cm <= 10.0):
            raise ConfigurationError(
                f"length {self.length_cm:g} cm outside the supported range (0, 10] cm",
                "length_cm",
            )
        low, high = SIZE_RANGE_UM
        for name, v in (("width", self.width_um), ("depth", self.depth_um)):
            if not (low <= v <= high):
                raise ConfigurationError(
                    f"{name} {v:g} um outside the supported range [{low:g}, {high:g}] um",
                    f"{name}_um"
                )


@dataclass(frozen=True)
class IndexProfile:
    """Separable diffused-index profile over one waveguide geometry."""

    geometry: WaveguideGeometry
    bulk_index: float
    increment: float
    lateral_scale: float = 0.5
    depth_scale: float = 2.0

    def lateral_shape(self, y):
        """g(y) in [0, 1], even, unity deep inside the channel."""
        w = self.geometry.width_um
        wd = self.lateral_scale * w
        return 0.5 * (_erf((w / 2 + y) / wd) + _erf((w / 2 - y) / wd))

    def depth_shape(self, z):
        """f(z) in [0, 1] for z >= 0, zero in the cover."""
        hz = self.depth_scale * self.geometry.depth_um
        z = np.asarray(z, dtype=float)
        return np.where(z >= 0.0, np.exp(-((z / hz) ** 2)), 0.0)

    def index(self, y, z):
        """n(y, z); the cover region z < 0 is air."""
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        n2 = (
            self.bulk_index**2
            + 2.0 * self.bulk_index * self.increment * self.lateral_shape(y) * self.depth_shape(z)
        )
        return np.where(z < 0.0, COVER_INDEX, np.sqrt(n2))


def _y_edges(geometry):
    w = geometry.width_um
    return (-5.0 * w, -w, 0.0, w, 5.0 * w)


def _z_edges(geometry):
    h = geometry.depth_um
    return (0.0, h, 3.0 * h, 8.0 * h)


class _Quadrature:
    """Panel nodes, weights and the alpha-independent samples of one profile
    shape at one per-panel Gauss order, shared read-only via `_quadrature`."""

    def __init__(self, shape, order):
        geometry = shape.geometry
        self.w = geometry.width_um
        self.h = geometry.depth_um
        self.y, self.wy = panel_nodes(_y_edges(geometry), order)
        self.y2 = self.y**2
        self.g = shape.lateral_shape(self.y)
        z, self.wz = panel_nodes(_z_edges(geometry), order)
        self.z2 = z**2
        self.zh2 = (z / self.h) ** 2
        self.f = shape.depth_shape(z)
        # Moment rows: with u = (y/w)^2 and v2 = (z/h)^2, `y_rows @ Y^2` is
        # int u^k Y^2 (k <= 3), int g u^k Y^2 (k <= 2), and `z_rows @ e` with
        # e = exp(-2 a_z^2 v2) is int v2^k e (k <= 4), int f v2^k e (k = 1..3).
        self.u, v2 = self.y2 / self.w**2, self.zh2
        self.y_rows = np.array([self.wy * self.u**k for k in range(4)]
                               + [self.wy * self.g * self.u**k for k in range(3)])
        self.z_rows = np.array([self.wz * v2**k for k in range(5)]
                               + [self.wz * self.f * v2**k for k in range(1, 4)])
        for array in (self.y2, self.g, self.z2, self.zh2, self.f, self.u, self.y_rows,
                      self.z_rows):
            array.flags.writeable = False

    def moments(self, sy, sz):
        """The y and z moment rows at s_y = a_y^2 and s_z = a_z^2; a vector
        of s gives one column per entry."""
        return (self.y_rows @ np.exp(np.multiply.outer(self.u, -2.0 * sy)),
                self.z_rows @ np.exp(np.multiply.outer(self.zh2, -2.0 * sz)))

    @cached_property
    def grid_ratios(self):
        """Rows P, r, Q, t of `_ratios` at GRID_ALPHAS, for the grid scan."""
        s = GRID_ALPHAS**2
        y_moments, z_moments = self.moments(s, s)
        ratios = np.array([f[0] for f in _ratios(s, y_moments, s, z_moments)])
        ratios.flags.writeable = False
        return ratios


def _ratio(num, den):
    """N/D with its first and second derivatives, from those of N and D."""
    f = num[0] / den[0]
    f1 = (num[1] - f * den[1]) / den[0]
    return f, f1, (num[2] - 2.0 * f1 * den[1] - f * den[2]) / den[0]


def _ratios(sy, y_moments, sz, z_moments):
    """P = G_y/A_y and r = w^2 D_y/A_y at s_y = a_y^2, Q = F_z/A_z and
    t = h^2 D_z/A_z at s_z = a_z^2, each with its first two s-derivatives, from
    `_Quadrature.moments`.  With d/ds int w exp(-2 s u) = -2 int w u
    exp(-2 s u), each derivative of a moment is the next moment row."""
    M0, M1, M2, M3, G0, G1, G2 = y_moments
    E0, E1, E2, E3, E4, H1, H2, H3 = z_moments
    Ay, Az = (M0, -2.0 * M1, 4.0 * M2), (E1, -2.0 * E2, 4.0 * E3)
    # w^2 Dy = 4 s^2 M1 and h^2 Dz = E0 - 4 s E1 + 4 s^2 E2
    return (_ratio((G0, -2.0 * G1, 4.0 * G2), Ay),
            _ratio((4.0 * sy * sy * M1, 8.0 * sy * (M1 - sy * M2),
                    8.0 * M1 - 32.0 * sy * M2 + 16.0 * sy * sy * M3), Ay),
            _ratio((H1, -2.0 * H2, 4.0 * H3), Az),
            _ratio((E0 - 4.0 * sz * E1 + 4.0 * sz * sz * E2,
                    -6.0 * E1 + 16.0 * sz * E2 - 8.0 * sz * sz * E3,
                    28.0 * E2 - 48.0 * sz * E3 + 16.0 * sz * sz * E4), Az))


# (shape, order) -> _Quadrature; a solve uses two to four orders
_quadrature = lru_cache(maxsize=8)(_Quadrature)


def _quadratures(profile):
    """order -> the shared _Quadrature of `profile` with its indices zeroed."""
    return partial(_quadrature, replace(profile, bulk_index=0.0, increment=0.0))


def _rq_scalar(profile, k0, quad):
    """The Nelder-Mead objective (a_y, a_z) -> n_eff^2 at one quadrature, by
    direct quadrature of the six integrals.  It equals the moment form to
    rounding, as the tests check; its own rounding fixes the Nelder-Mead
    trajectory and so the design numbers.  The elementwise steps write into
    scratch arrays owned by the returned function, never by the shared `quad`,
    so each solve builds its own."""
    y, y2, g, wy, z2, zh2, f, wz = (quad.y, quad.y2, quad.g, quad.wy, quad.z2, quad.zh2,
                                    quad.f, quad.wz)
    w2, h2 = quad.w**2, quad.h**2
    nb, dn = profile.bulk_index, profile.increment
    Y2, ys = np.empty((2, y.size))
    t, envelope, Z2 = np.empty((3, z2.size))

    def rq(alpha_y, alpha_z):
        a2 = alpha_y * alpha_y
        np.exp(np.divide(np.multiply(y2, -2.0 * a2, out=ys), w2, out=ys), out=Y2)
        Ay = float(Y2.dot(wy))
        Gy = float(np.multiply(Y2, g, out=ys).dot(wy))
        np.square(np.divide(np.multiply(y, 2.0 * a2, out=ys), w2, out=ys), out=ys)
        Dy = float(np.multiply(Y2, ys, out=ys).dot(wy))
        a2 = alpha_z * alpha_z
        np.divide(np.multiply(z2, 2.0 * a2, out=t), h2, out=t)
        np.exp(np.negative(t, out=envelope), out=envelope)
        Az = float(np.multiply(zh2, envelope, out=Z2).dot(wz))
        Fz = float(np.multiply(Z2, f, out=Z2).dot(wz))
        np.square(np.subtract(1.0, t, out=t), out=t)
        Dz = float(np.divide(np.multiply(envelope, t, out=t), h2, out=t).dot(wz))
        return nb**2 + 2.0 * nb * dn * ((Gy / Ay) * (Fz / Az)) - (Dy / Ay + Dz / Az) / k0**2

    return rq


def _rq_taylor(profile, k0, quad, x):
    """The quotient at x = (ln a_y, ln a_z) from the moment rows, with its
    gradient and Hessian in x."""
    sy, sz = math.exp(2.0 * x[0]), math.exp(2.0 * x[1])
    y_moments, z_moments = quad.moments(sy, sz)
    P, r, Q, t = _ratios(sy, y_moments.tolist(), sz, z_moments.tolist())
    nb, dn = profile.bulk_index, profile.increment
    c, ky, kz = 2.0 * nb * dn, 1.0 / (k0 * quad.w) ** 2, 1.0 / (k0 * quad.h) ** 2
    value = nb**2 + c * P[0] * Q[0] - ky * r[0] - kz * t[0]
    # d/dx = 2 s d/ds, so d2/dx2 = 4 s d/ds + 4 s^2 d2/ds2
    gy = 2.0 * sy * (c * P[1] * Q[0] - ky * r[1])
    gz = 2.0 * sz * (c * P[0] * Q[1] - kz * t[1])
    hyy = 2.0 * gy + 4.0 * sy * sy * (c * P[2] * Q[0] - ky * r[2])
    hzz = 2.0 * gz + 4.0 * sz * sz * (c * P[0] * Q[2] - kz * t[2])
    return value, gy, gz, hyy, 4.0 * sy * sz * c * P[1] * Q[1], hzz


def _newton(profile, k0, quad, ay, az):
    """Maximise the quotient from (ay, az) in ln(alpha): a Newton step where
    the Hessian is negative definite, else a gradient step, capped at 0.5 and
    halved while the quotient falls by more than rounding.  Stops at a step
    of 1e-10 or below `_ALPHA_FLOOR`; the iteration cap is only a bound."""
    x = (math.log(ay), math.log(az))
    now = _rq_taylor(profile, k0, quad, x)
    for _ in range(100):
        value, gy, gz, hyy, hyz, hzz = now
        det = hyy * hzz - hyz * hyz
        concave = hyy < 0.0 and det > 0.0
        d = ((hyz * gz - hzz * gy) / det, (hyz * gy - hyy * gz) / det) if concave else (gy, gz)
        size = max(abs(d[0]), abs(d[1]))
        if size <= 1e-10:
            break
        t = min(1.0, 0.5 / size) if concave else 0.5 / size
        while t * size > 1e-10:
            trial_x = (x[0] + t * d[0], x[1] + t * d[1])
            trial = _rq_taylor(profile, k0, quad, trial_x)
            if trial[0] >= value - 4.0 * math.ulp(value):  # a few ulp of fall is rounding
                break
            t *= 0.5
        else:
            break
        x, now = trial_x, trial
        if min(x) < math.log(_ALPHA_FLOOR):
            break
    return math.exp(x[0]), math.exp(x[1])


def rayleigh_quotient(profile, wavelength_nm, alpha_y, alpha_z):
    """Scalar-wave variational estimate of n_eff^2 for one trial field.

    The quadrature order doubles until the estimate stabilises.
    """
    if alpha_y <= 0 or alpha_z <= 0:
        raise ConfigurationError("trial parameters must be positive")
    k0 = 2.0 * np.pi / (wavelength_nm * 1e-3)
    quad = _quadratures(profile)
    value, _ = refine_scalar(lambda n: _rq_scalar(profile, k0, quad(n))(alpha_y, alpha_z))
    return value


# Best vertex, objective evaluations and iterations of one `minimize`.
NelderMeadResult = namedtuple("NelderMeadResult", "x nfev nit")


class _Exhausted(Exception):
    """Raised by the counting objective once `maxfev` evaluations are spent."""


def _sorted(sim, fsim):
    """`sim` and `fsim` in np.argsort(fsim) order.  Distinct values have one
    order, which Python's sort gives; ties and NaN take numpy's."""
    tied = len(set(fsim)) < len(fsim) or any(v != v for v in fsim)
    order = np.argsort(fsim).tolist() if tied else sorted(range(len(fsim)), key=fsim.__getitem__)
    return [sim[i] for i in order], [fsim[i] for i in order]


def minimize(fun, simplex, *, xatol, fatol, maxiter, maxfev):
    """Nelder-Mead minimisation of `fun` from the initial `simplex` (N+1 rows).

    Step for step the arithmetic of scipy.optimize.minimize(method=
    "Nelder-Mead", adaptive=False) with this `initial_simplex`: coefficients
    rho=1, chi=2, psi=0.5, sigma=0.5 in the same expressions and order, the
    same argsort of the vertices, the convergence test before each step,
    `nit` counted from 1 and `nfev` including the initial vertices.  `fun`
    receives each vertex as a list of floats, which it must not modify.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(simplex, dtype=float).tolist()
    N = len(sim[0])
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return float(fun(x))

    fsim = [math.inf] * (N + 1)
    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _Exhausted:
        pass
    # sorted twice, as scipy does, so that tied values order the same way
    sim, fsim = _sorted(*_sorted(sim, fsim))

    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            if (all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, sim[0]))
                    and all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:])):
                break
            # a left fold is numpy's add.reduce over the rows
            xbar = [reduce(add, column) / N for column in zip(*sim[:-1])]
            xr = [(1 + rho) * m - rho * v for m, v in zip(xbar, sim[-1])]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [(1 + rho * chi) * m - rho * chi * v for m, v in zip(xbar, sim[-1])]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [(1 + psi * rho) * m - psi * rho * v for m, v in zip(xbar, sim[-1])]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = [(1 - psi) * m + psi * v for m, v in zip(xbar, sim[-1])]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, N + 1):
                        sim[j] = [b + sigma * (v - b) for b, v in zip(sim[0], sim[j])]
                        fsim[j] = f(sim[j])
            nit += 1
        except _Exhausted:
            pass
        sim, fsim = _sorted(sim, fsim)
    return NelderMeadResult(x=np.array(sim[0]), nfev=nfev, nit=nit)


@dataclass(frozen=True)
class ModeSolution:
    """Fundamental-mode solution at one wavelength and polarization.

    `y_norm`/`z_norm` are the L2 norms of the un-normalised trial factors on
    the truncated domain, so `field` integrates to unit power there.
    """

    n_eff: float
    alpha_y: float
    alpha_z: float
    wavelength_nm: float
    polarization: Polarization
    profile: IndexProfile
    y_norm: float
    z_norm: float

    def y_factor(self, y):
        w = self.profile.geometry.width_um
        return np.exp(-self.alpha_y**2 * np.asarray(y, dtype=float) ** 2 / w**2) / self.y_norm

    def z_factor(self, z):
        h = self.profile.geometry.depth_um
        z = np.asarray(z, dtype=float)
        raw = (z / h) * np.exp(-self.alpha_z**2 * z**2 / h**2)
        return np.where(z >= 0.0, raw, 0.0) / self.z_norm

    def field(self, y, z):
        """Normalised transverse field e(y, z), unit L2 norm, node at z = 0."""
        return self.y_factor(y) * self.z_factor(z)


def _optimum(profile, wavelength_nm, refine):
    """Grid start, `refine(profile, k0, locked quadrature, a_y, a_z)`, edge test
    and adaptive n_eff^2: (n_eff^2, its order, order -> _Quadrature, a_y, a_z)."""
    if profile.increment < MIN_GUIDING_INCREMENT:
        raise NoGuidedModeError(
            f"increment {profile.increment:g} below the guiding threshold "
            f"{MIN_GUIDING_INCREMENT:g}"
        )
    k0 = 2.0 * np.pi / (wavelength_nm * 1e-3)
    quad = _quadratures(profile)

    nb, dn, geometry = profile.bulk_index, profile.increment, profile.geometry
    P, r, Q, t = quad(GRID_ORDER).grid_ratios
    grid = (nb**2 + 2.0 * nb * dn * np.outer(P, Q)
            - np.add.outer(r / geometry.width_um**2, t / geometry.depth_um**2) / k0**2)
    iy, iz = np.unravel_index(int(np.argmax(grid)), grid.shape)
    ay, az = float(GRID_ALPHAS[iy]), float(GRID_ALPHAS[iz])

    # Lock the quadrature order for the local refinement so the objective is
    # smooth, then re-evaluate adaptively at the optimum.
    _, order = refine_scalar(lambda n: _rq_scalar(profile, k0, quad(n))(ay, az))
    ay, az = refine(profile, k0, quad(order), ay, az)
    lo = ALPHA_MIN * (1.0 + _EDGE_MARGIN)
    hi = ALPHA_MAX * (1.0 - _EDGE_MARGIN)
    for name, alpha in (("alpha_y", ay), ("alpha_z", az)):
        if not lo <= alpha <= hi:
            edge = ("upper edge", "narrower than the channel scale") if alpha > hi else (
                "lower edge", "wider than the trusted domain (near cutoff)")
            raise BoundaryOptimumError(f"{name} optimum at the {edge[0]} of the trusted box "
                                       f"[{ALPHA_MIN}, {ALPHA_MAX}]: the mode is {edge[1]}")

    n_eff_sq, order = refine_scalar(lambda n: _rq_scalar(profile, k0, quad(n))(ay, az))
    if n_eff_sq <= profile.bulk_index**2:
        raise NoGuidedModeError(
            f"no confined mode at {wavelength_nm:g} nm: variational n_eff^2 "
            f"{n_eff_sq:.9f} does not exceed the bulk value"
        )
    return n_eff_sq, order, quad, ay, az


def _nelder_mead(profile, k0, locked, ay, az):
    rq = _rq_scalar(profile, k0, locked)

    def negative_rq(x):
        if x[0] <= _ALPHA_FLOOR or x[1] <= _ALPHA_FLOOR:
            return 1e6
        return -rq(x[0], x[1])

    simplex = [[ay, az], [ay * 1.02, az], [ay, az * 1.02]]
    result = minimize(negative_rq, simplex, xatol=1e-7, fatol=1e-13, maxiter=1000, maxfev=2000)
    return result.x.tolist()


def effective_index(profile: IndexProfile, wavelength_nm: float) -> float:
    """`solve_mode(...).n_eff` to rounding, with the same checks and errors,
    refined by `_newton`: n_eff is stationary in the trial parameters."""
    return math.sqrt(_optimum(profile, wavelength_nm, _newton)[0])


def solve_mode(profile: IndexProfile, wavelength_nm: float, polarization: Polarization) -> ModeSolution:
    """Maximise the Rayleigh quotient over the trial parameters.

    Raises NoGuidedModeError when the profile cannot confine a mode and
    BoundaryOptimumError when the optimum sticks to the search-box edge.
    """
    n_eff_sq, order, quad, ay, az = _optimum(profile, wavelength_nm, _nelder_mead)
    y_moments, z_moments = quad(order).moments(ay * ay, az * az)  # int Y^2, int Z^2: rows 0, 1
    return ModeSolution(
        n_eff=float(np.sqrt(n_eff_sq)),
        alpha_y=float(ay),
        alpha_z=float(az),
        wavelength_nm=wavelength_nm,
        polarization=polarization,
        profile=profile,
        y_norm=math.sqrt(y_moments[0]),
        z_norm=math.sqrt(z_moments[1]),
    )


def field_overlap(a: ModeSolution, b: ModeSolution, c: ModeSolution) -> float:
    """Transverse overlap integral int e_a e_b e_c dy dz in 1/um.

    The three solutions must share one geometry; the value is symmetric in
    its arguments because the integrand is a plain product.
    """
    geometries = {m.profile.geometry for m in (a, b, c)}
    if len(geometries) != 1:
        raise ConsistencyError("overlap requires all three modes on one geometry")
    geometry = a.profile.geometry

    def evaluate(order):
        y, wy = panel_nodes(_y_edges(geometry), order)
        z, wz = panel_nodes(_z_edges(geometry), order)
        iy = wy.dot(a.y_factor(y) * b.y_factor(y) * c.y_factor(y))
        iz = wz.dot(a.z_factor(z) * b.z_factor(z) * c.z_factor(z))
        return iy * iz

    value, _ = refine_scalar(evaluate, rtol=1e-11, atol=1e-16)
    return float(value)
