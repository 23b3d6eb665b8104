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

over (a_y, a_z).  Every integral factorises into one-dimensional panelled
Gauss-Legendre quadratures on y in [-5w, 5w], z in [0, 8h], whose orders
double until successive estimates agree (see `quadrature`).  In u = y/w and
v = z/h (the b-V scaling of Kogelnik & Ramaswamy, Appl. Opt. 13, 1857
(1974)), n_eff^2 = n_b^2 + 2 n_b dn P Q - r/(k0 w)^2 - t/(k0 h)^2, where the
moment ratios P, r of a_y and Q, t of a_z depend on the diffusion scales
alone (`_Scaled`, once per material and order).  The norms are closed forms:
y_norm^2 = w sqrt(pi/(2 a_y^2)) erf(5 sqrt(2) a_y), z_norm^2 = h [sqrt(pi)/(4
c^1.5) erf(8 sqrt(c)) - 4 exp(-64 c)/c], c = 2 a_z^2.  `solve_lanes` solves
many modes (lanes) in four stages, each run once over the lanes still
solving: `_grid_start` (the scaled quotient on a 16x16 grid in [0.2, 5]^2),
`_locked` (the Gauss order at the grid point), `_nelder_mead_optima` (Nelder
& Mead, Comput. J. 7, 308 (1965), SciPy's non-adaptive trajectory on
`_rq_rows`, a direct quadrature at the locked order whose rounding fixes the
design numbers) and `_finished` (the box-edge test and the final n_eff^2).
`effective_index` refines by safeguarded Newton steps on the scaled quotient
instead (Nocedal & Wright, Numerical Optimization, ch. 3).
`rayleigh_quotient`, the adaptive direct quadrature, is its oracle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .dispersion import Polarization
from .errors import (
    BoundaryOptimumError,
    ConfigurationError,
    ConsistencyError,
    NoGuidedModeError,
    PhysicsError,
    require_positive,
    require_within,
)
from .quadrature import panel_nodes, refine_rows, refine_scalar

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
# Supported vacuum wavelengths of a mode solve in nm.
WAVELENGTH_RANGE_NM = (100.0, 20000.0)
# Longest supported interaction length in cm.
MAX_LENGTH_CM = 10.0


def _erf(x):
    """math.erf elementwise: a float array of the shape of `x` (0-d for a scalar)."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _channel(y, w, lateral_scale):
    """g(y) of a channel of width w with erf walls of scale lateral_scale * w."""
    wd = lateral_scale * w
    return 0.5 * (_erf((w / 2 + y) / wd) + _erf((w / 2 - y) / wd))


def _decay(z, h, depth_scale):
    """f(z) = exp(-(z / (depth_scale * h))^2) for z >= 0, zero in the cover."""
    hz = depth_scale * h
    z = np.asarray(z, dtype=float)
    return np.where(z >= 0.0, np.exp(-((z / hz) ** 2)), 0.0)


@dataclass(frozen=True)
class WaveguideGeometry:
    """Channel geometry: lateral width and diffusion depth in um, length in cm."""

    width_um: float
    depth_um: float
    length_cm: float

    def __post_init__(self):
        if not (0.0 < self.length_cm <= MAX_LENGTH_CM):
            raise ConfigurationError(
                f"length {self.length_cm:g} cm outside the supported range (0, "
                f"{MAX_LENGTH_CM:g}] cm",
                "length_cm",
            )
        for name, v in (("width", self.width_um), ("depth", self.depth_um)):
            require_within(name, v, SIZE_RANGE_UM, "um", f"{name}_um")


@dataclass(frozen=True)
class IndexProfile:
    """Separable diffused-index profile over one waveguide geometry."""

    geometry: WaveguideGeometry
    bulk_index: float
    increment: float
    lateral_scale: float = 0.5
    depth_scale: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.bulk_index) and self.bulk_index >= 1.0):
            raise ConfigurationError(
                f"bulk_index must be finite and at least 1, got {self.bulk_index!r}", "bulk_index")
        require_positive(increment=self.increment, lateral_scale=self.lateral_scale,
                         depth_scale=self.depth_scale)

    def lateral_shape(self, y):
        """g(y) in [0, 1], even, unity deep inside the channel."""
        return _channel(y, self.geometry.width_um, self.lateral_scale)

    def depth_shape(self, z):
        """f(z) in [0, 1] for z >= 0, zero in the cover."""
        return _decay(z, self.geometry.depth_um, self.depth_scale)

    def index(self, y, z):
        """n(y, z); the cover region z < 0 is air."""
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        n2 = (
            self.bulk_index**2
            + 2.0 * self.bulk_index * self.increment * self.lateral_shape(y) * self.depth_shape(z)
        )
        return np.where(z < 0.0, COVER_INDEX, np.sqrt(n2))


def _y_edges(w):
    return (-5.0 * w, -w, 0.0, w, 5.0 * w)


def _z_edges(h):
    return (0.0, h, 3.0 * h, 8.0 * h)


class _Quadrature:
    """Panel nodes, weights and profile samples of one geometry and diffusion
    scales at one Gauss order: what `_rq_rows` reads, shared via `_quadrature`."""

    def __init__(self, geometry, lateral_scale, depth_scale, order):
        self.w, self.h = geometry.width_um, geometry.depth_um
        self.y, self.wy = panel_nodes(_y_edges(self.w), order)
        self.y2 = self.y**2
        self.g = _channel(self.y, self.w, lateral_scale)
        z, self.wz = panel_nodes(_z_edges(self.h), order)
        self.z2 = z**2
        self.zh2 = (z / self.h) ** 2
        self.f = _decay(z, self.h, depth_scale)
        for array in (self.y2, self.g, self.z2, self.zh2, self.f):
            array.flags.writeable = False


# (geometry, lateral_scale, depth_scale, order) -> _Quadrature
_quadrature = lru_cache(maxsize=8)(_Quadrature)


def _quadrature_of(profile, order):
    """The `_quadrature` of a profile's shape: its indices do not enter."""
    return _quadrature(profile.geometry, profile.lateral_scale, profile.depth_scale, order)


class _Scaled:
    """Moment rows of one material at one per-panel Gauss order on the scaled
    box u = y/w in [-5, 5] (its even half, weights doubled), v = z/h in [0, 8]:
    with e = exp(-2 s u^2), `y_rows @ e` is int u^2k e (k <= 3), int g u^2k e
    (k <= 2), and `z_rows` gives int v^2k e (k <= 4), int f v^2k e (1..3)."""

    def __init__(self, lateral_scale, depth_scale, order):
        u, wu = panel_nodes(_y_edges(1.0)[2:], order)
        v, wv = panel_nodes(_z_edges(1.0), order)
        u2, v2 = u * u, v * v
        g, f = 2.0 * wu * _channel(u, 1.0, lateral_scale), wv * _decay(v, 1.0, depth_scale)
        self.y_rows = _read_only(np.array([2.0 * wu * u2**k for k in range(4)]
                                          + [g * u2**k for k in range(3)]))
        self.z_rows = _read_only(np.array([wv * v2**k for k in range(5)]
                                          + [f * v2**k for k in range(1, 4)]))
        self.y_exponent, self.z_exponent = _read_only(-2.0 * u2), _read_only(-2.0 * v2)

    def moments(self, sy, sz):
        """The moments at s_y = a_y^2, s_z = a_z^2 (floats, or (L, 1, 1) arrays
        of L lanes), one ddot each, so a lane's do not depend on the others."""
        return (np.vecdot(self.y_rows, np.exp(sy * self.y_exponent)),
                np.vecdot(self.z_rows, np.exp(sz * self.z_exponent)))

    @cached_property
    def grid_terms(self):
        """P Q, r (a column) and t of `_ratios` at GRID_ALPHAS, for the grid start."""
        s = GRID_ALPHAS**2
        y_moments, z_moments = self.moments(s[:, None, None], s[:, None, None])
        (P, *_), (r, *_), (Q, *_), (t, *_) = _ratios(s, y_moments.T, s, z_moments.T)
        return _read_only(np.multiply.outer(P, Q)), _read_only(r[:, None]), _read_only(t)


# (lateral_scale, depth_scale, order) -> _Scaled
_scaled = lru_cache(maxsize=16)(_Scaled)


def _read_only(array):
    array.flags.writeable = False
    return array


def _ratio(num, den):
    """N/D with its first and second derivatives, from those of N and D."""
    f = num[0] / den[0]
    f1 = (num[1] - f * den[1]) / den[0]
    return f, f1, (num[2] - 2.0 * f1 * den[1] - f * den[2]) / den[0]


def _ratios(sy, y_moments, sz, z_moments):
    """P = G_y/A_y and r = w^2 D_y/A_y at s_y = a_y^2, Q = F_z/A_z and t =
    h^2 D_z/A_z at s_z = a_z^2 with their first two s-derivatives, from
    `_Scaled.moments`: d/ds of a moment row is -2 times the next row."""
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


def _quotients(lanes, order):
    """n_eff^2 at one order for lanes (profile, k0, a_y, a_z): the moments of
    each material's lanes in one stacked evaluation, the rest in floats."""
    values, materials = [None] * len(lanes), {}
    for i, (profile, _, ay, az) in enumerate(lanes):
        materials.setdefault((profile.lateral_scale, profile.depth_scale), []).append(
            (i, ay * ay, az * az))
    for (lateral_scale, depth_scale), rows in materials.items():
        s, scaled = np.array(rows)[:, 1:, None], _scaled(lateral_scale, depth_scale, order)
        y_moments, z_moments = scaled.moments(s[:, :1], s[:, 1:])
        for (i, sy, sz), (M0, M1, _, _, G0, _, _), (E0, E1, E2, _, _, H1, _, _) in zip(
                rows, y_moments.tolist(), z_moments.tolist()):  # the values of `_ratios`
            p, k0, *_ = lanes[i]
            values[i] = (p.bulk_index**2 + 2.0 * p.bulk_index * p.increment * (G0 / M0) * (H1 / E1)
                         - 4.0 * sy * sy * M1 / M0 / (k0 * p.geometry.width_um) ** 2
                         - (E0 - 4.0 * sz * E1 + 4.0 * sz * sz * E2) / E1
                         / (k0 * p.geometry.depth_um) ** 2)
    return values


def _rq_rows(lanes):
    """The Nelder-Mead objective by direct quadrature for lanes (profile, k0,
    _Quadrature) of one Gauss order: [(a_y, a_z) per lane] -> [n_eff^2 per
    lane].  Several lanes are rows of stacked arrays, one lane keeps 1-D
    arrays and floats; either way lane i's arithmetic is the same bit for bit
    (elementwise ufuncs, one ddot per row).  The y nodes, weights and g(y)
    are exact mirror images, so the y integrands are computed on the first
    half of the nodes and mirrored into full rows; one scale s = -2 a^2 per
    axis serves the exponent and, squared, the derivative factor.  The
    scratch arrays are the function's own."""
    one = len(lanes) == 1

    def lanewise(values, shape=(len(lanes), -1)):
        return values[0] if one else np.array(values).reshape(shape)

    half = len(lanes[0][2].y) // 2
    y, y2, g, wy, z2, zh2, f, wz = (lanewise(arrays) for arrays in zip(*(
        (q.y[:half], q.y2[:half], q.g[:half], q.wy, q.z2, q.zh2, q.f, q.wz) for *_, q in lanes)))
    w2, h2 = ([getattr(q, axis)**2 for *_, q in lanes] for axis in "wh")
    if one:
        w2, h2 = w2[0], h2[0]
    else:  # full rows, which divide faster than broadcast columns
        w2, h2 = (np.repeat(v, rows.shape[-1]).reshape(rows.shape)
                  for v, rows in ((w2, y), (h2, z2)))
    nb2, c, k02 = (lanewise(values, -1) for values in zip(*(
        (p.bulk_index**2, 2.0 * p.bulk_index * p.increment, k0**2) for p, k0, _ in lanes)))
    # the integrands Y^2, g Y^2, (dY/dy)^2 and Z^2, f Z^2, (dZ/dz)^2, dotted at once
    Y, Z = np.empty((3,) + wy.shape), np.empty((3,) + z2.shape)
    Y_half, ys = np.empty((3,) + y.shape), np.empty(y.shape)
    t, envelope = np.empty(z2.shape), np.empty(z2.shape)

    def rq(points):
        if one:  # -2 a_y^2 and -2 a_z^2: floats for one lane, else (lanes, 1) columns
            ((ay, az),) = points
            sy, sz = -2.0 * (ay * ay), -2.0 * (az * az)
        else:
            a = np.array(points)
            sy, sz = (-2.0 * (a * a)).T[:, :, None]
        np.exp(np.divide(np.multiply(y2, sy, out=ys), w2, out=ys), out=Y_half[0])
        np.multiply(Y_half[0], g, out=Y_half[1])
        np.square(np.divide(np.multiply(y, sy, out=ys), w2, out=ys), out=ys)
        np.multiply(Y_half[0], ys, out=Y_half[2])
        np.concatenate((Y_half, Y_half[..., ::-1]), axis=-1, out=Y)
        np.divide(np.multiply(z2, sz, out=t), h2, out=t)
        np.exp(t, out=envelope)
        np.multiply(zh2, envelope, out=Z[0])
        np.multiply(Z[0], f, out=Z[1])
        np.square(np.add(1.0, t, out=t), out=t)
        np.divide(np.multiply(envelope, t, out=t), h2, out=Z[2])
        (Ay, Gy, Dy), (Az, Fz, Dz) = np.vecdot(Y, wy), np.vecdot(Z, wz)
        return np.atleast_1d(nb2 + c * ((Gy / Ay) * (Fz / Az)) - (Dy / Ay + Dz / Az) / k02).tolist()

    return rq


def _quotient(profile, k0, quad, alpha_y, alpha_z):
    """`_rq_rows` for one lane at one point."""
    return _rq_rows([(profile, k0, quad)])([(alpha_y, alpha_z)])[0]


def _rq_taylor(profile, k0, scaled, x):
    """The quotient at x = (ln a_y, ln a_z) from the `_Scaled` rows, with its
    gradient and Hessian in x."""
    sy, sz = math.exp(2.0 * x[0]), math.exp(2.0 * x[1])
    y_moments, z_moments = scaled.moments(sy, sz)
    P, r, Q, t = _ratios(sy, y_moments.tolist(), sz, z_moments.tolist())
    nb, dn, geometry = profile.bulk_index, profile.increment, profile.geometry
    c, ky, kz = 2.0 * nb * dn, (k0 * geometry.width_um) ** -2, (k0 * geometry.depth_um) ** -2
    value = nb**2 + c * P[0] * Q[0] - ky * r[0] - kz * t[0]
    # d/dx = 2 s d/ds, so d2/dx2 = 4 s d/ds + 4 s^2 d2/ds2
    gy = 2.0 * sy * (c * P[1] * Q[0] - ky * r[1])
    gz = 2.0 * sz * (c * P[0] * Q[1] - kz * t[1])
    hyy = 2.0 * gy + 4.0 * sy * sy * (c * P[2] * Q[0] - ky * r[2])
    hzz = 2.0 * gz + 4.0 * sz * sz * (c * P[0] * Q[2] - kz * t[2])
    return value, gy, gz, hyy, 4.0 * sy * sz * c * P[1] * Q[1], hzz


def _newton(profile, k0, scaled, ay, az):
    """Maximise the quotient from (ay, az) in ln(alpha): a Newton step where
    the Hessian is negative definite, else a gradient step, capped at 0.5 and
    halved while the quotient falls by more than rounding.  Stops at a step
    of 1e-10 or below `_ALPHA_FLOOR`; the iteration cap is only a bound."""
    x = (math.log(ay), math.log(az))
    now = _rq_taylor(profile, k0, scaled, x)
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
            trial = _rq_taylor(profile, k0, scaled, trial_x)
            if trial[0] >= value - 4.0 * math.ulp(value):  # a few ulp of fall is rounding
                break
            t *= 0.5
        else:
            break
        x, now = trial_x, trial
        if min(x) < math.log(_ALPHA_FLOOR):
            break
    return math.exp(x[0]), math.exp(x[1])


def _wavenumber(wavelength_nm, **alphas):
    """k0 in 1/um, after the checks of the wavelength and any trial parameters."""
    require_positive(wavelength_nm=wavelength_nm, **alphas)
    require_within("wavelength_nm", wavelength_nm, WAVELENGTH_RANGE_NM, "nm")
    return 2.0 * np.pi / (wavelength_nm * 1e-3)


def rayleigh_quotient(profile, wavelength_nm, alpha_y, alpha_z):
    """Scalar-wave variational estimate of n_eff^2 for one trial field.

    The quadrature order doubles until the estimate stabilises.  An alpha so
    large that the trial field vanishes on every node gives a NaN estimate,
    which ends the refinement with a QuadratureConvergenceError and no numpy
    warning.
    """
    k0 = _wavenumber(wavelength_nm, alpha_y=alpha_y, alpha_z=alpha_z)
    with np.errstate(invalid="ignore"):
        value, _ = refine_scalar(lambda n: _quotient(profile, k0, _quadrature_of(profile, n),
                                                     alpha_y, alpha_z))
    return value


# Best vertex, objective evaluations and iterations of one `minimize`.
NelderMeadResult = namedtuple("NelderMeadResult", "x nfev nit")


def _ordered(*vertices):
    """The three vertices (x, y, f) in np.argsort order of f.  Distinct
    values have one order, found by comparisons; ties and NaN take numpy's."""
    a, b, c = vertices
    if b[2] < a[2]:
        a, b = b, a
    fa, fb, fc = a[2], b[2], c[2]
    if fa < fb:
        if fb < fc:
            return a, b, c
        if fc < fa:
            return c, a, b
        if fa < fc < fb:
            return a, c, b
    return tuple(vertices[i] for i in np.argsort([v[2] for v in vertices]).tolist())


def minimize(fun, simplex, *, xatol, fatol, maxiter, maxfev):
    """Nelder-Mead minimisation of `fun`, which takes a tuple of two floats,
    from the 3 x 2 `simplex`: scipy.optimize.minimize(method="Nelder-Mead",
    adaptive=False) with this `initial_simplex`, operation for operation, with
    its coefficients, argsort, convergence test, `nit` and `nfev`."""
    steps = _nelder_mead_steps(simplex, xatol=xatol, fatol=fatol, maxiter=maxiter,
                               maxfev=maxfev)
    try:
        x = next(steps)
        while True:
            x = steps.send(fun(x))
    except StopIteration as done:
        return done.value


def _nelder_mead_steps(simplex, *, xatol, fatol, maxiter, maxfev):
    """`minimize` as a generator that yields each vertex, is sent its value
    and returns the NelderMeadResult: scipy's N-D arithmetic at N = 2, where a
    centroid column sum is one addition, 1 * v is v and 1 - psi is 0.5.  Out
    of budget, a step stops before its next evaluation (a shrink stores its
    vertex first), counts no iteration and ends the run."""
    sim = np.array(simplex, dtype=float)
    if sim.shape != (3, 2):
        raise ValueError(f"Nelder-Mead needs a 3 x 2 simplex, got shape {sim.shape}")
    vertices, nfev = [(x, y, math.inf) for x, y in sim.tolist()], 0
    for k, (x, y, _) in enumerate(vertices):
        if nfev >= maxfev:
            break
        nfev += 1
        vertices[k] = x, y, float((yield x, y))
    # sorted twice, as scipy does, so that tied values order the same way
    (x0, y0, f0), (x1, y1, f1), (x2, y2, f2) = _ordered(*_ordered(*vertices))

    nit = 1
    while nfev < maxfev and nit < maxiter:
        if (abs(x1 - x0) <= xatol and abs(y1 - y0) <= xatol and abs(x2 - x0) <= xatol
                and abs(y2 - y0) <= xatol and abs(f0 - f1) <= fatol and abs(f0 - f2) <= fatol):
            break
        mx, my = (x0 + x1) / 2, (y0 + y1) / 2
        xr, yr = 2 * mx - x2, 2 * my - y2
        nfev += 1
        fr = float((yield xr, yr))
        if fr < f0:
            if nfev < maxfev:  # expansion
                xe, ye = 3 * mx - 2 * x2, 3 * my - 2 * y2
                nfev += 1
                fe = float((yield xe, ye))
                x2, y2, f2 = (xe, ye, fe) if fe < fr else (xr, yr, fr)
                nit += 1
        elif fr < f1:
            x2, y2, f2 = xr, yr, fr
            nit += 1
        elif nfev < maxfev:  # outside contraction if fr < f2, else inside
            outside = fr < f2
            xc, yc = ((1.5 * mx - 0.5 * x2, 1.5 * my - 0.5 * y2) if outside
                      else (0.5 * mx + 0.5 * x2, 0.5 * my + 0.5 * y2))
            nfev += 1
            fc = float((yield xc, yc))
            if (fc <= fr) if outside else (fc < f2):
                x2, y2, f2 = xc, yc, fc
                nit += 1
            else:  # shrink towards the best vertex
                x1, y1 = x0 + 0.5 * (x1 - x0), y0 + 0.5 * (y1 - y0)
                if nfev < maxfev:
                    nfev += 1
                    f1 = float((yield x1, y1))
                    x2, y2 = x0 + 0.5 * (x2 - x0), y0 + 0.5 * (y2 - y0)
                    if nfev < maxfev:
                        nfev += 1
                        f2 = float((yield x2, y2))
                        nit += 1
        (x0, y0, f0), (x1, y1, f1), (x2, y2, f2) = _ordered((x0, y0, f0), (x1, y1, f1),
                                                            (x2, y2, f2))
    return NelderMeadResult(x=np.array([x0, y0]), nfev=nfev, nit=nit)


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


# One mode solve after its start: grid point and the order locked for a smooth refinement.
_Start = namedtuple("_Start", "profile wavelength_nm k0 order ay az")


def _grid_start(profile, wavelength_nm):
    """Argument and guidance checks and the grid start of one mode solve."""
    k0 = _wavenumber(wavelength_nm)
    if profile.increment < MIN_GUIDING_INCREMENT:
        raise NoGuidedModeError(f"increment {profile.increment:g} below the guiding threshold "
                                f"{MIN_GUIDING_INCREMENT:g}")
    nb, dn, geometry = profile.bulk_index, profile.increment, profile.geometry
    PQ, r, t = _scaled(profile.lateral_scale, profile.depth_scale, GRID_ORDER).grid_terms
    ky, kz = (k0 * geometry.width_um) ** -2, (k0 * geometry.depth_um) ** -2
    grid = nb * nb + 2.0 * nb * dn * PQ - ky * r - kz * t
    iy, iz = divmod(int(np.argmax(grid)), GRID_POINTS)
    return _Start(profile, wavelength_nm, k0, None, *GRID_ALPHAS[[iy, iz]].tolist())


def _refined(starts, points):
    """`refine_rows` of n_eff^2 at each start's (a_y, a_z): `_quotients` per order."""
    return refine_rows(lambda order, rows: _quotients(
        [(starts[i].profile, starts[i].k0, *points[i]) for i in rows], order), len(starts))


def _locked(starts):
    """Each grid start with its converged order, or its QuadratureConvergenceError."""
    return [outcome if isinstance(outcome, PhysicsError) else start._replace(order=outcome[1])
            for start, outcome in zip(starts, _refined(starts, [(s.ay, s.az) for s in starts]))]


def _edge_error(ay, az):
    """The BoundaryOptimumError of an optimum outside the trusted box, else None."""
    lo, hi = ALPHA_MIN * (1.0 + _EDGE_MARGIN), ALPHA_MAX * (1.0 - _EDGE_MARGIN)
    for name, alpha in (("alpha_y", ay), ("alpha_z", az)):
        if not lo <= alpha <= hi:
            edge = ("upper edge", "narrower than the channel scale") if alpha > hi else (
                "lower edge", "wider than the trusted domain (near cutoff)")
            return BoundaryOptimumError(f"{name} optimum at the {edge[0]} of the trusted box "
                                        f"[{ALPHA_MIN}, {ALPHA_MAX}]: the mode is {edge[1]}")
    return None


def _finished(starts, points):
    """Per lane, the edge test, then the adaptive (n_eff^2, order) at its
    refined point (a_y, a_z), or its PhysicsError."""
    outcomes = [_edge_error(*point) for point in points]
    inside = [i for i, error in enumerate(outcomes) if error is None]
    for i, outcome in zip(inside, _refined([starts[i] for i in inside],
                                           [points[i] for i in inside])):
        if not isinstance(outcome, PhysicsError) and outcome[0] <= starts[i].profile.bulk_index**2:
            outcome = NoGuidedModeError(
                f"no confined mode at {starts[i].wavelength_nm:g} nm: variational n_eff^2 "
                f"{outcome[0]:.9f} does not exceed the bulk value")
        outcomes[i] = outcome
    return outcomes


def _norms(geometry, ay, az):
    """y_norm and z_norm, sqrt(int Y^2) and sqrt(int Z^2), in closed form."""
    c = 2.0 * az * az
    y2 = math.sqrt(math.pi / (2.0 * ay * ay)) * math.erf(5.0 * math.sqrt(2.0) * ay)
    z2 = math.sqrt(math.pi) / (4.0 * c * math.sqrt(c)) * math.erf(8.0 * math.sqrt(c))
    return math.sqrt(geometry.width_um * y2), math.sqrt(geometry.depth_um * (
        z2 - 4.0 * math.exp(-64.0 * c) / c))


def _raised(outcomes):
    """The one outcome in `outcomes`, raised if it is a PhysicsError: popped
    first, so that no frame holds it and its traceback makes no cycle."""
    if isinstance(outcomes[0], PhysicsError):
        raise outcomes.pop()
    return outcomes[0]


def _nelder_mead_optima(starts):
    """The Nelder-Mead optimum (a_y, a_z) of each locked start, from its grid
    point.  The runs of each order advance in lock step: one `_rq_rows` of the
    order's live runs per round, restacked once half its rows have ended; a
    vertex below `_ALPHA_FLOOR` scores 1e6."""
    optima = [None] * len(starts)
    for order in {start.order for start in starts}:
        runs, lanes = {}, {}  # per start at this order: its run and its `_rq_rows` lane
        for i, s in enumerate(starts):
            if s.order == order:
                runs[i] = _nelder_mead_steps([[s.ay, s.az], [s.ay * 1.02, s.az],
                                              [s.ay, s.az * 1.02]],
                                             xatol=1e-7, fatol=1e-13, maxiter=1000, maxfev=2000)
                lanes[i] = s.profile, s.k0, _quadrature_of(s.profile, order)
        pending, stacked = {i: next(run) for i, run in runs.items()}, []
        while runs:
            if 2 * len(runs) <= len(stacked) or not stacked:
                stacked = list(runs)
                rq = _rq_rows([lanes[i] for i in stacked])
            xs = [pending[i] for i in stacked]  # an ended run repeats its last vertex
            for i, x, value in zip(stacked, xs, rq(xs)):
                if i in runs:
                    try:
                        pending[i] = runs[i].send(
                            1e6 if x[0] <= _ALPHA_FLOOR or x[1] <= _ALPHA_FLOOR else -value)
                    except StopIteration as done:
                        del runs[i]
                        optima[i] = tuple(done.value.x.tolist())
    return optima


def solve_lanes(jobs) -> list:
    """Per (profile, wavelength_nm, polarization) job (a lane), its
    ModeSolution as `solve_mode` gives it, bit for bit, or its PhysicsError
    without traceback.  Four stages run once each over the lanes still
    solving: `_grid_start` per lane, `_locked`, `_nelder_mead_optima` and
    `_finished`."""
    outcomes = []
    for profile, wavelength_nm, _ in jobs:
        try:
            outcomes.append(_grid_start(profile, wavelength_nm))
        except PhysicsError as error:
            outcomes.append(error.with_traceback(None))
    live = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, _Start)]
    for i, start in zip(live, _locked([outcomes[i] for i in live])):
        outcomes[i] = start
    live = [i for i in live if isinstance(outcomes[i], _Start)]
    starts = [outcomes[i] for i in live]
    optima = _nelder_mead_optima(starts)
    for i, start, (ay, az), done in zip(live, starts, optima, _finished(starts, optima)):
        outcomes[i] = done if isinstance(done, PhysicsError) else ModeSolution(
            float(np.sqrt(done[0])), ay, az, start.wavelength_nm, jobs[i][2], start.profile,
            *_norms(start.profile.geometry, ay, az))
    return outcomes


def effective_index(profile: IndexProfile, wavelength_nm: float) -> float:
    """`solve_mode(...).n_eff` to rounding, with the same checks, grid start,
    order lock, final refinement and errors, refined by `_newton` instead of
    Nelder-Mead: n_eff is stationary in the trial parameters."""
    start = _raised(_locked([_grid_start(profile, wavelength_nm)]))
    scaled = _scaled(profile.lateral_scale, profile.depth_scale, start.order)
    ay, az = _newton(profile, start.k0, scaled, start.ay, start.az)
    return math.sqrt(_raised(_finished([start], [(ay, az)]))[0])


def solve_mode(profile: IndexProfile, wavelength_nm: float, polarization: Polarization) -> ModeSolution:
    """Maximise the Rayleigh quotient over the trial parameters; the one-lane
    case of `solve_lanes`.

    Raises NoGuidedModeError when the profile cannot confine a mode and
    BoundaryOptimumError when the optimum sticks to the search-box edge.
    """
    return _raised(solve_lanes([(profile, wavelength_nm, polarization)]))


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
        y, wy = panel_nodes(_y_edges(geometry.width_um), order)
        z, wz = panel_nodes(_z_edges(geometry.depth_um), order)
        iy = wy.dot(a.y_factor(y) * b.y_factor(y) * c.y_factor(y))
        iz = wz.dot(a.z_factor(z) * b.z_factor(z) * c.z_factor(z))
        return iy * iz

    value, _ = refine_scalar(evaluate, rtol=1e-11, atol=1e-16)
    return float(value)
