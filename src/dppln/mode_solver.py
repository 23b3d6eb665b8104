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

The optimiser is deterministic: a 16x16 logarithmic scan of (a_y, a_z) in
[0.2, 5]^2 followed by Nelder-Mead refinement (Nelder & Mead, Comput. J. 7,
308 (1965)) from the best grid point with a fixed initial simplex.  The step
`_nelder_mead_steps` keeps the three vertices as plain floats and repeats,
operation for operation, the floating-point trajectory of SciPy's
non-adaptive N-D Nelder-Mead on the objective `_rq_rows`; `minimize` drives
it for one objective, and `solve_lanes` runs many solves (lanes, about 45 KB
each) in lock step, one stacked evaluation per round, each lane bit for bit
on its own trajectory; `design_search` batches the waves of a design and the
rows of a sweep, so rows agree across `--parallel` by construction.  The y
nodes, weights and channel g(y) are exact mirror images, so `_rq_rows`
evaluates the y integrands on half the nodes and mirrors them into full rows.
The order lock at the grid point refines all the lanes of a batch together,
and the final n_eff^2 all those whose runs end in one round
(`quadrature.refine_rows`): one stacked `_rq_rows` per Gauss order for the
lanes still refining, each stopping as `refine_scalar` would.  The grid scan, the mode norms and `effective_index` read the
quotient from Gaussian moment rows instead; `effective_index` needs n_eff
only, which is stationary at the optimum, so it refines by safeguarded
Newton steps (Nocedal & Wright, Numerical Optimization, ch. 3).  Quadrature
nodes and profile samples depend on the geometry, diffusion scales and Gauss
order only, so they are built once per shape and order; the moment rows are
built on first use, which the orders read only by `_rq_rows` never reach.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache, partial

import numpy as np

from .dispersion import Polarization
from .errors import (
    BoundaryOptimumError,
    ConfigurationError,
    ConsistencyError,
    NoGuidedModeError,
    PhysicsError,
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
# Longest supported interaction length in cm.
MAX_LENGTH_CM = 10.0


def _erf(x):
    """math.erf elementwise: a float array of the shape of `x` (0-d for a scalar)."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


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
    shape at one per-panel Gauss order, shared read-only via `_quadrature`.
    The moment rows are built on first use: the objective never reads them."""

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
        self.u = self.y2 / self.w**2
        for array in (self.y2, self.g, self.z2, self.zh2, self.f, self.u):
            array.flags.writeable = False

    # Moment rows: with u = (y/w)^2 and v2 = (z/h)^2, `y_rows @ Y^2` is
    # int u^k Y^2 (k <= 3), int g u^k Y^2 (k <= 2), and `z_rows @ e` with
    # e = exp(-2 a_z^2 v2) is int v2^k e (k <= 4), int f v2^k e (k = 1..3).
    @cached_property
    def y_rows(self):
        return _read_only(np.array([self.wy * self.u**k for k in range(4)]
                                   + [self.wy * self.g * self.u**k for k in range(3)]))

    @cached_property
    def z_rows(self):
        v2 = self.zh2
        return _read_only(np.array([self.wz * v2**k for k in range(5)]
                                   + [self.wz * self.f * v2**k for k in range(1, 4)]))

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
        return _read_only(np.array([f[0] for f in _ratios(s, y_moments, s, z_moments)]))


def _read_only(array):
    array.flags.writeable = False
    return array


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


def _quadratures(profile, quadrature=_quadrature):
    """order -> the shared _Quadrature of `profile` with its indices zeroed."""
    return partial(quadrature, replace(profile, bulk_index=0.0, increment=0.0))


def _rq_rows(lanes):
    """The Nelder-Mead objective by direct quadrature for lanes (profile, k0,
    _Quadrature) of one Gauss order: [(a_y, a_z) per lane] -> [n_eff^2 per
    lane].  Several lanes are rows of stacked arrays; one lane keeps its own
    1-D arrays and floats, which saves a third of its cost.  Either way lane
    i's arithmetic is the same bit for bit: elementwise ufuncs and one ddot
    per row.  The y nodes, weights and g(y) are mirror images (`_y_edges` and
    the Gauss nodes are symmetric, and IEEE rounding is sign-symmetric), so
    the y integrands are computed on the first half of the nodes and copied,
    reversed, into the second half of each full row before its dot.  One
    scale s = -2 a^2 per axis serves the exponent and, squared, the
    derivative factor.  It equals the moment form to rounding; its rounding
    fixes the design numbers.  The scratch arrays are the function's own."""
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


def _wavenumber(wavelength_nm, **alphas):
    """k0 in 1/um, once the wavelength and any trial parameters are finite
    and positive; else a ConfigurationError naming the first bad one."""
    for name, value in (("wavelength_nm", wavelength_nm), *alphas.items()):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigurationError(f"{name} must be finite and positive, got {value!r}", name)
    return 2.0 * np.pi / (wavelength_nm * 1e-3)


def rayleigh_quotient(profile, wavelength_nm, alpha_y, alpha_z):
    """Scalar-wave variational estimate of n_eff^2 for one trial field.

    The quadrature order doubles until the estimate stabilises.
    """
    k0 = _wavenumber(wavelength_nm, alpha_y=alpha_y, alpha_z=alpha_z)
    quad = _quadratures(profile)
    value, _ = refine_scalar(lambda n: _quotient(profile, k0, quad(n), alpha_y, alpha_z))
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
_Start = namedtuple("_Start", "profile wavelength_nm k0 quad order ay az")


def _grid_start(profile, wavelength_nm, quadrature):
    """Argument and guidance checks and the grid start of one mode solve; its
    order is locked by `_locked`."""
    k0 = _wavenumber(wavelength_nm)
    if profile.increment < MIN_GUIDING_INCREMENT:
        raise NoGuidedModeError(
            f"increment {profile.increment:g} below the guiding threshold "
            f"{MIN_GUIDING_INCREMENT:g}"
        )
    quad = _quadratures(profile, quadrature)
    nb, dn, geometry = profile.bulk_index, profile.increment, profile.geometry
    P, r, Q, t = quad(GRID_ORDER).grid_ratios
    grid = (nb**2 + 2.0 * nb * dn * np.outer(P, Q)
            - np.add.outer(r / geometry.width_um**2, t / geometry.depth_um**2) / k0**2)
    iy, iz = np.unravel_index(int(np.argmax(grid)), grid.shape)
    return _Start(profile, wavelength_nm, k0, quad, None, float(GRID_ALPHAS[iy]),
                  float(GRID_ALPHAS[iz]))


def _refined(starts, points):
    """`refine_rows` of the quotient of each start's lane at its (a_y, a_z):
    one `_rq_rows` per order for every lane still refining."""
    return refine_rows(lambda order, rows: _rq_rows(
        [(starts[i].profile, starts[i].k0, starts[i].quad(order)) for i in rows])(
        [points[i] for i in rows]), len(starts))


def _locked(starts):
    """Each grid start with the order its quotient converges at, or its
    QuadratureConvergenceError."""
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


def _raised(outcome):
    """A lane's outcome, raised if it is a PhysicsError."""
    if isinstance(outcome, PhysicsError):
        raise outcome
    return outcome


def _start(profile, wavelength_nm):
    """Checks, grid start and order lock of one mode solve: one lane of `_locked`."""
    return _raised(_locked([_grid_start(profile, wavelength_nm, _quadrature)])[0])


def _finish(start, ay, az):
    """Edge test and adaptive (n_eff^2, order) at the refined (a_y, a_z): one
    lane of `_finished`."""
    return _raised(_finished([start], [(ay, az)])[0])


def solve_lanes(groups) -> list:
    """Solve groups of (profile, wavelength_nm, polarization) jobs (lanes) as
    `solve_mode` does, bit for bit: per group, the ModeSolutions in job order
    up to its first failure, a PhysicsError without traceback, which stops the
    group's later lanes.  The orders of all lanes are locked at once; each
    round then evaluates `_rq_rows` once per locked order at the pending
    vertex of every Nelder-Mead run, and restacks an order once half its rows
    have ended; a vertex below `_ALPHA_FLOOR` scores 1e6.  The runs that end
    in a round are finished together at its end, in (group, index) order."""
    quadrature = cache(_quadrature)  # every shape and order stays built for the batch
    results = [[None] * len(jobs) for jobs in groups]
    failed = [len(jobs) for jobs in groups]  # the index of each group's first failure
    lanes, starts = [], []  # (group, index in it, polarization) and `_Start` of each lane
    for g, jobs in enumerate(groups):
        for k, (profile, wavelength_nm, polarization) in enumerate(jobs):
            try:
                starts.append(_grid_start(profile, wavelength_nm, quadrature))
            except PhysicsError as error:
                results[g][k], failed[g] = error.with_traceback(None), k
                break
            lanes.append((g, k, polarization))

    def settle(done, outcomes):
        """Record the failures among the outcomes of lanes `done`, in (group,
        index) order, and return the (lane, outcome) pairs of the rest that
        no earlier failure of their group makes moot."""
        kept = []
        for i, outcome in zip(done, outcomes):
            g, k, _ = lanes[i]
            if k > failed[g]:
                continue
            if isinstance(outcome, PhysicsError):
                results[g][k], failed[g] = outcome, k
            else:
                kept.append((i, outcome))
        return kept

    starts = _locked(starts)
    runs = {i: _nelder_mead_steps([[s.ay, s.az], [s.ay * 1.02, s.az], [s.ay, s.az * 1.02]],
                                  xatol=1e-7, fatol=1e-13, maxiter=1000, maxfev=2000)
            for i, s in settle(range(len(starts)), starts)}
    pending = {i: next(run) for i, run in runs.items()}
    stacks = {}  # order -> (its stacked runs, their objective)
    while runs:
        ended = []  # (lane, its optimum) of each run that ends this round
        # an order's runs leave `runs` only in its own pass, so `live` is never empty
        for order in {starts[i].order for i in runs}:
            live = [i for i in runs if starts[i].order == order]
            stacked, rq = stacks.get(order, ((), None))
            if 2 * len(live) <= len(stacked) or not stacked:
                stacked, rq = stacks[order] = live, _rq_rows(
                    [(starts[i].profile, starts[i].k0, starts[i].quad(order)) for i in live])
            xs = [pending[i] for i in stacked]  # an ended run repeats its last vertex
            for i, x, value in zip(stacked, xs, rq(xs)):
                if i in runs:
                    try:
                        pending[i] = runs[i].send(
                            1e6 if x[0] <= _ALPHA_FLOOR or x[1] <= _ALPHA_FLOOR else -value)
                    except StopIteration as done:
                        del runs[i]
                        ended.append((i, tuple(done.value.x.tolist())))
        if not ended:
            continue
        ended = dict(sorted(ended))  # lanes are numbered in (group, index) order
        finished = _finished([starts[i] for i in ended], list(ended.values()))
        for i, (n_eff_sq, final) in settle(ended, finished):
            (g, k, polarization), start, (ay, az) = lanes[i], starts[i], ended[i]
            y_moments, z_moments = start.quad(final).moments(ay * ay, az * az)
            results[g][k] = ModeSolution(  # the norms are int Y^2 and int Z^2
                float(np.sqrt(n_eff_sq)), ay, az, start.wavelength_nm, polarization,
                start.profile, math.sqrt(y_moments[0]), math.sqrt(z_moments[1]))
        for i in [i for i in runs if lanes[i][1] > failed[lanes[i][0]]]:
            del runs[i]  # moot: an earlier lane of its group failed
    return [row[:k + 1] for row, k in zip(results, failed)]


def effective_index(profile: IndexProfile, wavelength_nm: float) -> float:
    """`solve_mode(...).n_eff` to rounding, with the same checks and errors,
    refined by `_newton`: n_eff is stationary in the trial parameters."""
    start = _start(profile, wavelength_nm)
    ay, az = _newton(profile, start.k0, start.quad(start.order), start.ay, start.az)
    return math.sqrt(_finish(start, ay, az)[0])


def solve_mode(profile: IndexProfile, wavelength_nm: float, polarization: Polarization) -> ModeSolution:
    """Maximise the Rayleigh quotient over the trial parameters; the one-lane
    case of `solve_lanes`.

    Raises NoGuidedModeError when the profile cannot confine a mode and
    BoundaryOptimumError when the optimum sticks to the search-box edge.
    """
    results = solve_lanes([[(profile, wavelength_nm, polarization)]])[0]
    if isinstance(results[0], PhysicsError):
        raise results.pop()  # held by no frame, so the traceback makes no cycle
    return results[0]


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
