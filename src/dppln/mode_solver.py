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
(a_y, a_z) in [0.2, 5]^2 followed by Nelder-Mead refinement from the best
grid point with a fixed initial simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import erf

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
# Optima this close to the box edge are treated as untrusted geometry.
_EDGE_MARGIN = 0.015
# Increments below this cannot produce a trustworthy bound mode.
MIN_GUIDING_INCREMENT = 1e-5

COVER_INDEX = 1.0


@dataclass(frozen=True)
class WaveguideGeometry:
    """Channel geometry: lateral width and diffusion depth in um, length in cm."""

    width_um: float
    depth_um: float
    length_cm: float

    def __post_init__(self):
        if self.length_cm <= 0:
            raise ConfigurationError("interaction length must be positive")
        for name, v in (("width", self.width_um), ("depth", self.depth_um)):
            if not (1.0 <= v <= 50.0):
                raise ConfigurationError(
                    f"{name} {v:g} um outside the supported range [1, 50] um"
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
        return 0.5 * (erf((w / 2 + y) / wd) + erf((w / 2 - y) / wd))

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


def _y_integrals(profile, alphas_y, order):
    """(A_y, G_y, D_y) = (int Y^2, int g Y^2, int Y'^2) for each alpha_y."""
    w = profile.geometry.width_um
    y, wt = panel_nodes(_y_edges(profile.geometry), order)
    a = np.atleast_1d(np.asarray(alphas_y, dtype=float))[:, None]
    Y2 = np.exp(-2.0 * a**2 * y**2 / w**2)
    g = profile.lateral_shape(y)
    A = Y2 @ wt
    G = (Y2 * g) @ wt
    D = (Y2 * (2.0 * a**2 * y / w**2) ** 2) @ wt
    return A, G, D


def _z_integrals(profile, alphas_z, order):
    """(A_z, F_z, D_z) = (int Z^2, int f Z^2, int Z'^2) for each alpha_z."""
    h = profile.geometry.depth_um
    z, wt = panel_nodes(_z_edges(profile.geometry), order)
    a = np.atleast_1d(np.asarray(alphas_z, dtype=float))[:, None]
    envelope = np.exp(-2.0 * a**2 * z**2 / h**2)
    Z2 = (z / h) ** 2 * envelope
    f = profile.depth_shape(z)
    A = Z2 @ wt
    F = (Z2 * f) @ wt
    D = (envelope * (1.0 - 2.0 * a**2 * z**2 / h**2) ** 2 / h**2) @ wt
    return A, F, D


def _assemble_rq(profile, k0, y_ints, z_ints):
    Ay, Gy, Dy = y_ints
    Az, Fz, Dz = z_ints
    nb, dn = profile.bulk_index, profile.increment
    return (
        nb**2
        + 2.0 * nb * dn * np.outer(Gy / Ay, Fz / Az)
        - (np.add.outer(Dy / Ay, Dz / Az)) / k0**2
    )


def _rq_scalar(profile, k0, alpha_y, alpha_z, order):
    return float(
        _assemble_rq(
            profile,
            k0,
            _y_integrals(profile, alpha_y, order),
            _z_integrals(profile, alpha_z, order),
        )[0, 0]
    )


def rayleigh_quotient(profile, wavelength_nm, alpha_y, alpha_z):
    """Scalar-wave variational estimate of n_eff^2 for one trial field.

    The quadrature order doubles until the estimate stabilises.
    """
    if alpha_y <= 0 or alpha_z <= 0:
        raise ConfigurationError("trial parameters must be positive")
    k0 = 2.0 * np.pi / (wavelength_nm * 1e-3)
    value, _ = refine_scalar(lambda n: _rq_scalar(profile, k0, alpha_y, alpha_z, n))
    return value


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


def solve_mode(profile: IndexProfile, wavelength_nm: float, polarization: Polarization) -> ModeSolution:
    """Maximise the Rayleigh quotient over the trial parameters.

    Raises NoGuidedModeError when the profile cannot confine a mode and
    BoundaryOptimumError when the optimum sticks to the search-box edge.
    """
    if profile.increment < MIN_GUIDING_INCREMENT:
        raise NoGuidedModeError(
            f"increment {profile.increment:g} below the guiding threshold "
            f"{MIN_GUIDING_INCREMENT:g}"
        )
    k0 = 2.0 * np.pi / (wavelength_nm * 1e-3)
    alphas = np.geomspace(ALPHA_MIN, ALPHA_MAX, GRID_POINTS)

    grid = _assemble_rq(
        profile,
        k0,
        _y_integrals(profile, alphas, GRID_ORDER),
        _z_integrals(profile, alphas, GRID_ORDER),
    )
    iy, iz = np.unravel_index(int(np.argmax(grid)), grid.shape)
    x0 = np.array([alphas[iy], alphas[iz]])

    # Lock the quadrature order for the local refinement so the objective is
    # smooth, then re-evaluate adaptively at the optimum.
    _, order = refine_scalar(lambda n: _rq_scalar(profile, k0, x0[0], x0[1], n))

    def negative_rq(x):
        if x[0] <= 0.05 or x[1] <= 0.05:
            return 1e6
        return -_rq_scalar(profile, k0, x[0], x[1], order)

    simplex = np.array([x0, x0 * [1.02, 1.0], x0 * [1.0, 1.02]])
    result = minimize(
        negative_rq,
        x0,
        method="Nelder-Mead",
        options=dict(
            initial_simplex=simplex,
            xatol=1e-7,
            fatol=1e-13,
            maxiter=1000,
            maxfev=2000,
        ),
    )
    ay, az = result.x
    lo = ALPHA_MIN * (1.0 + _EDGE_MARGIN)
    hi = ALPHA_MAX * (1.0 - _EDGE_MARGIN)
    if not (lo <= ay <= hi and lo <= az <= hi):
        raise BoundaryOptimumError(
            f"trial-parameter optimum ({ay:.3f}, {az:.3f}) at the search-box "
            f"boundary [{ALPHA_MIN}, {ALPHA_MAX}]^2; geometry outside the trusted regime"
        )

    n_eff_sq, order = refine_scalar(lambda n: _rq_scalar(profile, k0, ay, az, n))
    if n_eff_sq <= profile.bulk_index**2:
        raise NoGuidedModeError(
            f"no confined mode at {wavelength_nm:g} nm: variational n_eff^2 "
            f"{n_eff_sq:.9f} does not exceed the bulk value"
        )

    Ay, _, _ = _y_integrals(profile, ay, order)
    Az, _, _ = _z_integrals(profile, az, order)
    return ModeSolution(
        n_eff=float(np.sqrt(n_eff_sq)),
        alpha_y=float(ay),
        alpha_z=float(az),
        wavelength_nm=wavelength_nm,
        polarization=polarization,
        profile=profile,
        y_norm=float(np.sqrt(Ay[0])),
        z_norm=float(np.sqrt(Az[0])),
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
        iy = wy @ (a.y_factor(y) * b.y_factor(y) * c.y_factor(y))
        iz = wz @ (a.z_factor(z) * b.z_factor(z) * c.z_factor(z))
        return iy * iz

    value, _ = refine_scalar(evaluate, rtol=1e-11, atol=1e-16)
    return float(value)
