"""Bulk dispersion of congruent lithium niobate and titanium-indiffusion index increments.

Conventions
-----------
* wavelengths are vacuum wavelengths in nanometres,
* refractive indices and index increments are dimensionless,
* lithium niobate is negative uniaxial: n_e < n_o everywhere in range.

The default Sellmeier coefficients are the congruent-melt values of
Zelmon, Small and Jundt, J. Opt. Soc. Am. B 14, 3319 (1997), measured at
21 C and commonly applied at room temperature (here tagged 25 C); they are
valid from 0.4 to 5.0 um.  Alternative coefficient sets can be registered
and selected through the run configuration, which also carries the
temperature tag of the set.

The titanium-indiffusion surface increments for extraordinary polarization
are tabulated at the five operating wavelengths of the dual-poling designs.
No published ordinary-polarization values accompany them; the shipped
ordinary table is an assumption calibrated against the cross-polarized
design targets and should be overridden in the configuration when measured
values are available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, WavelengthRangeError, require_positive


class Polarization(Enum):
    ORDINARY = "ordinary"
    EXTRAORDINARY = "extraordinary"

    def __str__(self):
        return self.value


# Sellmeier terms are (B_j, C_j) pairs of n^2(lam) = 1 + sum B_j lam^2 / (lam^2 - C_j),
# with lam in micrometres and C_j in um^2.
SellmeierTerms = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class SellmeierModel:
    """Three-pole Sellmeier expansion per polarization for a uniaxial crystal."""

    name: str
    temperature_c: float
    valid_range_nm: tuple[float, float]
    terms: Mapping[Polarization, SellmeierTerms]

    def index(self, pol: Polarization, wavelength_nm: float) -> float:
        lo, hi = self.valid_range_nm
        if not (lo <= wavelength_nm <= hi):
            raise WavelengthRangeError(
                f"{wavelength_nm:g} nm outside the valid range "
                f"[{lo:g}, {hi:g}] nm of Sellmeier set '{self.name}'"
            )
        lam2 = (wavelength_nm * 1e-3) ** 2
        n2 = 1.0
        try:
            for B, C in self.terms[pol]:
                n2 += B * lam2 / (lam2 - C)
        except ZeroDivisionError:  # a pole at this very wavelength
            n2 = math.inf
        if not 1.0 <= n2 < math.inf:  # the guide's bulk index is at least the air cover's
            raise ConfigurationError(
                f"Sellmeier set '{self.name}' gives n^2 = {n2:g} for {pol} polarization "
                f"at {wavelength_nm:g} nm; expected a finite value of at least 1"
            )
        return float(np.sqrt(n2))


ZELMON_1997 = SellmeierModel(
    name="zelmon1997",
    temperature_c=25.0,
    valid_range_nm=(400.0, 5000.0),
    terms={
        Polarization.ORDINARY: ((2.6734, 0.01764), (1.2290, 0.05914), (12.614, 474.60)),
        Polarization.EXTRAORDINARY: ((2.9804, 0.02047), (0.5981, 0.0666), (8.9543, 416.08)),
    },
)

SELLMEIER_MODELS = {ZELMON_1997.name: ZELMON_1997}


@dataclass(frozen=True)
class IndexIncrementTable:
    """Surface index increment vs wavelength, piecewise linear with end clamping.

    `entries` maps each polarization to an ascending tuple of
    (wavelength_nm, delta_n) support points.
    """

    entries: Mapping[Polarization, tuple[tuple[float, float], ...]]

    def __post_init__(self):
        for pol, table in self.entries.items():
            lams = [lam for lam, _ in table]
            if any(b <= a for a, b in zip(lams, lams[1:])):
                raise ConfigurationError(
                    f"{pol} increment table must be strictly ascending in wavelength", pol.value
                )
            for lam, dn in table:
                if not (0.0 < dn < 0.01):
                    raise ConfigurationError(
                        f"{pol} increment {dn:g} at {lam:g} nm outside (0, 0.01)", pol.value
                    )

    def increment(self, pol: Polarization, wavelength_nm: float) -> float:
        table = self.entries.get(pol, ())
        if not table:
            raise ConfigurationError(f"no index-increment table for {pol} polarization")
        require_positive(wavelength_nm=wavelength_nm)
        lams = np.array([lam for lam, _ in table])
        vals = np.array([dn for _, dn in table])
        # np.interp clamps to the end values outside the tabulated span
        return float(np.interp(wavelength_nm, lams, vals))


# Extraordinary increments at the five design wavelengths (pump, two signals,
# two idlers) of the dual-poling source.
TI_INCREMENTS_EXTRAORDINARY = (
    (519.0, 0.0037),
    (775.0, 0.0030),
    (780.0, 0.0030),
    (1551.03, 0.0025),
    (1571.19, 0.0025),
)

# Assumed ordinary increments (no published values for this waveguide recipe):
# equal to the extraordinary increment at the pump, flat 0.0024 from the red
# onwards.  Calibrated so the cross-polarized designs reproduce their target
# entanglement/period tables; override via the material configuration.
TI_INCREMENTS_ORDINARY = (
    (519.0, 0.0037),
    (775.0, 0.0024),
    (780.0, 0.0024),
    (1551.03, 0.0024),
    (1571.19, 0.0024),
)

DEFAULT_INCREMENTS = IndexIncrementTable(
    {
        Polarization.EXTRAORDINARY: TI_INCREMENTS_EXTRAORDINARY,
        Polarization.ORDINARY: TI_INCREMENTS_ORDINARY,
    }
)


@dataclass(frozen=True)
class Material:
    """Sellmeier model plus increment tables: everything dispersion provides."""

    sellmeier: SellmeierModel = ZELMON_1997
    increments: IndexIncrementTable = DEFAULT_INCREMENTS
    # Shape constants of the diffused-index profile, overridable in config:
    # lateral erf scale w_d = lateral_scale * width, depth 1/e scale
    # depth_scale * depth.
    lateral_scale: float = 0.5
    depth_scale: float = 2.0

    def __post_init__(self):
        require_positive(lateral_scale=self.lateral_scale, depth_scale=self.depth_scale)


DEFAULT_MATERIAL = Material()
