"""A finite-difference oracle for the variational effective index.

Every other n_eff oracle of the suite evaluates the solver's own variational
quotient, so none would see a wrong term in it.  This one solves the scalar
Helmholtz equation nabla^2 E + k0^2 n^2 E = beta^2 E on the solver's box,
y in [-5w, 5w] and z in [0, 8h], with Dirichlet walls (z = 0 is the trial
field's node), by a 5-point Laplacian at steps of 0.5 and 0.25 um, a
shift-invert `eigsh` and one Richardson step (the finite-difference method
for graded profiles of Stern, IEE Proc. J 135, 56 (1988)).  By Rayleigh-Ritz
the variational n_eff is a lower bound of the converged one.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from dppln import EffectiveIndexSolver, idler_wavelength
from dppln.config import load_config

CONFIGS = Path(__file__).parent.parent / "configs"
STEPS_UM = (0.5, 0.25)
# The largest gap n_FD - n_var accepted: the trial fields' model error.
MAX_GAP = 1e-4


def fd_index(profile, wavelength_nm, step_um):
    """The fundamental mode's n_eff of the 5-point scheme at `step_um`."""
    w, h = profile.geometry.width_um, profile.geometry.depth_um
    ny, nz = round(10.0 * w / step_um) - 1, round(8.0 * h / step_um) - 1
    y = -5.0 * w + step_um * np.arange(1, ny + 1)
    z = step_um * np.arange(1, nz + 1)
    k0 = 2.0 * math.pi / (wavelength_nm * 1e-3)
    n2 = profile.index(y[:, None], z[None, :]) ** 2

    def second_difference(n):
        return sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / step_um**2

    # rows run over y, each over z: z is the fast index of the flattened field
    operator = (sparse.kronsum(second_difference(nz), second_difference(ny))
                + sparse.diags(k0**2 * n2.ravel())).tocsc()
    # every eigenvalue lies below k0^2 max(n^2), the fundamental one nearest it
    beta2 = eigsh(operator, k=1, sigma=k0**2 * n2.max(), which="LM", v0=np.ones(ny * nz),
                  return_eigenvectors=False)[0]
    return math.sqrt(beta2) / k0


@pytest.mark.parametrize("config, role", [("type0_w10.yaml", "pump"),
                                          ("type0_w10.yaml", "idler_1"),
                                          ("type2_w6p5.yaml", "idler_1")])
def test_the_variational_index_is_a_lower_bound_of_the_finite_difference_index(config, role):
    loaded = load_config(str(CONFIGS / config))
    request = loaded.request()
    wavelength_nm = {"pump": request.pump_nm,
                     "idler_1": idler_wavelength(request.pump_nm, request.signal1_nm)}[role]
    pol = request.scheme.polarizations()[role]
    solver = EffectiveIndexSolver(loaded.material, request.geometry)
    coarse, fine = (fd_index(solver.profile(wavelength_nm, pol), wavelength_nm, step)
                    for step in STEPS_UM)
    extrapolated = fine + (fine - coarse) / 3.0  # the scheme's error is O(step^2)
    estimate = abs(extrapolated - fine)
    n_var = solver.solve(wavelength_nm, pol).n_eff
    assert n_var <= extrapolated + estimate, (n_var, extrapolated, estimate)
    assert extrapolated - n_var <= MAX_GAP, (n_var, extrapolated)
