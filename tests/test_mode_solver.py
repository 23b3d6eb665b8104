import numpy as np
import pytest

from dppln import (
    BoundaryOptimumError,
    ConfigurationError,
    ConsistencyError,
    IndexProfile,
    NoGuidedModeError,
    Polarization,
    WaveguideGeometry,
    field_overlap,
    rayleigh_quotient,
    solve_mode,
)

E = Polarization.EXTRAORDINARY

# Hand-derived closed form for the overlap of three identical unit-norm
# isotropic Gaussians of width sigma: I = 2 / (3 sqrt(pi) sigma).
TRIPLE_GAUSSIAN_SIGMA = 1.25
TRIPLE_GAUSSIAN_OVERLAP = 0.30090111122547002


def dense_rq_oracle(profile, wavelength_nm, alpha_y, alpha_z, n=2001):
    """High-resolution trapezoid evaluation of the Rayleigh quotient."""
    w = profile.geometry.width_um
    h = profile.geometry.depth_um
    k0 = 2.0 * np.pi / (wavelength_nm * 1e-3)
    y = np.linspace(-5.0 * w, 5.0 * w, n)
    z = np.linspace(0.0, 8.0 * h, n)
    Y = np.exp(-alpha_y**2 * y**2 / w**2)
    dY = -2.0 * alpha_y**2 * y / w**2 * Y
    env = np.exp(-alpha_z**2 * z**2 / h**2)
    Z = (z / h) * env
    dZ = (1.0 - 2.0 * alpha_z**2 * z**2 / h**2) * env / h
    E2 = np.outer(Y**2, Z**2)
    grad2 = np.outer(dY**2, Z**2) + np.outer(Y**2, dZ**2)
    n_sq = profile.bulk_index**2 + 2.0 * profile.bulk_index * profile.increment * np.outer(
        profile.lateral_shape(y), profile.depth_shape(z)
    )
    numerator = np.trapezoid(np.trapezoid(k0**2 * n_sq * E2 - grad2, z, axis=1), y)
    denominator = k0**2 * np.trapezoid(np.trapezoid(E2, z, axis=1), y)
    return numerator / denominator


def dense_overlap_oracle(a, b, c, n=2001):
    """High-resolution trapezoid evaluation of the triple-field overlap."""
    geometry = a.profile.geometry
    y = np.linspace(-5.0 * geometry.width_um, 5.0 * geometry.width_um, n)
    z = np.linspace(0.0, 8.0 * geometry.depth_um, n)
    iy = np.trapezoid(a.y_factor(y) * b.y_factor(y) * c.y_factor(y), y)
    iz = np.trapezoid(a.z_factor(z) * b.z_factor(z) * c.z_factor(z), z)
    return iy * iz


def random_profiles(count, seed=20240811):
    rng = np.random.default_rng(seed)
    profiles = []
    for _ in range(count):
        geometry = WaveguideGeometry(
            width_um=float(rng.uniform(5.0, 14.0)),
            depth_um=float(rng.uniform(5.0, 14.0)),
            length_cm=1.0,
        )
        profiles.append(
            IndexProfile(
                geometry,
                bulk_index=float(rng.uniform(2.10, 2.30)),
                increment=float(rng.uniform(0.0015, 0.006)),
            )
        )
    return profiles


class GaussianStubMode:
    """Separable unit-norm Gaussian field standing in for a ModeSolution."""

    def __init__(self, geometry, sigma, y_center=0.0, z_center=None):
        self.profile = IndexProfile(geometry, 2.2, 0.003)
        self.sigma = sigma
        self.y_center = y_center
        self.z_center = 4.0 * geometry.depth_um if z_center is None else z_center

    def _norm(self):
        return (np.pi * self.sigma**2) ** 0.25

    def y_factor(self, y):
        u = np.asarray(y, dtype=float) - self.y_center
        return np.exp(-(u**2) / (2.0 * self.sigma**2)) / self._norm()

    def z_factor(self, z):
        u = np.asarray(z, dtype=float) - self.z_center
        return np.exp(-(u**2) / (2.0 * self.sigma**2)) / self._norm()


@pytest.fixture(scope="module")
def solved_idler_10():
    profile = IndexProfile(WaveguideGeometry(10.0, 10.0, 1.0), 2.137530, 0.0025)
    return solve_mode(profile, 1551.03, E)


def test_geometry_validation():
    with pytest.raises(ConfigurationError):
        WaveguideGeometry(0.5, 10.0, 1.0)
    with pytest.raises(ConfigurationError):
        WaveguideGeometry(10.0, 60.0, 1.0)
    with pytest.raises(ConfigurationError):
        WaveguideGeometry(10.0, 10.0, 0.0)


def test_make_profile_rejects_nonpositive_increment():
    # IndexProfile is built directly; a non-positive increment is refused
    # when a mode is asked of it (outside input is range-checked earlier,
    # by IndexIncrementTable)
    geometry = WaveguideGeometry(10.0, 10.0, 1.0)
    with pytest.raises(NoGuidedModeError):
        solve_mode(IndexProfile(geometry, 2.2, 0.0), 1551.03, E)
    with pytest.raises(NoGuidedModeError):
        solve_mode(IndexProfile(geometry, 2.2, -0.001), 1551.03, E)


def test_profile_limits():
    geometry = WaveguideGeometry(10.0, 10.0, 1.0)
    profile = IndexProfile(geometry, 2.1778, 0.0030)
    # far outside the channel the index falls back to the bulk value
    assert profile.index(500.0, 5.0) == pytest.approx(2.1778, abs=1e-12)
    # the cover is air
    assert profile.index(0.0, -1.0) == 1.0
    # peak index: n_b + dn * g(0) * max f, to the linearisation accuracy of
    # the squared-index profile model
    g0 = profile.lateral_shape(0.0)
    assert profile.index(0.0, 0.0) == pytest.approx(2.1778 + 0.0030 * g0 * 1.0, abs=3e-6)


def test_rayleigh_quotient_homogeneous_limit():
    geometry = WaveguideGeometry(10.0, 10.0, 1.0)
    uniform = IndexProfile(geometry, 2.2, 0.0)
    rq_mid = rayleigh_quotient(uniform, 1000.0, 1.0, 1.0)
    rq_broad = rayleigh_quotient(uniform, 1000.0, 0.3, 0.3)
    assert rq_mid < 2.2**2
    assert rq_broad < 2.2**2
    # the gradient penalty shrinks as the trial field broadens
    assert rq_broad > rq_mid


def test_rayleigh_quotient_bounded_by_peak_index():
    profile = IndexProfile(WaveguideGeometry(8.0, 8.0, 1.0), 2.2, 0.004)
    bound = (2.2 + 0.004) ** 2
    for ay in (0.3, 1.0, 3.0):
        for az in (0.3, 1.0, 3.0):
            assert rayleigh_quotient(profile, 900.0, ay, az) <= bound


def test_rayleigh_quotient_matches_dense_grid_oracle():
    rng = np.random.default_rng(7)
    for profile in random_profiles(5):
        lam = float(rng.uniform(600.0, 1600.0))
        ay = float(rng.uniform(0.4, 3.0))
        az = float(rng.uniform(0.4, 3.0))
        fast = rayleigh_quotient(profile, lam, ay, az)
        oracle = dense_rq_oracle(profile, lam, ay, az)
        assert fast == pytest.approx(oracle, rel=1e-6)


def test_rayleigh_quotient_rejects_bad_alphas():
    profile = IndexProfile(WaveguideGeometry(10.0, 10.0, 1.0), 2.2, 0.003)
    with pytest.raises(ConfigurationError):
        rayleigh_quotient(profile, 900.0, -1.0, 1.0)


def test_solve_mode_guidance_bracket(solved_idler_10):
    mode = solved_idler_10
    nb, dn = mode.profile.bulk_index, mode.profile.increment
    assert nb < mode.n_eff < nb + dn


def test_solve_mode_monotone_in_increment():
    geometry = WaveguideGeometry(10.0, 10.0, 1.0)
    weak = solve_mode(IndexProfile(geometry, 2.1778, 0.0015), 780.0, E)
    strong = solve_mode(IndexProfile(geometry, 2.1778, 0.0030), 780.0, E)
    assert strong.n_eff > weak.n_eff


def test_solve_mode_monotone_in_size(solved_idler_10):
    bigger = solve_mode(
        IndexProfile(WaveguideGeometry(12.0, 12.0, 1.0), 2.137530, 0.0025), 1551.03, E
    )
    assert bigger.n_eff >= solved_idler_10.n_eff
    # cross-check both optima against the dense-grid oracle
    for mode in (solved_idler_10, bigger):
        oracle = dense_rq_oracle(mode.profile, 1551.03, mode.alpha_y, mode.alpha_z)
        assert mode.n_eff**2 == pytest.approx(oracle, rel=1e-6)


def test_solve_mode_variational_optimality(solved_idler_10):
    mode = solved_idler_10
    best = rayleigh_quotient(mode.profile, 1551.03, mode.alpha_y, mode.alpha_z)
    for fy, fz in ((1.01, 1.0), (0.99, 1.0), (1.0, 1.01), (1.0, 0.99)):
        perturbed = rayleigh_quotient(
            mode.profile, 1551.03, mode.alpha_y * fy, mode.alpha_z * fz
        )
        assert perturbed <= best + 1e-8


def test_solve_mode_deterministic():
    profile = IndexProfile(WaveguideGeometry(9.0, 7.0, 1.0), 2.18, 0.0028)
    first = solve_mode(profile, 800.0, E)
    second = solve_mode(profile, 800.0, E)
    assert first.n_eff == second.n_eff
    assert first.alpha_y == second.alpha_y
    assert first.alpha_z == second.alpha_z


def test_solve_mode_normalization_and_interface_node(solved_idler_10):
    mode = solved_idler_10
    geometry = mode.profile.geometry
    y = np.linspace(-5.0 * geometry.width_um, 5.0 * geometry.width_um, 3001)
    z = np.linspace(0.0, 8.0 * geometry.depth_um, 3001)
    field_sq = np.outer(mode.y_factor(y) ** 2, mode.z_factor(z) ** 2)
    total = np.trapezoid(np.trapezoid(field_sq, z, axis=1), y)
    assert total == pytest.approx(1.0, abs=1e-6)
    assert np.all(mode.field(y, 0.0) == 0.0)
    assert np.all(mode.field(0.0, np.array([-1.0, -5.0])) == 0.0)


def test_solve_mode_tiny_increment_is_no_guided_mode():
    profile = IndexProfile(WaveguideGeometry(10.0, 10.0, 1.0), 2.2, 5e-6)
    with pytest.raises(NoGuidedModeError):
        solve_mode(profile, 1551.03, E)


def test_solve_mode_unguided_geometry_hits_search_boundary():
    # a 1 um channel cannot confine 1551 nm light at this increment; the
    # optimiser runs to the edge of the trusted trial-parameter box
    profile = IndexProfile(WaveguideGeometry(1.0, 1.0, 1.0), 2.137530, 0.0025)
    with pytest.raises((BoundaryOptimumError, NoGuidedModeError)):
        solve_mode(profile, 1551.03, E)


def test_field_overlap_matches_closed_form_triple_gaussian():
    geometry = WaveguideGeometry(10.0, 10.0, 1.0)
    modes = [GaussianStubMode(geometry, TRIPLE_GAUSSIAN_SIGMA) for _ in range(3)]
    value = field_overlap(*modes)
    assert value == pytest.approx(TRIPLE_GAUSSIAN_OVERLAP, rel=1e-9)


def test_field_overlap_permutation_symmetric(design_type0_10):
    modes = design_type0_10.modes
    p, s, i = modes["pump"], modes["signal_1"], modes["idler_1"]
    reference = field_overlap(p, s, i)
    for trio in ((p, i, s), (s, p, i), (s, i, p), (i, p, s), (i, s, p)):
        assert field_overlap(*trio) == pytest.approx(reference, rel=1e-12)


def test_field_overlap_vanishes_for_displaced_field():
    geometry = WaveguideGeometry(10.0, 10.0, 1.0)
    near = GaussianStubMode(geometry, 1.0)
    far = GaussianStubMode(geometry, 1.0, y_center=40.0)
    value = field_overlap(near, near, far)
    assert abs(value) < 1e-12


def test_field_overlap_requires_common_geometry():
    a = GaussianStubMode(WaveguideGeometry(10.0, 10.0, 1.0), 1.0)
    b = GaussianStubMode(WaveguideGeometry(12.0, 12.0, 1.0), 1.0)
    with pytest.raises(ConsistencyError):
        field_overlap(a, a, b)


def test_field_overlap_matches_dense_grid_oracle(design_type0_10):
    modes = design_type0_10.modes
    trio = (modes["pump"], modes["signal_1"], modes["idler_1"])
    assert field_overlap(*trio) == pytest.approx(dense_overlap_oracle(*trio), rel=1e-6)
