import ast
import gc
import itertools
import math
import re
import sys
import threading
from dataclasses import replace
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.special import erf as scipy_erf

from dppln import mode_solver, quadrature
from dppln import (
    DEFAULT_MATERIAL,
    BoundaryOptimumError,
    ConfigurationError,
    ConsistencyError,
    EffectiveIndexSolver,
    IndexProfile,
    ModeSolution,
    NoGuidedModeError,
    PhysicsError,
    Polarization,
    QuadratureConvergenceError,
    Scheme,
    WaveguideGeometry,
    design,
    field_overlap,
    idler_wavelength,
    rayleigh_quotient,
    solve_mode,
    solve_modes,
)
from dppln.config import load_config
from conftest import PUMP_NM, SIGNAL1_NM, SIGNAL2_NM, request_for

E = Polarization.EXTRAORDINARY
SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.yaml"))


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


def full_nodes(profile, order):
    """The direct quadrature of a profile on every node at one Gauss order:
    y, y^2, g(y), y weights, z^2, (z/h)^2, f(z), z weights."""
    w, h = profile.geometry.width_um, profile.geometry.depth_um
    y, wy = quadrature.panel_nodes(mode_solver._y_edges(w), order)
    z, wz = quadrature.panel_nodes(mode_solver._z_edges(h), order)
    return (y, y**2, profile.lateral_shape(y), wy, z**2, (z / h) ** 2, profile.depth_shape(z),
            wz)


def one_lane_rq(profile, k0, order):
    """The Nelder-Mead objective of one lane at one order, a one-row stack, as
    `rayleigh_quotient` evaluates it: (a_y, a_z) -> n_eff^2."""
    rows = mode_solver._node_rows(*mode_solver._shape(profile), order)
    return lambda ay, az: mode_solver._rq_rows([(profile, k0, rows)])([(ay, az)])[0]


def adaptive_overlap_oracle(a, b, c):
    """The triple-field overlap by adaptive direct quadrature: the product of
    the normalised fields on the panel nodes, its Gauss order doubling until
    two estimates agree to 1e-11 relative plus 1e-16 absolute."""
    geometry = a.profile.geometry
    previous, order = None, quadrature.START_ORDER
    while order <= quadrature.MAX_ORDER:
        y, wy = quadrature.panel_nodes(mode_solver._y_edges(geometry.width_um), order)
        z, wz = quadrature.panel_nodes(mode_solver._z_edges(geometry.depth_um), order)
        current = (wy.dot(a.y_factor(y) * b.y_factor(y) * c.y_factor(y))
                   * wz.dot(a.z_factor(z) * b.z_factor(z) * c.z_factor(z)))
        if previous is not None and abs(current - previous) <= 1e-11 * abs(current) + 1e-16:
            return float(current)
        previous, order = current, 2 * order
    raise AssertionError("the adaptive overlap did not converge")


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
    with pytest.raises(ConfigurationError, match=r"length 10.5 cm outside .*\(0, 10\] cm"):
        WaveguideGeometry(10.0, 10.0, 10.5)
    with pytest.raises(ConfigurationError):
        WaveguideGeometry(10.0, 10.0, float("nan"))
    assert WaveguideGeometry(10.0, 10.0, 10.0).length_cm == 10.0
    # each range error names the attribute at fault, for config to report
    for sizes, field in (((60.0, 10.0, 1.0), "width_um"), ((10.0, 0.5, 1.0), "depth_um"),
                         ((10.0, 10.0, 11.0), "length_cm")):
        with pytest.raises(ConfigurationError) as caught:
            WaveguideGeometry(*sizes)
        assert caught.value.field == field


def test_make_profile_rejects_nonpositive_increment():
    # IndexProfile is built directly; a non-positive increment is refused
    # when the profile is built (outside input is range-checked earlier, by
    # IndexIncrementTable)
    geometry = WaveguideGeometry(10.0, 10.0, 1.0)
    for increment in (0.0, -0.001):
        with pytest.raises(ConfigurationError, match="^increment must be finite and positive"
                           ) as raised:
            IndexProfile(geometry, 2.2, increment)
        assert raised.value.field == "increment"


@pytest.mark.parametrize("field, value", [
    ("bulk_index", math.nan), ("bulk_index", math.inf), ("bulk_index", 0.9),
    ("increment", math.nan), ("lateral_scale", 0.0), ("lateral_scale", math.inf),
    ("depth_scale", -1.0), ("depth_scale", math.nan)])
def test_index_profile_checks_its_numbers(field, value):
    # before, a NaN bulk index ran the quadrature to order 3072 and raised
    # QuadratureConvergenceError, lateral_scale=0 divided by zero and
    # depth_scale=-1 solved a mode
    numbers = {"bulk_index": 2.2, "increment": 0.003, "lateral_scale": 0.5, "depth_scale": 2.0}
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite and") as raised:
        IndexProfile(WaveguideGeometry(10.0, 10.0, 1.0), **{**numbers, field: value})
    assert raised.value.field == field


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


def test_lateral_shape_matches_scipy_erf():
    # g(y) is built on math.erf; scipy's erf is the oracle, to 4 ulp of
    # g's unit scale (the two erf terms cancel in the tails)
    for width, scale in ((10.0, 0.5), (3.0, 0.2), (40.0, 1.3)):
        profile = IndexProfile(WaveguideGeometry(width, 10.0, 1.0), 2.2, 0.003, scale)
        y = np.linspace(-6.0 * width, 6.0 * width, 20001)
        wd = scale * width
        oracle = 0.5 * (scipy_erf((width / 2 + y) / wd) + scipy_erf((width / 2 - y) / wd))
        g = profile.lateral_shape(y)
        assert g.dtype == float and g.shape == y.shape
        assert np.max(np.abs(g - oracle)) <= 4 * np.spacing(1.0)
    assert np.ndim(profile.lateral_shape(0.0)) == 0


def test_rayleigh_quotient_homogeneous_limit():
    geometry = WaveguideGeometry(10.0, 10.0, 1.0)
    uniform = IndexProfile(geometry, 2.2, 1e-300)  # too small to change n^2 in any bit
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


@pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf, -math.inf])
def test_solvers_reject_bad_arguments_before_any_quadrature(monkeypatch, bad):
    profile = IndexProfile(WaveguideGeometry(10.0, 10.0, 1.0), 2.2, 0.003)

    def no_quadrature(*args):
        raise AssertionError("a quadrature was built")

    for name in ("panel_nodes", "_node_rows", "_scaled"):
        monkeypatch.setattr(mode_solver, name, no_quadrature)
    calls = {"wavelength_nm": [lambda: solve_mode(profile, bad, E),
                               lambda: mode_solver.effective_index(profile, bad),
                               lambda: rayleigh_quotient(profile, bad, 1.0, 1.0)],
             "alpha_y": [lambda: rayleigh_quotient(profile, 780.0, bad, 1.0)],
             "alpha_z": [lambda: rayleigh_quotient(profile, 780.0, 1.0, bad)]}
    for field, field_calls in calls.items():
        for call in field_calls:
            with pytest.raises(ConfigurationError, match=f"^{field} must be finite and "
                                                         "positive") as raised:
                call()
            assert raised.value.field == field


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


@pytest.mark.parametrize(
    "call",
    [lambda profile: rayleigh_quotient(profile, 780.0, 1e300, 1.0),
     lambda profile: solve_mode(profile, 1551.03, E),
     lambda profile: mode_solver.effective_index(profile, 1551.03),
     lambda profile: solve_modes(request_for(Scheme.TYPE0_EEE, 1.0))],
    ids=["rayleigh_quotient", "solve_mode", "effective_index", "solve_modes"],
)
def test_a_failed_solve_leaves_no_garbage(call):
    # each raises its PhysicsError from a frame that no longer holds it, so no
    # frame <-> error cycle is left; before, a failing refine_scalar left one
    profile = IndexProfile(WaveguideGeometry(10.0, 10.0, 1.0), 2.2, 5e-6)
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(PhysicsError):
            call(profile)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_solve_mode_unguided_geometry_hits_search_boundary():
    # a 1 um channel cannot confine 1551 nm light at this increment; the
    # optimiser runs to the edge of the trusted trial-parameter box
    profile = IndexProfile(WaveguideGeometry(1.0, 1.0, 1.0), 2.137530, 0.0025)
    with pytest.raises((BoundaryOptimumError, NoGuidedModeError)):
        solve_mode(profile, 1551.03, E)


@pytest.mark.parametrize(
    "size_um,wave,edge",
    [((2.0, 10.0), "idler_1 (1551.03 nm)",
      "alpha_y optimum at the lower edge .*wider than the trusted domain \\(near cutoff\\)"),
     ((50.0, 10.0), "pump (519.00 nm)",
      "alpha_y optimum at the upper edge .*narrower than the channel scale")],
    ids=["small-guide-lower-edge", "wide-guide-upper-edge"],
)
def test_boundary_error_names_coordinate_and_edge(size_um, wave, edge):
    request = replace(request_for(Scheme.TYPE0_EEE, 10.0),
                      geometry=WaveguideGeometry(*size_um, 1.0))
    with pytest.raises(BoundaryOptimumError, match=f"^{re.escape(wave)}: {edge}$"):
        design(request)


def test_field_overlap_matches_the_adaptive_quadrature(design_type0_10, design_type2_65):
    # the closed form against the adaptive direct quadrature it replaced, on
    # the pump/signal/idler trios of both shipped configs and of random profiles
    trios = [(d.modes["pump"], d.modes[s], d.modes[i]) for d in (design_type0_10, design_type2_65)
             for s, i in (("signal_1", "idler_1"), ("signal_2", "idler_2"))]
    idler = idler_wavelength(PUMP_NM, SIGNAL1_NM)
    trios += [tuple(solve_mode(profile, nm, E) for nm in (PUMP_NM, SIGNAL1_NM, idler))
              for profile in random_profiles(5)]
    for trio in trios:
        assert field_overlap(*trio) == pytest.approx(adaptive_overlap_oracle(*trio),
                                                     rel=3e-14, abs=0.0)


def test_field_overlap_permutation_symmetric(design_type0_10):
    modes = design_type0_10.modes
    p, s, i = modes["pump"], modes["signal_1"], modes["idler_1"]
    reference = field_overlap(p, s, i)
    for trio in ((p, i, s), (s, p, i), (s, i, p), (i, p, s), (i, s, p)):
        assert field_overlap(*trio) == pytest.approx(reference, rel=1e-12)


def test_field_overlap_requires_common_geometry():
    a, b = (solve_mode(IndexProfile(WaveguideGeometry(size, size, 1.0), 2.2, 0.003), 780.0, E)
            for size in (10.0, 12.0))
    with pytest.raises(ConsistencyError):
        field_overlap(a, a, b)


def test_field_overlap_matches_dense_grid_oracle(design_type0_10):
    modes = design_type0_10.modes
    trio = (modes["pump"], modes["signal_1"], modes["idler_1"])
    assert field_overlap(*trio) == pytest.approx(dense_overlap_oracle(*trio), rel=1e-6)


def rosenbrock(x):
    return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def assert_same_nelder_mead(fun, simplex, **options):
    """mode_solver.minimize and scipy's Nelder-Mead evaluate the same points
    in the same order and return the same x, nfev and nit."""
    ours_points, scipy_points = [], []

    def logged(points):
        def f(x):
            points.append(tuple(x))
            return fun(x)
        return f

    ours = mode_solver.minimize(logged(ours_points), simplex, **options)
    theirs = scipy_minimize(logged(scipy_points), simplex[0], method="Nelder-Mead",
                            options=dict(initial_simplex=simplex, **options))
    assert ours_points == scipy_points
    assert tuple(ours.x) == tuple(theirs.x)
    assert (ours.nfev, ours.nit) == (theirs.nfev, theirs.nit)
    return theirs


def scipy_step_kinds(fun, simplex, **options):
    """Per scipy iteration: 'reflect' (1 evaluation), 'expand' (2, new best),
    'contract' (2, best kept) or 'shrink' (2 + N evaluations)."""
    count, kinds, state = [0], [], {"calls": len(simplex), "best": None}

    def f(x):
        count[0] += 1
        return fun(x)

    def step(intermediate_result):
        best = intermediate_result.fun
        calls = count[0] - state["calls"]
        improved = state["best"] is not None and best < state["best"]
        if calls == 1:
            kinds.append("reflect")
        elif calls == 2:
            kinds.append("expand" if improved else "contract")
        else:
            kinds.append("shrink")
        state.update(calls=count[0], best=best)

    scipy_minimize(f, simplex[0], method="Nelder-Mead", callback=step,
                   options=dict(initial_simplex=simplex, **options))
    return set(kinds[1:])


NM_OPTIONS = dict(xatol=1e-7, fatol=1e-13, maxiter=1000, maxfev=2000)


def test_minimize_matches_scipy_on_negative_rayleigh_quotient():
    rng = np.random.default_rng(11)
    for profile in random_profiles(3):
        lam = float(rng.uniform(600.0, 1600.0))
        x0 = np.array([float(rng.uniform(0.6, 2.0)), float(rng.uniform(0.6, 2.0))])
        simplex = np.array([x0, x0 * [1.02, 1.0], x0 * [1.0, 1.02]])
        result = assert_same_nelder_mead(
            lambda x: -rayleigh_quotient(profile, lam, x[0], x[1]), simplex, **NM_OPTIONS
        )
        assert result.nit > 10


def test_minimize_matches_scipy_on_rosenbrock_through_every_step():
    x0 = np.array([-1.2, 1.0])
    simplex = np.array([x0, x0 + [2.0, 0.0], x0 + [0.0, 2.0]])
    options = dict(xatol=1e-10, fatol=1e-14, maxiter=1000, maxfev=2000)
    assert scipy_step_kinds(rosenbrock, simplex, **options) == {
        "reflect", "expand", "contract", "shrink"
    }
    result = assert_same_nelder_mead(rosenbrock, simplex, **options)
    assert result.x == pytest.approx([1.0, 1.0], abs=1e-6)


# maxfev 1 and 2 leave vertices at inf, so the initial sorts see ties
@pytest.mark.parametrize("maxiter,maxfev",
                         [(1000, 57), (1000, 58), (1, 2000), (30, 2000), (1000, 1), (1000, 2)])
def test_minimize_matches_scipy_at_its_limits(maxiter, maxfev):
    x0 = np.array([-1.2, 1.0])
    simplex = np.array([x0, x0 + [2.0, 0.0], x0 + [0.0, 2.0]])
    result = assert_same_nelder_mead(rosenbrock, simplex, xatol=1e-10, fatol=1e-14,
                                     maxiter=maxiter, maxfev=maxfev)
    assert result.nfev <= maxfev and result.nit <= maxiter


def bowl(x, cx, cy):
    u, v = x[0] - cx, x[1] - cy
    return u * u + 2.0 * v * v


def plateau(x):
    """A staircase of flat terraces: vertices tie all the time."""
    return float(math.floor(4.0 * bowl(x, 0.3, -0.2)))


def penalty_wall(x):
    """negative_rq's 1e6 wall, here at x = 0.6, with the minimum behind it;
    two of the initial vertices tie on the wall."""
    if x[0] <= 0.6 or x[1] <= 0.05:
        return 1e6
    return bowl(x, 0.55, 0.4)


def nan_half_plane(x):
    """NaN below x = 0.6, next to the minimum; two initial vertices are NaN."""
    return math.nan if x[0] < 0.6 else bowl(x, 0.65, 0.5)


@pytest.mark.parametrize("fun", [plateau, penalty_wall, nan_half_plane])
def test_minimize_matches_scipy_on_ties_and_nan(fun):
    # minimize orders distinct values itself and ties and NaN by a stable
    # sort, NaN last; scipy's oracle pins both orders
    values = []

    def recorded(x):
        values.append(fun(x))
        return values[-1]

    x0 = np.array([0.5, 0.5])
    simplex = np.array([x0, x0 + [0.25, 0.0], x0 + [0.0, 0.25]])
    assert_same_nelder_mead(recorded, simplex, xatol=1e-9, fatol=1e-12, maxiter=1000,
                            maxfev=2000)
    if fun is nan_half_plane:
        assert any(math.isnan(v) for v in values)
    else:
        assert len(set(values)) < len(values) / 2


class _Exhausted(Exception):
    """Raised by the reference's counting objective once `maxfev` is spent."""


def _reference_sorted(sim, fsim):
    """`sim` and `fsim` in np.argsort(fsim) order.  Distinct values have one
    order, which Python's sort gives; ties and NaN take numpy's."""
    tied = len(set(fsim)) < len(fsim) or any(v != v for v in fsim)
    order = np.argsort(fsim).tolist() if tied else sorted(range(len(fsim)), key=fsim.__getitem__)
    return [sim[i] for i in order], [fsim[i] for i in order]


def reference_nelder_mead_steps(simplex, *, xatol, fatol, maxiter, maxfev):
    """The N-dimensional Nelder-Mead generator that `_nelder_mead_steps`
    replaced, kept as it was (bar names) as the oracle of its 2-D step."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(simplex, dtype=float).tolist()
    N = len(sim[0])
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return float((yield x))

    fsim = [math.inf] * (N + 1)
    try:
        for k in range(N + 1):
            fsim[k] = yield from f(sim[k])
    except _Exhausted:
        pass
    # sorted twice, as scipy does, so that tied values order the same way
    sim, fsim = _reference_sorted(*_reference_sorted(sim, fsim))

    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            if (all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, sim[0]))
                    and all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:])):
                break
            # a left fold is numpy's add.reduce over the rows
            xbar = [reduce(add, column) / N for column in zip(*sim[:-1])]
            xr = [(1 + rho) * m - rho * v for m, v in zip(xbar, sim[-1])]
            fxr = yield from f(xr)
            if fxr < fsim[0]:
                xe = [(1 + rho * chi) * m - rho * chi * v for m, v in zip(xbar, sim[-1])]
                fxe = yield from f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [(1 + psi * rho) * m - psi * rho * v for m, v in zip(xbar, sim[-1])]
                    fxc = yield from f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = [(1 - psi) * m + psi * v for m, v in zip(xbar, sim[-1])]
                    fxc = yield from f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, N + 1):
                        sim[j] = [b + sigma * (v - b) for b, v in zip(sim[0], sim[j])]
                        fsim[j] = yield from f(sim[j])
            nit += 1
        except _Exhausted:
            pass
        sim, fsim = _reference_sorted(sim, fsim)
    return mode_solver.NelderMeadResult(x=np.array(sim[0]), nfev=nfev, nit=nit)


def _run_steps(steps, fun):
    """The vertices a Nelder-Mead generator yields, as bytes, and its result."""
    points = []
    try:
        x = next(steps)
        while True:
            points.append(np.array(x, dtype=float).tobytes())
            x = steps.send(fun(x))
    except StopIteration as done:
        return points, done.value


def assert_same_as_reference(fun, simplex, **options):
    """The two-parameter step and the N-D reference yield the same vertices
    bit for bit and return the same x, nfev and nit."""
    ours = _run_steps(mode_solver._nelder_mead_steps(simplex, **options), fun)
    theirs = _run_steps(reference_nelder_mead_steps(simplex, **options), fun)
    assert ours[0] == theirs[0]
    assert ours[1].x.tobytes() == theirs[1].x.tobytes()
    assert (ours[1].nfev, ours[1].nit) == (theirs[1].nfev, theirs[1].nit)
    return ours[1]


def seeded_smooth_objective(seed):
    """A rotated, anisotropic bowl with a quartic term and a seeded start,
    tolerances and (for a third of the seeds) a small evaluation budget."""
    rng = np.random.default_rng(seed)
    centre, scales = rng.uniform(-2.0, 2.0, 2), rng.uniform(0.05, 20.0, 2)
    c, s = math.cos(rng.uniform(0.0, math.pi)), math.sin(rng.uniform(0.0, math.pi))
    quartic = float(rng.choice([0.0, rng.uniform(0.0, 5.0)]))

    def fun(x):
        du, dv = x[0] - centre[0], x[1] - centre[1]
        u, v = c * du - s * dv, s * du + c * dv
        return scales[0] * u * u + scales[1] * v * v + quartic * u**4

    x0 = rng.uniform(-3.0, 3.0, 2)
    simplex = np.array([x0, x0 + rng.uniform(-1.0, 1.0, 2), x0 + rng.uniform(-1.0, 1.0, 2)])
    options = dict(xatol=float(rng.choice([1e-4, 1e-7, 1e-10])),
                   fatol=float(rng.choice([1e-6, 1e-10, 1e-14])), maxiter=1000,
                   maxfev=int(rng.integers(1, 120)) if seed % 3 == 0 else 2000)
    return fun, simplex, options


def test_nelder_mead_step_matches_nd_reference_on_seeded_objectives():
    exhausted = converged = 0
    for seed in range(240):
        fun, simplex, options = seeded_smooth_objective(seed)
        result = assert_same_as_reference(fun, simplex, **options)
        exhausted += result.nfev == options["maxfev"]
        converged += result.nfev < options["maxfev"] and result.nit < options["maxiter"]
    assert exhausted >= 60 and converged >= 150


@pytest.mark.parametrize("fun", [plateau, penalty_wall, nan_half_plane])
def test_nelder_mead_step_matches_nd_reference_on_ties_and_nan(fun):
    x0 = np.array([0.5, 0.5])
    simplex = np.array([x0, x0 + [0.25, 0.0], x0 + [0.0, 0.25]])
    for maxfev in (*range(1, 41), 2000):
        assert_same_as_reference(fun, simplex, xatol=1e-9, fatol=1e-12, maxiter=1000,
                                 maxfev=maxfev)


def test_ordered_matches_argsort_on_every_triple_of_ties_zeros_infinities_and_nan():
    # the comparisons and the stable-sort fallback against np.argsort, stable
    # and default (the order the N-D reference and scipy take), on all 512
    # triples over these values; sorting a sorted triple again moves nothing,
    # so scipy's second sort of the first simplex is left out
    values = [-math.inf, -1.0, -0.0, 0.0, 1.0, 1e6, math.inf, math.nan]
    for triple in itertools.product(values, repeat=3):
        vertices = [(float(k), 0.0, f) for k, f in enumerate(triple)]
        ordered = mode_solver._ordered(*vertices)
        order = [int(x) for x, _, _ in ordered]
        assert order == np.argsort(triple, kind="stable").tolist(), triple
        assert order == np.argsort(triple).tolist(), triple
        assert mode_solver._ordered(*ordered) == ordered, triple


def test_nelder_mead_step_matches_nd_reference_on_rosenbrock_at_every_limit():
    x0 = np.array([-1.2, 1.0])
    simplex = np.array([x0, x0 + [2.0, 0.0], x0 + [0.0, 2.0]])
    limits = [(1000, maxfev) for maxfev in range(1, 81)]
    limits += [(maxiter, 2000) for maxiter in range(1, 41)]
    for maxiter, maxfev in limits:
        result = assert_same_as_reference(rosenbrock, simplex, xatol=1e-10, fatol=1e-14,
                                          maxiter=maxiter, maxfev=maxfev)
        assert result.nfev <= maxfev and result.nit <= maxiter


def test_minimize_rejects_a_simplex_that_is_not_three_by_two():
    calls = []
    with pytest.raises(ValueError, match=r"3 x 2 simplex, got shape \(4, 3\)"):
        mode_solver.minimize(calls.append, np.eye(4, 3), **NM_OPTIONS)
    assert calls == []


@pytest.mark.parametrize("order", [48, 96, 192])
def test_rayleigh_quotient_forms_agree_with_moment_rows(order):
    # the Nelder-Mead objective against the scaled moment-row quotient of the
    # refinement and Newton and the grid quotient, and int Y^2, int Z^2 from
    # the scaled rows against direct quadrature
    rng = np.random.default_rng(4242 + order)
    lo, hi = mode_solver.ALPHA_MIN, mode_solver.ALPHA_MAX
    corners = [(lo, lo), (lo, hi), (hi, lo), (hi, hi)]
    for profile in random_profiles(3):
        k0 = 2.0 * np.pi / (float(rng.uniform(600.0, 1600.0)) * 1e-3)
        _, y2, _, wy, z2, zh2, _, wz = full_nodes(profile, order)
        rq = one_lane_rq(profile, k0, order)
        scaled = mode_solver._scaled(profile.lateral_scale, profile.depth_scale, order)
        w, h = profile.geometry.width_um, profile.geometry.depth_um
        points = corners + rng.uniform(lo, hi, size=(100, 2)).tolist()
        for ay, az in points:
            moment = mode_solver._rq_taylor(profile, k0, scaled, ay * ay, az * az)[0]
            assert rq(ay, az) == pytest.approx(moment, rel=1e-14, abs=0.0), (ay, az)
            y_moments, z_moments = scaled.moments(ay * ay, az * az)
            direct_y = np.exp(-2.0 * ay**2 * y2 / w**2) @ wy
            direct_z = (zh2 * np.exp(-2.0 * az**2 * z2 / h**2)) @ wz
            assert w * y_moments[0] == pytest.approx(direct_y, rel=1e-14, abs=0.0), ay
            assert h * z_moments[1] == pytest.approx(direct_z, rel=1e-14, abs=0.0), az

        nb, dn = profile.bulk_index, profile.increment
        PQ, r, t = scaled.grid_terms
        grid = nb**2 + 2.0 * nb * dn * PQ - (r / w**2 + t / h**2) / k0**2
        s = (mode_solver.GRID_ALPHAS**2).tolist()
        moment = [[mode_solver._rq_taylor(profile, k0, scaled, sy, sz)[0] for sz in s] for sy in s]
        assert np.allclose(grid, moment, rtol=1e-14, atol=0.0)


def matmul_rq_oracle(profile, k0, order, alpha_y, alpha_z):
    """The Nelder-Mead objective as written with `@` and fresh arrays on every
    node: the same IEEE operations in the same order, the reference for bit
    identity."""
    y, y2, g, wy, z2, zh2, f, wz = full_nodes(profile, order)
    w2, h2 = profile.geometry.width_um**2, profile.geometry.depth_um**2
    a2 = alpha_y * alpha_y
    Y2 = np.exp(-2.0 * a2 * y2 / w2)
    Ay = Y2 @ wy
    Gy = (Y2 * g) @ wy
    Dy = (Y2 * (2.0 * a2 * y / w2) ** 2) @ wy
    a2 = alpha_z * alpha_z
    t = 2.0 * a2 * z2 / h2
    envelope = np.exp(-t)
    Z2 = zh2 * envelope
    Az = Z2 @ wz
    Fz = (Z2 * f) @ wz
    Dz = (envelope * (1.0 - t) ** 2 / h2) @ wz
    nb, dn = profile.bulk_index, profile.increment
    return float(nb**2 + 2.0 * nb * dn * ((Gy / Ay) * (Fz / Az)) - (Dy / Ay + Dz / Az) / k0**2)


@pytest.mark.parametrize("order", [48, 96, 192])
def test_nelder_mead_objective_is_bit_identical_to_matmul_oracle(order):
    # one stacked objective over four lanes of different shapes and
    # wavelengths, reused across many points as the lock-step rounds use it,
    # and the one-lane quotient of rayleigh_quotient
    rng = np.random.default_rng(5150 + order)
    lanes = [(profile, 2.0 * np.pi / (float(rng.uniform(500.0, 1700.0)) * 1e-3))
             for profile in random_profiles(4, seed=31 + order)]
    rq = mode_solver._rq_rows([(profile, k0, mode_solver._node_rows(
        *mode_solver._shape(profile), order)) for profile, k0 in lanes])
    one_lane = [one_lane_rq(*lane, order) for lane in lanes]
    for points in rng.uniform(0.05, 6.0, size=(250, len(lanes), 2)).tolist():
        for lane, single, value, (ay, az) in zip(lanes, one_lane, rq(points), points):
            expected = matmul_rq_oracle(*lane, order, ay, az)
            assert value == expected, (ay, az)
            assert single(ay, az) == expected, (ay, az)


def test_y_nodes_weights_and_channel_are_exact_mirror_images():
    # the premise of the mirrored y half in `_rq_rows`: y[i] == -y[n-1-i],
    # and wy and g(y) are even, bit for bit, at every order refine can reach;
    # `_node_rows` holds the first half of y, y^2 and g(y)
    low, high = mode_solver.SIZE_RANGE_UM
    for width in np.geomspace(low, high, 5).tolist():
        for scale in (0.02, 0.1, 0.5, 2.0):
            profile = IndexProfile(WaveguideGeometry(width, 10.0, 1.0), 2.2, 0.003, scale)
            for order in (48, 96, 192, 384, 768, 1536, 3072):
                y, y2, g, wy, *_ = full_nodes(profile, order)
                assert np.array_equal(y, -y[::-1]), (width, scale, order)
                assert np.array_equal(wy, wy[::-1]), (width, scale, order)
                assert np.array_equal(g, g[::-1]), (width, scale, order)
                rows = mode_solver._node_rows(*mode_solver._shape(profile), order)
                half = y.size // 2
                for row, full in zip(rows[:4], (y[:half], y2[:half], g[:half], wy)):
                    assert np.array_equal(row, full), (width, scale, order)


def full_node_rq_rows(lanes):
    """The reference for `_rq_rows`' mirrored y half, for lanes (profile, k0,
    order): every integrand on every node, (lanes, 1) columns of w^2 and h^2,
    positive scales and t = 2 a_z^2 z^2 / h^2 with exp(-t) and (1 - t)^2, in
    the same IEEE operations per node."""
    one = len(lanes) == 1

    def lanewise(values, shape=(-1,)):
        return values[0] if one else np.array(values).reshape(shape)

    y, y2, g, wy, z2, zh2, f, wz = (
        lanewise(arrays, (len(lanes), -1)) for arrays in
        zip(*(full_nodes(profile, order) for profile, _, order in lanes)))
    w2, h2 = (lanewise([size**2 for size in sizes], (-1, 1)) for sizes in zip(*(
        (p.geometry.width_um, p.geometry.depth_um) for p, *_ in lanes)))
    nb2, c, k02 = (lanewise(values) for values in zip(*(
        (p.bulk_index**2, 2.0 * p.bulk_index * p.increment, k0**2) for p, k0, _ in lanes)))

    def rq(points):
        scales = [(-2.0 * (ay * ay), 2.0 * (ay * ay), 2.0 * (az * az)) for ay, az in points]
        sy_down, sy_up, sz_up = scales[0] if one else np.array(scales).T[:, :, None]
        Y2 = np.exp((y2 * sy_down) / w2)
        Y = np.array([Y2, Y2 * g, Y2 * np.square((y * sy_up) / w2)])
        t = (z2 * sz_up) / h2
        envelope = np.exp(-t)
        Z2 = zh2 * envelope
        Z = np.array([Z2, Z2 * f, (envelope * np.square(1.0 - t)) / h2])
        (Ay, Gy, Dy), (Az, Fz, Dz) = np.vecdot(Y, wy), np.vecdot(Z, wz)
        return np.atleast_1d(nb2 + c * ((Gy / Ay) * (Fz / Az)) - (Dy / Ay + Dz / Az) / k02).tolist()

    return rq


@pytest.mark.parametrize("count", [1, 2, 5, 20, 40])
def test_mirrored_objective_is_bit_identical_to_the_full_node_kernel(count):
    # seeded lanes of every size, diffusion scale and order up to 384, at
    # points that include the alpha floor, the edge margins and the box edges
    rng = np.random.default_rng(6060 + count)
    lo, hi, margin = mode_solver.ALPHA_MIN, mode_solver.ALPHA_MAX, mode_solver._EDGE_MARGIN
    floor = mode_solver._ALPHA_FLOOR
    special = [0.5 * floor, floor, lo, lo * (1.0 + margin), hi * (1.0 - margin), hi]
    low, high = mode_solver.SIZE_RANGE_UM
    for order in (48, 96, 192, 384):
        lanes = []
        for _ in range(count):
            geometry = WaveguideGeometry(*rng.uniform(low, high, size=2).tolist(), 1.0)
            profile = IndexProfile(geometry, float(rng.uniform(2.1, 2.3)),
                                   float(rng.uniform(1e-4, 0.01)), float(rng.uniform(0.02, 2.0)),
                                   float(rng.uniform(0.5, 3.0)))
            k0 = 2.0 * np.pi / (float(rng.uniform(500.0, 1700.0)) * 1e-3)
            lanes.append((profile, k0, order))
        mirrored = mode_solver._rq_rows([(profile, k0, mode_solver._node_rows(
            *mode_solver._shape(profile), order)) for profile, k0, _ in lanes])
        full = full_node_rq_rows(lanes)
        for _ in range(12):
            alphas = rng.uniform(0.01, 6.0, size=(count, 2))
            alphas[rng.random(size=(count, 2)) < 0.3] = rng.choice(special)
            points = [tuple(point) for point in alphas.tolist()]
            assert mirrored(points) == full(points), (order, points)


def test_solve_mode_threads_sharing_a_quadrature_match_serial():
    # profiles of one shape share the cached panel nodes and scaled rows; each
    # batch owns its node rows and scratch arrays, so interleaved solves change
    # nothing
    geometry = WaveguideGeometry(9.0, 11.0, 1.0)
    jobs = [[(IndexProfile(geometry, 2.1778 + 0.01 * k, 0.0030), 780.0 + 40.0 * k, E)
             for k in range(4)],
            [(IndexProfile(geometry, 2.2111 - 0.01 * k, 0.0025), 1551.03 - 60.0 * k, E)
             for k in range(4)]]
    serial = [[solve_mode(*job) for job in batch] for batch in jobs]
    results = [[], []]
    start = threading.Barrier(2)

    def run(index):
        start.wait()
        for _ in range(3):
            results[index].extend(solve_mode(*job) for job in jobs[index])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index in range(2):
        assert results[index] == serial[index] * 3


def test_mode_norms_are_the_direct_quadrature_moments():
    # y_norm and z_norm of solve_mode, in closed form: int Y^2 and int Z^2 by
    # direct quadrature at GRID_ORDER, at the order the final refinement
    # settles on and at order 768, and the closed forms over the whole box at
    # random alphas
    solved = 0
    for profile in random_profiles(4):
        wavelength = 1000.0
        try:
            mode = solve_mode(profile, wavelength, E)
        except (BoundaryOptimumError, NoGuidedModeError):
            continue
        solved += 1
        ay, az = mode.alpha_y, mode.alpha_z
        start = mode_solver._grid_start(profile, wavelength)
        ((_, final),) = mode_solver._finished([start], [(ay, az)])
        w, h = profile.geometry.width_um, profile.geometry.depth_um
        for order in (mode_solver.GRID_ORDER, final, 768):
            _, y2, _, wy, z2, zh2, _, wz = full_nodes(profile, order)
            direct_y = np.exp(-2.0 * ay**2 * y2 / w**2) @ wy
            direct_z = (zh2 * np.exp(-2.0 * az**2 * z2 / h**2)) @ wz
            assert mode.y_norm == pytest.approx(math.sqrt(direct_y), rel=1e-14, abs=0.0)
            assert mode.z_norm == pytest.approx(math.sqrt(direct_z), rel=1e-14, abs=0.0)
    assert solved >= 2
    # over the whole box against order 96: at higher orders the Gauss-Legendre
    # weights carry up to 2.6e-14 of error for a = 5
    rng = np.random.default_rng(768)
    lo, hi = mode_solver.ALPHA_MIN, mode_solver.ALPHA_MAX
    for profile in random_profiles(3, seed=768):
        geometry = profile.geometry
        _, y2, _, wy, z2, zh2, _, wz = full_nodes(profile, 96)
        w, h = geometry.width_um, geometry.depth_um
        for ay, az in [(lo, lo), (hi, hi)] + rng.uniform(lo, hi, size=(50, 2)).tolist():
            direct_y = np.exp(-2.0 * ay**2 * y2 / w**2) @ wy
            direct_z = (zh2 * np.exp(-2.0 * az**2 * z2 / h**2)) @ wz
            y_norm, z_norm = mode_solver._norms(geometry, ay, az)
            assert y_norm == pytest.approx(math.sqrt(direct_y), rel=1e-14, abs=0.0), ay
            assert z_norm == pytest.approx(math.sqrt(direct_z), rel=1e-14, abs=0.0), az


def _solved_780_mode():
    return solve_mode(IndexProfile(WaveguideGeometry(10.0, 8.0, 1.0), 2.1778, 0.003), 780.0, E)


@pytest.mark.parametrize("change", ["alpha_y", "alpha_z", "profile"])
def test_a_replaced_mode_derives_its_norms(change):
    # before, the norms were arguments: replacing an alpha kept the old norms
    mode = _solved_780_mode()
    wider = replace(mode.profile, geometry=WaveguideGeometry(12.0, 8.0, 1.0))
    moved = replace(mode, **{change: dict(alpha_y=1.5, alpha_z=2.5, profile=wider)[change]})
    norms = mode_solver._norms(moved.profile.geometry, moved.alpha_y, moved.alpha_z)
    assert (moved.y_norm, moved.z_norm) == norms != (mode.y_norm, mode.z_norm)


def test_a_mode_takes_no_norms():
    mode = _solved_780_mode()
    for name in ("y_norm", "z_norm"):
        with pytest.raises(TypeError, match=name):
            ModeSolution(mode.n_eff, mode.alpha_y, mode.alpha_z, mode.wavelength_nm,
                         mode.polarization, mode.profile, **{name: 1.0})
        with pytest.raises(ValueError, match="init=False"):
            replace(mode, **{name: 1.0})


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda path: path.name)
def test_a_solved_mode_is_rebuilt_from_its_six_fields(config):
    loaded = load_config(str(config))
    modes = solve_modes(loaded.request(), loaded.material)
    assert len(modes) == 5
    for mode in modes.values():
        assert ModeSolution(mode.n_eff, mode.alpha_y, mode.alpha_z, mode.wavelength_nm,
                            mode.polarization, mode.profile) == mode


def test_quadrature_is_shared_per_shape_read_only_and_bounded():
    # the panel nodes of a shape are cached and shared; a batch builds its own
    # node rows from them, so a solve on another profile of the same shape
    # reads the nodes again and builds none
    geometry = WaveguideGeometry(10.0, 10.0, 1.0)
    quadrature.panel_nodes.cache_clear()
    solve_mode(IndexProfile(geometry, 2.1778, 0.0030), 780.0, E)
    built = quadrature.panel_nodes.cache_info().misses
    solve_mode(IndexProfile(geometry, 2.2111, 0.0024), 1551.03, Polarization.ORDINARY)
    assert quadrature.panel_nodes.cache_info().misses == built  # other indices, same nodes

    nodes = [array for edges in (mode_solver._y_edges(10.0), mode_solver._z_edges(10.0))
             for array in quadrature.panel_nodes(edges, mode_solver.GRID_ORDER)]
    scaled = mode_solver._scaled(0.5, 2.0, mode_solver.GRID_ORDER)
    for array in (*nodes, scaled.y_exponent, scaled.z_exponent, scaled.y_rows, scaled.z_rows,
                  *scaled.grid_terms):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0

    for size in (7.0, 8.0, 9.0, 11.0, 12.0):
        solve_mode(IndexProfile(WaveguideGeometry(size, size, 1.0), 2.1778, 0.003), 780.0, E)
    for info in (quadrature.panel_nodes.cache_info(), mode_solver._scaled.cache_info()):
        assert info.maxsize <= 16 and info.currsize <= info.maxsize


def test_runtime_modules_import_no_scipy():
    package = Path(mode_solver.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, names)


def test_newton_derivatives_match_central_differences():
    # gradient and Hessian in (ln a_y, ln a_z) of the scaled moment rows
    # against central differences of the Nelder-Mead objective, both at
    # GRID_ORDER
    rng = np.random.default_rng(77)
    order = mode_solver.GRID_ORDER
    for profile in random_profiles(4):
        start = mode_solver._grid_start(profile, float(rng.uniform(600.0, 1600.0)))
        k0, ay, az = start.k0, start.ay, start.az
        objective = one_lane_rq(profile, k0, order)
        scaled = mode_solver._scaled(profile.lateral_scale, profile.depth_scale, order)
        for x in [(math.log(ay), math.log(az))] + rng.uniform(-1.0, 1.0, size=(3, 2)).tolist():
            value, gy, gz, hyy, hyz, hzz = mode_solver._rq_taylor(
                profile, k0, scaled, math.exp(2.0 * x[0]), math.exp(2.0 * x[1]))

            def rq(dy, dz):
                return objective(math.exp(x[0] + dy), math.exp(x[1] + dz))

            assert value == pytest.approx(rq(0.0, 0.0), rel=1e-15, abs=0.0)
            e = 1e-5
            fd_grad = ((rq(e, 0.0) - rq(-e, 0.0)) / (2 * e), (rq(0.0, e) - rq(0.0, -e)) / (2 * e))
            assert np.allclose((gy, gz), fd_grad, rtol=1e-6, atol=1e-10), fd_grad
            e = 1e-3
            fd_hess = (
                (rq(e, 0.0) - 2.0 * value + rq(-e, 0.0)) / e**2,
                (rq(e, e) - rq(e, -e) - rq(-e, e) + rq(-e, -e)) / (4 * e * e),
                (rq(0.0, e) - 2.0 * value + rq(0.0, -e)) / e**2,
            )
            assert np.allclose((hyy, hyz, hzz), fd_hess, rtol=1e-5, atol=1e-8), fd_hess


def _outcome(call):
    try:
        return call()
    except (BoundaryOptimumError, NoGuidedModeError) as error:
        return error


@pytest.mark.parametrize("scheme", list(Scheme))
def test_effective_index_matches_solve_mode(scheme):
    # the Newton path against the Nelder-Mead path on a 7x7 grid of every
    # role: n_eff to rounding, and each failure with the same class and text
    wavelengths = {"pump": PUMP_NM, "signal_1": SIGNAL1_NM, "signal_2": SIGNAL2_NM,
                   "idler_1": idler_wavelength(PUMP_NM, SIGNAL1_NM),
                   "idler_2": idler_wavelength(PUMP_NM, SIGNAL2_NM)}
    sizes = np.geomspace(2.0, 20.0, 7).tolist()
    solved = failed = 0
    for width in sizes:
        for depth in sizes:
            solver = EffectiveIndexSolver(DEFAULT_MATERIAL, WaveguideGeometry(width, depth, 1.0))
            for role, pol in scheme.polarizations().items():
                profile = solver.profile(wavelengths[role], pol)
                newton = _outcome(lambda: mode_solver.effective_index(profile, wavelengths[role]))
                nelder_mead = _outcome(lambda: solve_mode(profile, wavelengths[role], pol).n_eff)
                where = (width, depth, role)
                if isinstance(nelder_mead, float):
                    assert isinstance(newton, float), where
                    assert abs(newton - nelder_mead) <= 1e-14, where
                    solved += 1
                else:
                    assert type(newton) is type(nelder_mead), where
                    assert str(newton) == str(nelder_mead), where
                    failed += 1
    assert solved > 150 and failed > 20


def direct_grid_start(profile, k0):
    """The grid start by order-GRID_ORDER direct quadrature on the profile's
    own nodes: the quotient at every grid point, then its argmax."""
    y, y2, g, wy, z2, zh2, f, wz = full_nodes(profile, mode_solver.GRID_ORDER)
    w, h = profile.geometry.width_um, profile.geometry.depth_um
    s = mode_solver.GRID_ALPHAS**2
    Y2 = np.exp(-2.0 * np.multiply.outer(s, y2) / w**2)
    dY2 = Y2 * (2.0 * np.multiply.outer(s, y) / w**2) ** 2
    t = 2.0 * np.multiply.outer(s, z2) / h**2
    envelope = np.exp(-t)
    Z2 = zh2 * envelope
    Ay, Gy, Dy = Y2 @ wy, (Y2 * g) @ wy, dY2 @ wy
    Az, Fz, Dz = Z2 @ wz, (Z2 * f) @ wz, (envelope * (1.0 - t) ** 2 / h**2) @ wz
    nb, dn = profile.bulk_index, profile.increment
    grid = (nb**2 + 2.0 * nb * dn * np.outer(Gy / Ay, Fz / Az)
            - np.add.outer(Dy / Ay, Dz / Az) / k0**2)
    iy, iz = np.unravel_index(int(np.argmax(grid)), grid.shape)
    return float(mode_solver.GRID_ALPHAS[iy]), float(mode_solver.GRID_ALPHAS[iz])


@pytest.mark.parametrize("scheme", list(Scheme))
def test_scaled_grid_start_matches_direct_quadrature(scheme):
    # the start of every Nelder-Mead run: the grid point from the scaled rows
    # equals that of the profile's own direct quadrature, on the 13x13
    # geomspace(2, 20) grid x 5 roles, for the default and a narrow channel
    # wall, and on random profiles
    wavelengths = {"pump": PUMP_NM, "signal_1": SIGNAL1_NM, "signal_2": SIGNAL2_NM,
                   "idler_1": idler_wavelength(PUMP_NM, SIGNAL1_NM),
                   "idler_2": idler_wavelength(PUMP_NM, SIGNAL2_NM)}
    lanes = [(profile, 1000.0) for profile in random_profiles(8)]
    for width in np.geomspace(2.0, 20.0, 13).tolist():
        for depth in np.geomspace(2.0, 20.0, 13).tolist():
            for material in (DEFAULT_MATERIAL, replace(DEFAULT_MATERIAL, lateral_scale=0.02)):
                solver = EffectiveIndexSolver(material, WaveguideGeometry(width, depth, 1.0))
                lanes += [(solver.profile(wavelengths[role], pol), wavelengths[role])
                          for role, pol in scheme.polarizations().items()]
    for lane in lanes:
        start = mode_solver._grid_start(*lane)
        assert (start.ay, start.az) == direct_grid_start(start.profile, start.k0), start.profile
    assert len(lanes) == 1698


def test_solved_n_eff_squared_is_the_rayleigh_quotient_at_its_optimum():
    # the final n_eff^2 from the scaled rows against the independent adaptive
    # direct quadrature of rayleigh_quotient, and effective_index likewise
    solved = 0
    for profile in random_profiles(6, seed=99):
        for wavelength in (700.0, 1000.0, 1500.0):
            try:
                mode = solve_mode(profile, wavelength, E)
            except (BoundaryOptimumError, NoGuidedModeError):
                continue
            solved += 1
            oracle = rayleigh_quotient(profile, wavelength, mode.alpha_y, mode.alpha_z)
            assert mode.n_eff**2 == pytest.approx(oracle, rel=1e-14, abs=0.0)
            newton = mode_solver.effective_index(profile, wavelength)
            assert newton**2 == pytest.approx(oracle, rel=1e-14, abs=0.0)
    assert solved >= 10


def test_narrow_channel_wall_optimum_is_newtons_at_order_768():
    # on a channel wall of lateral_scale 0.02, whose quotient converges only
    # at orders 192 to 384, Nelder-Mead on the GRID_ORDER rows still places
    # the optimum of the order-768 quotient, found by _newton, to 1e-6 in
    # alpha, and n_eff^2 is rayleigh_quotient's there
    narrow = replace(DEFAULT_MATERIAL, lateral_scale=0.02)
    scaled = mode_solver._scaled(0.02, narrow.depth_scale, 768)
    wavelengths = {"pump": PUMP_NM, "signal_1": SIGNAL1_NM, "signal_2": SIGNAL2_NM,
                   "idler_1": idler_wavelength(PUMP_NM, SIGNAL1_NM),
                   "idler_2": idler_wavelength(PUMP_NM, SIGNAL2_NM)}
    sizes = np.geomspace(2.0, 20.0, 7).tolist()
    solved = 0
    for scheme in Scheme:
        for width in sizes:
            for depth in sizes:
                solver = EffectiveIndexSolver(narrow, WaveguideGeometry(width, depth, 1.0))
                for role, pol in scheme.polarizations().items():
                    profile, wavelength = solver.profile(wavelengths[role], pol), wavelengths[role]
                    try:
                        mode = solve_mode(profile, wavelength, pol)
                    except (BoundaryOptimumError, NoGuidedModeError):
                        continue
                    solved += 1
                    start = mode_solver._grid_start(profile, wavelength)
                    ay, az = mode_solver._newton(profile, start.k0, scaled, start.ay, start.az)
                    where = (scheme, width, depth, role)
                    assert mode.alpha_y == pytest.approx(ay, rel=1e-6, abs=0.0), where
                    assert mode.alpha_z == pytest.approx(az, rel=1e-6, abs=0.0), where
                    oracle = rayleigh_quotient(profile, wavelength, mode.alpha_y, mode.alpha_z)
                    assert mode.n_eff**2 == pytest.approx(oracle, rel=1e-12, abs=0.0), where
    assert solved > 300


def test_solvers_reject_wavelengths_outside_the_supported_range_and_stop_on_nan():
    # before, 1e300 and 1e-300 nm overflowed in the grid start or the
    # objective, and alpha_y=1e300 ran NaN estimates up to order 3072
    profile = IndexProfile(WaveguideGeometry(10.0, 10.0, 1.0), 2.2, 0.003)
    low, high = mode_solver.WAVELENGTH_RANGE_NM
    for bad in (1e-300, 0.5 * low, 2.0 * high, 1e300):
        for call in (lambda: solve_mode(profile, bad, E),
                     lambda: mode_solver.effective_index(profile, bad),
                     lambda: rayleigh_quotient(profile, bad, 1.0, 1.0)):
            with pytest.raises(ConfigurationError, match="outside the supported range") as raised:
                call()
            assert raised.value.field == "wavelength_nm"
    with pytest.raises(QuadratureConvergenceError, match="^quadrature estimate nan at order 48"):
        rayleigh_quotient(profile, 780.0, 1e300, 1.0)
