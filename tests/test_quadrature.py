import numpy as np
import pytest
from scipy.special import erf

from dppln import DesignRequest, Scheme, WaveguideGeometry, design, mode_solver
from dppln.errors import QuadratureConvergenceError
from dppln.quadrature import panel_nodes, refine, refine_scalar


def test_panel_nodes_integrate_gaussian():
    x, w = panel_nodes((-5.0, 0.0, 5.0), 64)
    assert w @ np.exp(-(x**2)) == pytest.approx(np.sqrt(np.pi) * erf(5.0), rel=1e-14)


def test_panel_nodes_cached_and_readonly():
    a = panel_nodes((0.0, 1.0), 16)
    b = panel_nodes((0.0, 1.0), 16)
    assert a[0] is b[0]
    with pytest.raises(ValueError):
        a[0][0] = 1.0


def test_panel_nodes_cache_is_bounded_and_each_design_reads_two_node_sets():
    # nodes of earlier geometries are not kept beyond 16 node sets, two axes
    # for each of 8 shapes, and no other cache holds nodes: with the scaled
    # rows built, a design of a new width builds its y nodes and reads its
    # depth's z nodes, one set each
    def request(width):
        return DesignRequest(Scheme.TYPE0_EEE, 519.0, 780.0, 775.0,
                             WaveguideGeometry(width, 10.0, 1.0))

    design(request(6.0))
    for width in np.linspace(6.0, 11.0, 10)[1:].tolist():
        before = panel_nodes.cache_info()
        design(request(width))
        after = panel_nodes.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1), width
    info = panel_nodes.cache_info()
    assert info.currsize <= info.maxsize == 16


def test_refine_scalar_converges():
    def evaluate(order):
        x, w = panel_nodes((0.0, 1.0, 3.0), order)
        return w @ np.exp(-(x**2)) * 2.0 / np.sqrt(np.pi)

    value, order = refine_scalar(evaluate)
    assert value == pytest.approx(erf(3.0), rel=1e-12)
    assert order >= 96


def test_refine_scalar_raises_when_not_converging():
    with pytest.raises(QuadratureConvergenceError):
        refine_scalar(lambda order: 1.0 + 1.0 / order)


def test_refine_ends_at_its_first_non_finite_estimate_and_returns_its_error():
    # a converging estimate keeps refine_scalar's (value, order); before, a
    # NaN estimate doubled to order 3072
    def recorded(estimate):
        calls = []
        return refine(lambda order: calls.append(order) or estimate(order)), calls

    first, calls = recorded(lambda order: 1.0 + 2.0**-order)
    assert first == refine_scalar(lambda order: 1.0 + 2.0**-order) and calls == [48, 96]
    slow, _ = recorded(lambda order: 1.0 + 1.0 / order)
    assert isinstance(slow, QuadratureConvergenceError) and "3072" in str(slow)
    assert slow.__traceback__ is None
    for estimate, text in ((np.nan, "nan"), (np.inf, "inf")):
        outcome, calls = recorded(lambda order: estimate)
        assert isinstance(outcome, QuadratureConvergenceError) and calls == [48]
        assert str(outcome) == f"quadrature estimate {text} at order 48 is not finite"
