import numpy as np
import pytest
from scipy.special import erf

from dppln import DesignRequest, Scheme, WaveguideGeometry, design, mode_solver
from dppln.errors import QuadratureConvergenceError
from dppln.quadrature import panel_nodes, refine_rows, refine_scalar


def test_panel_nodes_integrate_gaussian():
    x, w = panel_nodes((-5.0, 0.0, 5.0), 64)
    assert w @ np.exp(-(x**2)) == pytest.approx(np.sqrt(np.pi) * erf(5.0), rel=1e-14)


def test_panel_nodes_cached_and_readonly():
    a = panel_nodes((0.0, 1.0), 16)
    b = panel_nodes((0.0, 1.0), 16)
    assert a[0] is b[0]
    with pytest.raises(ValueError):
        a[0][0] = 1.0


def test_panel_nodes_cache_holds_only_the_shared_quadratures():
    # nodes of earlier geometries are not kept: two axes per _quadrature entry
    for width in np.linspace(6.0, 11.0, 10):
        design(DesignRequest(Scheme.TYPE0_EEE, 519.0, 780.0, 775.0,
                             WaveguideGeometry(width, 10.0, 1.0)))
    assert panel_nodes.cache_info().currsize <= 2 * mode_solver._quadrature.cache_info().maxsize


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


def test_refine_rows_ends_a_row_at_its_first_non_finite_estimate():
    # the finite rows keep refine_scalar's (value, order); before, a NaN row
    # doubled to order 3072
    def evaluate(order, rows):
        calls.append((order, list(rows)))
        return [[1.0 + 2.0**-order, np.nan, 1.0 + 1.0 / order, np.inf][row] for row in rows]

    calls = []
    first, nan, slow, inf = refine_rows(evaluate, 4)
    assert first == refine_scalar(lambda order: 1.0 + 2.0**-order)
    assert isinstance(slow, QuadratureConvergenceError) and "3072" in str(slow)
    for outcome, text in ((nan, "nan"), (inf, "inf")):
        assert isinstance(outcome, QuadratureConvergenceError)
        assert str(outcome) == f"quadrature estimate {text} at order 48 is not finite"
    assert calls[0] == (48, [0, 1, 2, 3]) and calls[1] == (96, [0, 2])
