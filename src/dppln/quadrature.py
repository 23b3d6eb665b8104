"""Panelled Gauss-Legendre quadrature with nested order refinement.

Integrands here are smooth (Gaussians, erf products), so fixed panels with
doubling Gauss order converge spectrally.  Node sets are cached per
(panel edges, order).
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureConvergenceError

START_ORDER = 48
MAX_ORDER = 3072


@lru_cache(maxsize=256)
def _leggauss(order):
    return leggauss(order)


@lru_cache(maxsize=4096)
def panel_nodes(edges, order):
    """Concatenated Gauss-Legendre nodes/weights for each panel of `edges`.

    `edges` is a strictly increasing tuple of panel boundaries; `order` is
    the per-panel Gauss order.  Returns (nodes, weights) as read-only arrays.
    """
    x0, w0 = _leggauss(order)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (b - a) * x0 + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * w0)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def refine_scalar(evaluate, rtol=1e-12, atol=0.0):
    """Double the Gauss order from START_ORDER until `evaluate(order)` stabilises.

    `evaluate` maps a per-panel order to a scalar estimate.  Convergence is
    declared when two successive estimates agree to `rtol` relative (plus
    `atol` absolute, so values collapsing to zero still converge).  Returns
    (value, converged_order).
    """
    order = START_ORDER
    previous = evaluate(order)
    while order <= MAX_ORDER // 2:
        order *= 2
        current = evaluate(order)
        if abs(current - previous) <= rtol * abs(current) + atol:
            return current, order
        previous = current
    raise QuadratureConvergenceError(
        f"quadrature did not converge to rtol={rtol:g} within order {MAX_ORDER}"
    )
