"""Panelled Gauss-Legendre quadrature with nested order refinement.

Integrands here are smooth (Gaussians, erf products), so fixed panels with
doubling Gauss order converge spectrally.  Node sets are cached per
(panel edges, order).
"""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureConvergenceError

START_ORDER = 48
MAX_ORDER = 3072


@lru_cache(maxsize=256)
def _leggauss(order):
    return leggauss(order)


# Two axes for each of the 8 (shape, order) entries of mode_solver._quadrature:
# the hits are field_overlap re-reading the nodes a solve has just built.
@lru_cache(maxsize=16)
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


def refine_rows(evaluate, count, rtol=1e-12, atol=0.0):
    """`refine_scalar` for `count` estimates at once.

    `evaluate(order, rows)` maps a per-panel order and the indices of the
    rows still refining to their estimates.  Each row doubles and stops as
    `refine_scalar` does, so its (value, converged_order) is bit for bit
    `refine_scalar`'s; a row that does not converge, or whose estimate is not
    finite, gets its QuadratureConvergenceError, unraised, instead.  Returns
    one per row.
    """
    outcomes, previous, rows, order = [None] * count, {}, list(range(count)), START_ORDER
    while rows:
        refining = []
        for row, current in zip(rows, evaluate(order, rows)):
            if not math.isfinite(current):
                outcomes[row] = QuadratureConvergenceError(
                    f"quadrature estimate {current} at order {order} is not finite")
            elif row in previous and abs(current - previous[row]) <= rtol * abs(current) + atol:
                outcomes[row] = current, order
            elif order > MAX_ORDER // 2:
                outcomes[row] = QuadratureConvergenceError(
                    f"quadrature did not converge to rtol={rtol:g} within order {MAX_ORDER}")
            else:
                refining.append(row)
                previous[row] = current
        rows, order = refining, 2 * order
    return outcomes


def refine_scalar(evaluate, rtol=1e-12, atol=0.0):
    """Double the Gauss order from START_ORDER until `evaluate(order)` stabilises.

    `evaluate` maps a per-panel order to a scalar estimate.  Convergence is
    declared when two successive estimates agree to `rtol` relative (plus
    `atol` absolute, so values collapsing to zero still converge).  Returns
    (value, converged_order); the one-row case of `refine_rows`.
    """
    (outcome,) = refine_rows(lambda order, rows: [evaluate(order)], 1, rtol, atol)
    if isinstance(outcome, QuadratureConvergenceError):
        raise outcome
    return outcome
