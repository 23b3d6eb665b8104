"""Panelled Gauss-Legendre quadrature with nested order refinement.

Integrands here are smooth (Gaussians, erf products), so fixed panels with
doubling Gauss order converge spectrally.  Node sets are cached per
(panel edges, order).  `refine` returns a failed refinement's error and
`refine_scalar` raises it.
"""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureConvergenceError, raised

START_ORDER = 48
MAX_ORDER = 3072
RTOL = 1e-12  # the relative agreement of two successive estimates that converge


@lru_cache(maxsize=256)
def _leggauss(order):
    return leggauss(order)


# Two axes per (shape, order): a Nelder-Mead batch reads each of its shapes once at
# GRID_ORDER, rayleigh_quotient once per order it doubles to, and the scaled moment
# rows the unit box at each order they are built for; a hit is a shape's nodes read
# again, by a later batch or for other diffusion scales.
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


def refine(evaluate):
    """Double the Gauss order from START_ORDER until `evaluate(order)` stabilises.

    `evaluate` maps a per-panel order to a scalar estimate.  Convergence is
    declared when two successive estimates agree to RTOL relative.  Returns
    (value, converged_order), or, unraised, the QuadratureConvergenceError of
    the first estimate that is not finite or of no convergence by MAX_ORDER.
    """
    previous, order = None, START_ORDER
    while True:
        current = evaluate(order)
        if not math.isfinite(current):
            return QuadratureConvergenceError(
                f"quadrature estimate {current} at order {order} is not finite")
        if previous is not None and abs(current - previous) <= RTOL * abs(current):
            return current, order
        if order > MAX_ORDER // 2:
            return QuadratureConvergenceError(
                f"quadrature did not converge to rtol={RTOL:g} within order {MAX_ORDER}")
        previous, order = current, 2 * order


def refine_scalar(evaluate):
    """`refine`, raised: its (value, converged_order), or its error raised."""
    return raised([refine(evaluate)])
