"""Ordinary least squares on normal equations, the one solver of the
parameter regressions: the identification accumulates its Gram matrix run
by run, the paper's split forms it from a regressor matrix of five
columns."""

from __future__ import annotations

import numpy as np


class RankDeficient(RuntimeError):
    """The regressor matrix does not determine the coefficients."""


def gram_fit(xtx: np.ndarray, xty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the normal equations xtx b = xty of a least squares accumulated
    as its Gram matrix, with the columns scaled to a unit diagonal.

    Returns (b, xtx_inv), where xtx_inv = xtx^-1 is the unscaled coefficient
    covariance. Raises RankDeficient when a column is zero or not finite, or
    the scaled Gram matrix is numerically singular.
    """
    scale = np.sqrt(np.diag(xtx))
    if not np.all(scale > 0.0) or not np.all(np.isfinite(xtx)):
        raise RankDeficient("a regressor column is zero or not finite")
    outer = np.outer(scale, scale)
    scaled = xtx / outer
    if np.linalg.cond(scaled) > 1e12:
        raise RankDeficient("regressor matrix is numerically rank-deficient")
    xtx_inv = np.linalg.inv(scaled) / outer
    return xtx_inv @ xty, xtx_inv
