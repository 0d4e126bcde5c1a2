"""Ordinary least squares, shared by ripple extraction and the parameter
regressions: by QR on the regressor matrix, or on normal equations
accumulated block by block."""

from __future__ import annotations

import numpy as np


class RankDeficient(RuntimeError):
    """The regressor matrix does not determine the coefficients."""


def ols_fit(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve min ||X b - y||_2 by QR factorization.

    Returns (b, xtx_inv, residuals) where xtx_inv = (X^T X)^-1 is the
    unscaled coefficient covariance. Raises RankDeficient when a diagonal of
    R collapses relative to the column scale.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise ValueError("X must be 2-D with one row per observation")
    n, k = X.shape
    if n < k:
        raise RankDeficient(f"{n} observations cannot determine {k} coefficients")
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    col_scale = np.max(np.abs(X), axis=0)
    if np.any(col_scale == 0.0) or np.any(diag < 1e-12 * np.max(col_scale)):
        raise RankDeficient("regressor matrix is numerically rank-deficient")
    beta = np.linalg.solve(r, q.T @ y)
    r_inv = np.linalg.solve(r, np.eye(k))
    xtx_inv = r_inv @ r_inv.T
    residuals = y - X @ beta
    return beta, xtx_inv, residuals


def gram_fit(xtx: np.ndarray, xty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the normal equations xtx b = xty of a least squares accumulated
    as its Gram matrix, with the columns scaled to a unit diagonal.

    Returns (b, xtx_inv) as `ols_fit` does. Raises RankDeficient when a
    column is zero or the scaled Gram matrix is numerically singular.
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
