"""Pure-NumPy min-norm-point kernel (Wolfe's algorithm).

Same algorithm as the compiled kernel in ``_mnp.c``; this module is the
fallback selected at import when that kernel is unavailable, and the
reference it is tested against.

``dist(x, conv(V))`` is the norm of the minimum-norm point of ``conv(V - x)``.
Wolfe's algorithm maintains a "corral" of affinely independent vertices whose
affine minimizer has positive barycentric coordinates; it terminates after
finitely many corrals.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"


def _affine_minimizer(w: np.ndarray) -> np.ndarray:
    """Coefficients alpha (sum 1) minimizing |sum alpha_j w_j| over the rows.

    Solves the bordered normal system; a tiny ridge is added if the Gram
    matrix is numerically singular (affinely dependent corral).
    """
    k = w.shape[0]
    g = w @ w.T
    a = np.empty((k + 1, k + 1))
    a[:k, :k] = g
    a[:k, k] = 1.0
    a[k, :k] = 1.0
    a[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        a[:k, :k] += (1e-12 * max(1.0, np.trace(g)) / k) * np.eye(k)
        sol = np.linalg.solve(a, rhs)
    return sol[:k]


def min_norm_point(vertices: np.ndarray, max_iter: int = 1000) -> np.ndarray:
    """Minimum-norm point of the convex hull of the rows of ``vertices``."""
    w = np.asarray(vertices, dtype=float)
    m = w.shape[0]
    sq = np.einsum("ij,ij->i", w, w)
    scale = float(sq.max()) if m else 0.0
    if scale == 0.0:
        return np.zeros(w.shape[1])
    tol = 1e-12 * scale
    j = int(np.argmin(sq))
    corral = [j]
    lam = np.array([1.0])
    x = w[j].copy()
    for _ in range(max_iter):
        dots = w @ x
        xx = float(x @ x)
        jstar = int(np.argmin(dots))
        if xx - dots[jstar] <= tol:
            return x
        if jstar in corral:
            return x  # numerical stall; current x is optimal to precision
        corral.append(jstar)
        lam = np.append(lam, 0.0)
        # Minor cycles: restore positivity of the barycentric coordinates.
        while True:
            alpha = _affine_minimizer(w[corral])
            if alpha.min() > 1e-12:
                lam = alpha
                x = alpha @ w[corral]
                break
            neg = alpha <= 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = lam[neg] / (lam[neg] - alpha[neg])
            theta = float(np.min(ratios))
            theta = min(max(theta, 0.0), 1.0)
            lam = theta * alpha + (1.0 - theta) * lam
            drop = int(np.argmin(lam))
            keep = np.ones(len(corral), dtype=bool)
            keep[drop] = False
            corral = [c for c, k in zip(corral, keep) if k]
            lam = lam[keep]
            ssum = lam.sum()
            if ssum <= 0.0 or not corral:
                corral = [jstar]
                lam = np.array([1.0])
                x = w[jstar].copy()
                break
            lam = lam / ssum
    return x


def check_inputs(points, vertices) -> tuple[np.ndarray, np.ndarray]:
    """C-contiguous float64 ``(npts, n)`` points and ``(m, n)`` vertices, m >= 1.

    Both backends call this first, so they reject the same inputs.
    """
    pts = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=np.float64)))
    verts = np.ascontiguousarray(np.asarray(vertices, dtype=np.float64))
    if pts.ndim != 2 or verts.ndim != 2:
        raise ValueError("points and vertices must be 2-D arrays")
    if pts.shape[1] != verts.shape[1]:
        raise ValueError("points and vertices have different dimensions")
    if verts.shape[0] == 0:
        raise ValueError("empty vertex set")
    return pts, verts


def hull_distances(points: np.ndarray, vertices: np.ndarray, max_iter: int = 1000) -> np.ndarray:
    """Euclidean distance from each row of ``points`` to conv(vertices)."""
    pts, v = check_inputs(points, vertices)
    out = np.empty(pts.shape[0])
    for i, x in enumerate(pts):
        out[i] = float(np.linalg.norm(min_norm_point(v - x, max_iter)))
    return out
