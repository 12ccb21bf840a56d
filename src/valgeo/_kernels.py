"""The hull-distance kernel: Wolfe's min-norm-point algorithm in pure NumPy.

``dist(x, conv(V))`` is the norm of the minimum-norm point of ``conv(V - x)``.
Wolfe's algorithm maintains a "corral" of affinely independent vertices whose
affine minimizer has positive barycentric coordinates; it terminates after
finitely many corrals.  ``hull_distances`` runs the iteration for a whole
block of points at once, so the Python overhead is paid per round, not per
point.

Membership counts in R^2 and R^3 are decided exactly from facets and edges
(``bodies._within``), so this kernel measures only their 1-in-64 audit
sample and points within the decision margin of a threshold, flat bodies,
points of bodies in R^4 and above that facet and edge bounds leave open, and
direct calls to ``hull_distances`` and ``bodies.dist_to_polytope``.
``BACKEND`` names the kernel in traces and benchmark records; it is always
``"python"``.
"""

from __future__ import annotations

import numpy as np

from . import trace

BACKEND = "python"
BLOCK_FLOATS = 1 << 16


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
        trace.counters["wolfe_ridge_retries"] += 1
        a[:k, :k] += (1e-12 * max(1.0, np.trace(g)) / k) * np.eye(k)
        sol = np.linalg.solve(a, rhs)
    return sol[:k]


def _affine_minimizers(w: np.ndarray) -> np.ndarray:
    """``_affine_minimizer`` of each ``(k, n)`` corral in a ``(q, k, n)`` stack.

    One stacked solve; if any system is singular, every row is redone by
    ``_affine_minimizer`` so that the ridge applies only where it is needed.
    """
    q, k, _ = w.shape
    a = np.zeros((q, k + 1, k + 1))
    a[:, :k, :k] = w @ w.swapaxes(1, 2)
    a[:, :k, k] = 1.0
    a[:, k, :k] = 1.0
    rhs = np.zeros((q, k + 1, 1))
    rhs[:, k] = 1.0
    try:
        return np.linalg.solve(a, rhs)[:, :k, 0]
    except np.linalg.LinAlgError:
        return np.stack([_affine_minimizer(row) for row in w])


def _min_norm_points(w: np.ndarray, max_iter: int = 1000) -> np.ndarray:
    """Minimum-norm point of conv of each ``(m, n)`` vertex set in a ``(b, m, n)`` stack.

    Every row runs its own Wolfe iteration; the rows advance in lock-step,
    one major cycle per round, and a row leaves the round once it has
    converged. A row's corral is kept in slots ``0 .. size-1`` in the order
    the vertices entered it, and minor cycles are solved for all rows with
    the same corral size at once.  A row still live after ``max_iter``
    rounds returns its current iterate and adds one to
    ``trace.counters["wolfe_max_iter_rows"]``.
    """
    b, m, _ = w.shape
    sq = np.einsum("bij,bij->bi", w, w)
    tol = 1e-12 * sq.max(axis=1)
    rows = np.arange(b)
    first = np.argmin(sq, axis=1)
    x = w[rows, first]
    corral = np.zeros((b, m), dtype=np.intp)
    corral[:, 0] = first
    lam = np.zeros((b, m))
    lam[:, 0] = 1.0
    size = np.ones(b, dtype=np.intp)
    entering = np.zeros(b, dtype=np.intp)
    slots = np.arange(m)
    live = rows
    for _ in range(max_iter):
        if not live.size:
            break
        xl = x[live]
        dots = np.einsum("bij,bj->bi", w[live], xl)
        jstar = np.argmin(dots, axis=1)
        gap = np.einsum("bj,bj->b", xl, xl) - dots[np.arange(live.size), jstar]
        # A vertex already in the corral is a numerical stall: x is optimal
        # to precision.
        stalled = ((corral[live] == jstar[:, None])
                   & (slots < size[live][:, None])).any(axis=1)
        moving = ~(gap <= tol[live]) & ~stalled
        trace.counters["wolfe_stalled_rows"] += int(np.count_nonzero(stalled & ~(gap <= tol[live])))
        live, jstar = live[moving], jstar[moving]
        corral[live, size[live]] = jstar
        lam[live, size[live]] = 0.0
        size[live] += 1
        entering[live] = jstar
        # Minor cycles: restore positivity of the barycentric coordinates.
        minor = live
        while minor.size:
            carry = []
            for k in np.unique(size[minor]):
                r = minor[size[minor] == k]
                wc = w[r[:, None], corral[r, :k]]
                alpha = _affine_minimizers(wc)
                ok = alpha.min(axis=1) > 1e-12
                lam[r[ok], :k] = alpha[ok]
                x[r[ok]] = np.einsum("qk,qkj->qj", alpha[ok], wc[ok])
                r, alpha = r[~ok], alpha[~ok]
                if not r.size:
                    continue
                old = lam[r, :k]
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratios = np.where(alpha <= 1e-12, old / (old - alpha), np.inf)
                theta = np.minimum(np.maximum(ratios.min(axis=1), 0.0), 1.0)[:, None]
                mixed = theta * alpha + (1.0 - theta) * old
                keep = slots[:k] != np.argmin(mixed, axis=1)[:, None]
                kept_lam = mixed[keep].reshape(r.size, k - 1)
                corral[r, : k - 1] = corral[r, :k][keep].reshape(r.size, k - 1)
                ssum = kept_lam.sum(axis=1)
                reset = (ssum <= 0.0) | (k == 1)
                back = r[reset]
                trace.counters["wolfe_corral_resets"] += back.size
                corral[back, 0] = entering[back]
                lam[back, 0] = 1.0
                size[back] = 1
                x[back] = w[back, entering[back]]
                r = r[~reset]
                lam[r, : k - 1] = kept_lam[~reset] / ssum[~reset, None]
                size[r] = k - 1
                carry.append(r)
            minor = np.concatenate(carry) if carry else minor[:0]
    trace.counters["wolfe_max_iter_rows"] += live.size
    return x


def hull_distances(points: np.ndarray, vertices: np.ndarray, max_iter: int = 1000) -> np.ndarray:
    """Euclidean distance from each row of ``points`` to conv(vertices).

    Points are processed in blocks of about ``BLOCK_FLOATS`` translated
    vertex coordinates, so memory stays flat for any number of points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    v = np.asarray(vertices, dtype=np.float64)
    if pts.ndim != 2 or v.ndim != 2:
        raise ValueError("points and vertices must be 2-D arrays")
    if pts.shape[1] != v.shape[1]:
        raise ValueError("points and vertices have different dimensions")
    if v.shape[0] == 0:
        raise ValueError("empty vertex set")
    out = np.empty(pts.shape[0])
    block = max(1, BLOCK_FLOATS // v.size)
    for start in range(0, pts.shape[0], block):
        x = _min_norm_points(v[None] - pts[start:start + block, None], max_iter)
        out[start:start + block] = np.sqrt(np.einsum("ij,ij->i", x, x))
    return out
