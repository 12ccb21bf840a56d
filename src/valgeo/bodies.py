"""Polytope geometry: projections, exact volumes, Steiner fits, Kubota MC.

Polytopes are stored by their extreme points.  Exact volumes, areas and
facets come from one Qhull call per polytope, kept as ``Polytope.faces``
(intended range n <= 6); the edges in every dimension come from that
record by one rule (``_simplex_edges``), and one table per body
(``_EdgeTables``) serves every reader of their segments.  ``shadow_measures``
chooses how a Monte-Carlo chunk of shadows vol_k(P M_t) is measured: widths
for k = 1; Cauchy's formula for k = 2 when n = 3, P is full dimensional and
no perimeter is wanted; for every other k = 2 an edge test that picks the
shadow's boundary among P's edges with small matmuls of Plucker
coordinates, in coordinates of P's affine hull for flat P, with the rows it
finds tied measured by Qhull per image; Qhull per image for k >= 3.  The one
caller that bypasses it is Kubota for k = n - 1, which draws unit normals
for Cauchy's formula.  Minkowski-ball volumes vol(K + eps D) are estimated
by Monte-Carlo membership, decided exactly from facets and edges in R^2 and
R^3, by facet and edge bounds where they are conclusive in higher
dimensions, and by the min-norm-point kernel elsewhere; the Cauchy-Kubota
estimator is calibrated to be exact on the unit ball.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree
from scipy.spatial.distance import pdist

from . import trace
from ._kernels import hull_distances
from .base import Estimate, mc_chunks, mc_samples, mean_and_stderr, unit_ball_volume
from .errors import ConditioningWarning, DimensionError, ScopeError
from .grassmann import (SeededSampler, Subspace, _haar_maps, _map_ball_volume, _plucker,
                        _subsets, _transposed_products, haar_bases_batch, haar_unit_vectors)

_DEDUP_TOL = 1e-9
_AFFINE_TOL = 1e-9
_EDGE_BLOCK = 1 << 17  # _edge_shadows: map-wedge products per row block
_CAUCHY_BLOCK = 1 << 17  # cauchy_shadow_volumes: direction-facet products per row block
_CONTAINS_TOL = 1e-9   # mc_hull_volume: dist <= tol * (1 + max|v|)
_MARGIN = 1e-9         # _within decides a point only this far (times 1 + max|v|) from a threshold
_COPLANAR_TOL = 1e-12  # facet rows merged by _face_record
_AUDIT_STRIDE = 64     # _within also sends every 64th decided point to Wolfe
_FACET_BLOCK = 1 << 17  # _within brackets points in blocks of this many point-facet pairs
_SEGMENT_BLOCK = 1 << 14  # _nearest_segment_distances: point-edge pairs per block
_PAIR_BLOCK = 1 << 17  # _simplex_edges: vertex-pair-facet entries per block


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polytope:
    """Convex polytope given by its extreme points.

    Redundant input points are removed on construction and the affine
    dimension is recorded; lower-dimensional polytopes (which arise under
    projection) are legal and have volume 0 in their ambient space.
    """

    ambient_dim: int
    vertices: np.ndarray = field(repr=False)
    affine_dim: int = field(init=False)

    def __post_init__(self):
        v = np.ascontiguousarray(np.atleast_2d(np.asarray(self.vertices, dtype=float)))
        if v.shape[0] == 0:
            raise ValueError("empty vertex list")
        if v.shape[1] != self.ambient_dim:
            raise DimensionError(
                f"vertex dimension {v.shape[1]} != ambient dimension {self.ambient_dim}"
            )
        v, adim = _extreme_points(v)
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "affine_dim", adim)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def diameter(self) -> float:
        return float(pdist(self.vertices).max(initial=0.0))

    @cached_property
    def faces(self) -> "FaceRecord | None":
        """P's ``FaceRecord``, built on first use; None for flat P and n < 2."""
        if self.affine_dim < self.ambient_dim or self.ambient_dim < 2:
            return None
        return _face_record(self)

    @cached_property
    def edges(self) -> np.ndarray | None:
        """P's edges as vertex index pairs (u, v), u < v, in ascending order,
        read-only; None for flat P and n < 2.  Built on first use from
        ``faces`` by ``_simplex_edges``."""
        f = self.faces
        if f is None:
            return None
        edges = _simplex_edges(f.simplices, f.facets, self.n_vertices)
        edges.setflags(write=False)
        return edges

    @cached_property
    def _flat(self) -> tuple["Polytope", np.ndarray]:
        """(Q, F) for a flat P: Q is P in orthonormal coordinates, the rows of
        F, of the affine hull of its vertices, so P M is a translate of Q (F M).
        Their affine rank may be below P's affine dimension, taken from every
        input point; Q is full dimensional or of affine dimension <= 1."""
        q, frame = self, np.eye(self.ambient_dim)
        while 2 <= q.affine_dim < q.ambient_dim:
            centered = q.vertices - q.vertices.mean(axis=0)
            _, sv, vt = np.linalg.svd(centered, full_matrices=False)
            basis = vt[:_affine_rank(sv)]
            q, frame = Polytope(len(basis), centered @ basis.T), basis @ frame
        return q, frame

    @cached_property
    def _edge_tables(self) -> "_EdgeTables":
        """P's ``_EdgeTables``, built on first use."""
        return _build_edge_tables(self)

    def __repr__(self) -> str:
        return (
            f"Polytope(ambient_dim={self.ambient_dim}, "
            f"n_vertices={self.n_vertices}, affine_dim={self.affine_dim})"
        )


@dataclass(frozen=True, eq=False)
class FaceRecord:
    """The faces of a full-dimensional P in R^n from one Qhull call; arrays read-only.

    Qhull triangulates non-simplicial facets: a and b merge the rows that
    agree to 1e-12 (offsets relative to 1 + max|v|) into the first of them,
    while normals and areas keep every simplex.  ``Polytope.edges`` and
    ``_EdgeTables`` are built from simplices and facets.
    """

    a: np.ndarray          # P = {x : a x <= b}; rows are unit facet normals
    b: np.ndarray
    margin: float          # _within's decision margin, 1e-9 (1 + max|v|)
    certifies: bool        # no vertex breaks a x <= b by more than rounding
    simplices: np.ndarray  # Qhull's simplices as vertex index rows, and the merged
    facets: np.ndarray     # facet (0, 1, ... in order of a's rows) each belongs to
    normals: np.ndarray    # unit normals and (n-1)-areas of Qhull's simplices (Cauchy's formula)
    areas: np.ndarray
    volume: float          # Qhull's volume and surface area
    area: float

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


class _EdgeTables(NamedTuple):
    """Per-body tables of the E edges (a, b) of a full-dimensional P, with
    step s = b - a; arrays read-only.  ``_edge_shadows`` reads wedges,
    triangles and steps, ``_nearest_segment_distances`` the segments.
    Wedges are Plucker vectors (pairs i < j in ``np.triu_indices`` order), so
    pi . (x ^ y) = det[x M; y M] for the Plucker vector pi of a map M
    (Cauchy-Binet)."""

    wedges: np.ndarray     # (D, C, E): s ^ (w - a) / (|s| |w - a|) for the other
                           # neighbours w of a, padded to D by repeating the first
    triangles: np.ndarray  # (C, E): (a - o) ^ (b - o), o the vertex centroid
    origins: np.ndarray    # (n, E): edge e is origins[:, e] + r steps[:, e], r in [0, 1]
    steps: np.ndarray      # (n, E)
    projectors: np.ndarray  # (E, n) rows s / |s|^2
    offsets: np.ndarray    # (E, 1) projectors . a


@dataclass(frozen=True)
class Ball:
    """The unit Euclidean ball D_L of a linear subspace L."""

    subspace: Subspace

    @property
    def ambient_dim(self) -> int:
        return self.subspace.ambient_dim

    @property
    def dim(self) -> int:
        return self.subspace.dim


@dataclass(frozen=True)
class SteinerPolynomial:
    """Fit of vol(K + eps D) = sum_m coefficients[m] * eps^m.

    The coefficient of eps^m is kappa_m * V_{n-m}(K), so intrinsic volumes
    are read off by dividing by ball volumes.  ``coefficient_stderrs`` are
    the volumes' standard errors propagated through the least-squares fit.
    """

    degree: int
    coefficients: np.ndarray
    fit_residual: float = 0.0
    condition_number: float = 1.0
    grid: np.ndarray | None = None
    volumes: np.ndarray | None = None
    volume_stderrs: np.ndarray | None = None
    coefficient_stderrs: np.ndarray | None = None


@dataclass(frozen=True)
class IntrinsicVolumeVector:
    """Values V_0 .. V_n; V_0 is the Euler characteristic (1 for nonempty K)."""

    values: np.ndarray

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])

    @property
    def degree(self) -> int:
        return len(self.values) - 1


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _dedupe(points: np.ndarray) -> np.ndarray:
    """Keep each point farther than the tolerance from every earlier kept one.

    A k-d tree finds the pairs within twice the tolerance; each is then put
    to the exact test ``norm(p_i - p_j) <= tol`` and settled greedily in
    input order, so the kept points are those of the point-by-point scan.
    """
    tol = _DEDUP_TOL * (1.0 + float(np.abs(points).max(initial=0.0)))
    pairs = cKDTree(points).query_pairs(2.0 * tol, output_type="ndarray")
    keep = np.ones(len(points), dtype=bool)
    if len(pairs):
        pairs = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]  # by later point, then earlier
        close = np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1) <= tol
        for i, j in pairs[close].tolist():
            if keep[i]:
                keep[j] = False
    return points[keep]


def _affine_rank(sv: np.ndarray) -> int:
    """The number of singular values of a centred cloud above 1e-9 max(1, sv[0])."""
    return int(np.sum(sv > _AFFINE_TOL * max(1.0, sv[0])))


def _extreme_points(points: np.ndarray) -> tuple[np.ndarray, int]:
    """Hull-reduce a point cloud; returns (extreme points, affine dimension)."""
    n = points.shape[1]
    if n == 0:
        return points[:1].copy(), 0
    pts = _dedupe(points)
    if pts.shape[0] == 1:
        return pts, 0
    center = pts.mean(axis=0)
    centered = pts - center
    u, sv, vt = np.linalg.svd(centered, full_matrices=False)
    adim = _affine_rank(sv)
    if adim == 0:
        return pts[:1].copy(), 0
    coords = centered @ vt[:adim].T
    if adim == 1:
        idx = sorted({int(np.argmin(coords[:, 0])), int(np.argmax(coords[:, 0]))})
        return pts[idx], 1
    if pts.shape[0] <= adim + 1:
        return pts, adim
    try:
        hull = ConvexHull(coords)
    except QhullError:
        trace.counters["qhull_joggled"] += 1
        hull = ConvexHull(coords, qhull_options="QJ")
    idx = sorted(int(i) for i in hull.vertices)
    return pts[idx], adim


def make_cube(n: int, side: float = 1.0, centered: bool = False) -> Polytope:
    """Axis-aligned cube [0, side]^n (or centered at the origin)."""
    if n < 1:
        raise DimensionError("n >= 1 required")
    corners = np.array(np.meshgrid(*([[0.0, side]] * n), indexing="ij")).reshape(n, -1).T
    if centered:
        corners = corners - side / 2.0
    return Polytope(n, corners)


def make_simplex(n: int) -> Polytope:
    """Standard simplex conv{0, e_1, ..., e_n}; volume 1/n!."""
    if n < 1:
        raise DimensionError("n >= 1 required")
    return Polytope(n, np.vstack([np.zeros(n), np.eye(n)]))


def make_crosspolytope(n: int) -> Polytope:
    if n < 1:
        raise DimensionError("n >= 1 required")
    return Polytope(n, np.vstack([np.eye(n), -np.eye(n)]))


def make_random_polytope(n: int, m: int, s: SeededSampler) -> Polytope:
    """Hull of m Haar-random points on the unit sphere."""
    if m < n + 1:
        raise ValueError(f"need m >= n+1 points, got m={m}, n={n}")
    return Polytope(n, haar_unit_vectors(n, m, s))


def polytope_to_json(p: Polytope) -> dict:
    return {"ambient_dim": p.ambient_dim, "vertices": p.vertices.tolist()}


def polytope_from_json(d: dict) -> Polytope:
    return Polytope(int(d["ambient_dim"]), np.asarray(d["vertices"], dtype=float))


# ---------------------------------------------------------------------------
# Projections and exact volumes
# ---------------------------------------------------------------------------


def project(p: Polytope, e: Subspace) -> Polytope:
    """Orthogonal projection onto E, expressed in E-coordinates."""
    if p.ambient_dim != e.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    return Polytope(e.dim, p.vertices @ e.basis)


def hull_volume(p: Polytope) -> float:
    """Exact ambient-dimensional volume (0 for lower-dimensional bodies).

    The 0-dimensional convention vol_0(point) = 1 makes degree-0 integrals
    (Euler characteristic) come out right.
    """
    n = p.ambient_dim
    if n == 0:
        return 1.0
    if p.affine_dim < n:
        return 0.0
    if n == 1:
        return float(p.vertices.max() - p.vertices.min())
    return p.faces.volume


def _raw_hull(points: np.ndarray) -> tuple[float, float]:
    """Volume and boundary measure of the hull of a raw (m, k) point cloud,
    k >= 2: Qhull's ``volume`` and ``area`` (area and perimeter in the plane),
    whose errors propagate.  A cloud of affine rank (``_affine_rank``) below k
    has volume 0 without Qhull.  Its boundary measure is then read only in
    the plane: twice the length of a segment, whose boundary is traversed
    both ways, and 0 for a point (and for every flat cloud with k >= 3)."""
    k = points.shape[1]
    centered = points - points.mean(axis=0)
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    rank = _affine_rank(sv)
    if rank == k:
        hull = ConvexHull(points)
        return float(hull.volume), float(hull.area)
    if k == 2 and rank == 1:
        return 0.0, 2.0 * float(np.ptp(centered @ vt[0]))
    return 0.0, 0.0


def shadow_measures(p: Polytope, maps: np.ndarray, steiner: bool = False) -> np.ndarray:
    """vol_k of P's image under each map of a (c, n, k) stack, x -> x @ maps[t].

    Every Monte-Carlo shadow is measured here but Kubota's for k = n - 1,
    which calls ``cauchy_shadow_volumes`` with one unit normal a sample:

    * k = 1: the width, from one (m, c) product of P's vertices with the maps;
    * k = 2, n = 3, P full dimensional, no perimeter wanted: Cauchy's formula
      along m_1 x m_2, which is |m_1 x m_2| times the shadow along its unit
      vector (``cauchy_shadow_volumes``);
    * every other k = 2: the edge test (``_edge_shadows``), which measures
      its tied rows by Qhull per image; a flat P of affine dimension d >= 2
      is measured as ``P._flat``'s Q under the maps F M, a segment s (d = 1,
      or Q of affine dimension 1) has area 0 and perimeter 2 |s M|, and a
      point (0, 0);
    * k >= 3: Qhull per image (``_raw_hull``).

    With ``steiner`` (k <= 2) it returns, as a (c, k + 1) array, the
    coefficients of each image's planar Steiner polynomial in eps:
    (width, 2) or (area, perimeter, pi).  Each path adds its row count to
    ``trace.counters``, except the widths.
    """
    c, n, k = maps.shape
    if n != p.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    if steiner and k > 2:
        raise ScopeError("exact shadow Steiner supports k <= 2")
    if k == 1:
        supports = p.vertices @ maps[..., 0].T
        width = supports.max(axis=0) - supports.min(axis=0)
        return np.column_stack([width, np.full(c, 2.0)]) if steiner else width
    if k == 2:
        if not steiner and n == 3 and p.affine_dim == 3:
            return cauchy_shadow_volumes(p, np.cross(maps[..., 0], maps[..., 1]))
        if 2 <= p.affine_dim < n:
            p, frame = p._flat
            maps = frame @ maps
        if p.affine_dim >= 2:
            area, perimeter = _edge_shadows(p, maps, steiner)
        else:  # the step is 0 for a point
            area = np.zeros(c)
            step = p.vertices[-1] - p.vertices[0]
            perimeter = 2.0 * np.linalg.norm(step @ maps, axis=1) if steiner else None
            trace.counters["shadow_rows_edges"] += c
        return np.column_stack([area, perimeter, np.full(c, math.pi)]) if steiner else area
    vols = np.array([_raw_hull(x)[0] for x in p.vertices @ maps])
    trace.counters["shadow_rows_qhull"] += c
    return vols


def _build_edge_tables(p: Polytope) -> _EdgeTables:
    """``p._edge_tables`` from ``p.edges``; a of each edge is its endpoint of
    lower degree, which keeps the padded width small."""
    v, n = p.vertices, p.ambient_dim
    edges = p.edges.tolist()
    neighbours = [[] for _ in range(p.n_vertices)]
    for u, w in edges:
        neighbours[u].append(w)
        neighbours[w].append(u)
    ends, others = [], []
    for u, w in edges:
        a, b = (u, w) if len(neighbours[u]) <= len(neighbours[w]) else (w, u)
        ends.append((a, b))
        others.append([x for x in neighbours[a] if x != b])
    width = max(map(len, others))
    others = np.array([o + o[:1] * (width - len(o)) for o in others]).T
    a, b = np.array(ends).T
    i, j = _subsets(n, 2)

    def wedge(x, y):  # (..., E, n) pairs -> (..., C, E) Plucker vectors of x ^ y
        return np.swapaxes(x[..., i] * y[..., j] - x[..., j] * y[..., i], -1, -2)

    step = v[b] - v[a]
    side = v[others] - v[a]
    scale = np.linalg.norm(step, axis=1) * np.linalg.norm(side, axis=2)
    o = v.mean(axis=0)
    projectors = step / np.einsum("ij,ij->i", step, step)[:, None]
    tables = _EdgeTables(wedges=np.ascontiguousarray(wedge(step, side) / scale[:, None]),
                         triangles=np.ascontiguousarray(wedge(v[a] - o, v[b] - o)),
                         origins=np.ascontiguousarray(v[a].T),
                         steps=np.ascontiguousarray(step.T), projectors=projectors,
                         offsets=np.einsum("ij,ij->i", projectors, v[a])[:, None])
    for array in tables:
        array.setflags(write=False)
    return tables


def _edge_shadows(p: Polytope, maps: np.ndarray,
                  perimeter: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Area (and perimeter, if asked) of P's image under each (n, 2) map of
    a (c, n, 2) stack, for a full-dimensional P in R^n, n >= 2.

    The boundary of the image is the image of those edges (a, b) of P for
    which the linear functional x -> det[s M; (x - a) M], s = b - a, keeps
    one sign on P.  It does so when it keeps one sign on a's neighbours (the
    simplex method's optimality test), and with the Plucker vector pi of M
    its values there are pi @ wedges (``_EdgeTables``).  The area is half
    the sum of |pi @ triangles| over the boundary edges, the triangles they
    span with the image of the vertex centroid, and the perimeter the sum
    of |s M| over them.  Rows go through in blocks of about ``_EDGE_BLOCK``
    products.  An edge whose verdict rests on a value within ``_AFFINE_TOL``
    |m_1| |m_2| of 0 belongs to a 2-face seen edge-on or is seen end-on
    itself, and so does every edge of a flat image; a row with such an edge
    is measured by Qhull per image (``_raw_hull``) instead.  Both row counts
    are added to ``trace.counters``.
    """
    t = p._edge_tables
    c = maps.shape[0]
    area = np.empty(c)
    length = np.empty(c) if perimeter else None
    tied = np.empty(c, dtype=bool)
    d, _, e = t.wedges.shape
    rows = max(8, _EDGE_BLOCK // (d * e))
    for start in range(0, c, rows):
        block = slice(start, start + rows)
        m = maps[block]
        pl = _plucker(m)
        lo = pl @ t.wedges[0]
        hi = lo.copy()
        for w in t.wedges[1:]:
            value = pl @ w
            np.minimum(lo, value, out=lo)
            np.maximum(hi, value, out=hi)
        tol = _AFFINE_TOL * np.linalg.norm(m[..., 0], axis=1) * np.linalg.norm(m[..., 1], axis=1)
        tol = tol[:, None]
        tied[block] = ((lo <= tol) & (hi >= -tol) & ((lo >= -tol) | (hi <= tol))).any(axis=1)
        bound = ((lo > tol) | (hi < -tol)).astype(float)
        area[block] = 0.5 * np.einsum("re,re->r", np.abs(pl @ t.triangles), bound)
        if perimeter:
            x, y = m[..., 0] @ t.steps, m[..., 1] @ t.steps
            length[block] = np.einsum("re,re->r", np.sqrt(x * x + y * y), bound)
    ties = np.flatnonzero(tied)
    for r in ties:
        area[r], boundary = _raw_hull(p.vertices @ maps[r])
        if perimeter:
            length[r] = boundary
    trace.counters["shadow_rows_edges"] += c - ties.size
    trace.counters["shadow_rows_edge_ties"] += ties.size
    return area, length


def minkowski_segment(p: Polytope, u, lam: float) -> Polytope:
    """Minkowski sum of P with the segment [0, lam*u]."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    u = np.asarray(u, dtype=float)
    if lam == 0.0 or np.allclose(u, 0.0):
        return p
    return Polytope(p.ambient_dim, np.vstack([p.vertices, p.vertices + lam * u]))


def dist_to_polytope(x, p: Polytope) -> float:
    """Euclidean distance from a point to the polytope (min-norm-point kernel)."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    if x.shape[1] != p.ambient_dim:
        raise DimensionError("point dimension mismatch")
    return float(hull_distances(x, p.vertices)[0])


def _hull_scale(p: Polytope) -> float:
    return 1.0 + float(np.abs(p.vertices).max())


def _face_record(p: Polytope) -> FaceRecord:
    """Build ``p.faces`` from one Qhull call; see ``FaceRecord``."""
    hull = ConvexHull(p.vertices)
    n = p.ambient_dim
    eq = hull.equations
    # Each row's label is the first row within _COPLANAR_TOL of it in every
    # coordinate of [normal, offset / scale] (itself if none is earlier).
    rows = np.hstack([eq[:, :-1], eq[:, -1:] / _hull_scale(p)])
    pairs = cKDTree(rows).query_pairs(_COPLANAR_TOL, p=np.inf, output_type="ndarray")
    label = np.arange(eq.shape[0])
    np.minimum.at(label, pairs[:, 1], pairs[:, 0])
    first = label == np.arange(eq.shape[0])
    a, b = eq[first, :-1], -eq[first, -1]
    margin = _MARGIN * _hull_scale(p)
    # A simplicial facet's area is sqrt(det G) / (n-1)! for the Gram matrix G
    # of its edge vectors from its first vertex; one stack holds all of them.
    corners = p.vertices[hull.simplices]
    sides = corners[:, 1:] - corners[:, :1]
    dets = np.linalg.det(sides @ np.swapaxes(sides, 1, 2))
    return FaceRecord(
        a=a, b=b, margin=margin,
        certifies=bool((p.vertices @ a.T - b).max() <= 1e-3 * margin),
        simplices=hull.simplices, facets=np.cumsum(first)[label] - 1,
        normals=eq[:, :n], areas=np.sqrt(np.maximum(dets, 0.0)) / math.factorial(n - 1),
        volume=float(hull.volume), area=float(hull.area),
    )


def _simplex_edges(simplices: np.ndarray, facets: np.ndarray, n_vertices: int) -> np.ndarray:
    """The edges of a full-dimensional P in R^n, n >= 2, as vertex index
    pairs (u, v), u < v, in ascending order, from Qhull's simplices and the
    merged facet of each (``FaceRecord``).

    Every edge of P is a side of one of the simplices.  A side (u, v) is
    kept when the merged facets containing both u and v have no other vertex
    in common: the smallest face holding u and v is the intersection of those
    facets, and it is an edge exactly when its only vertices are u and v
    (Ziegler, Lectures on Polytopes, 2.2).  A facet's vertices are those of
    its simplices.  Pairs go through in blocks of about ``_PAIR_BLOCK``
    pair-facet entries.
    """
    on = np.zeros((n_vertices, facets.max() + 1), dtype=bool)
    on[simplices, facets[:, None]] = True
    i, j = _subsets(simplices.shape[1], 2)
    u = np.minimum(simplices[:, i], simplices[:, j]).ravel()
    v = np.maximum(simplices[:, i], simplices[:, j]).ravel()
    side = np.unique(u * n_vertices + v)
    pairs = np.column_stack([side // n_vertices, side % n_vertices])
    keep = np.empty(len(pairs), dtype=bool)
    off = (~on).T.astype(float)
    step = max(1, _PAIR_BLOCK // on.shape[1])
    for lo in range(0, len(pairs), step):
        first, second = pairs[lo:lo + step].T
        misses = (on[first] & on[second]).astype(float) @ off  # common facets each vertex is off
        keep[lo:lo + step] = np.count_nonzero(misses == 0.0, axis=1) == 2
    return pairs[keep]


def _certificate(p: Polytope) -> FaceRecord | None:
    """``p.faces`` if it certifies membership, else None, which sends every
    point of ``_within`` to Wolfe: for flat P, when Qhull fails, and when a
    vertex breaks a facet inequality by more than rounding."""
    try:
        faces = p.faces
    except QhullError:
        return None
    return faces if faces is not None and faces.certifies else None


def _within(p: Polytope, points: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """The (T, N) boolean matrix dist(points[i], P) <= thresholds[j].

    It equals ``hull_distances(points, p.vertices)[None] <= thresholds[:, None]``
    but runs Wolfe only where it must.  Given ``_certificate(p)``,
    ``_bracket`` bounds each point's distance from below and above, with
    equal bounds outside bodies in R^2 and R^3.  A point is decided when every
    threshold lies at least the margin m outside its bracket; the margin
    covers rounding in the bounds and in Wolfe's own result.  The other
    points, and every ``_AUDIT_STRIDE``-th point as a check, go to
    ``hull_distances``, whose answer is the one returned for them.  The
    totals are added to ``trace.counters``.
    """
    pts = np.asarray(points, dtype=float)
    t = np.asarray(thresholds, dtype=float)[:, None]
    count = pts.shape[0]
    out = np.zeros((t.shape[0], count), dtype=bool)
    decided = np.zeros(count, dtype=bool)
    faces = _certificate(p)
    if faces is not None:
        m = faces.margin
        lower, upper = np.empty(count), np.empty(count)
        step = max(1, _FACET_BLOCK // faces.a.shape[0])
        for lo in range(0, count, step):
            block = slice(lo, lo + step)
            lower[block], upper[block] = _bracket(p, pts[block], t.max())
        out[:] = t >= upper + m
        decided = (out | (t <= lower - m)).all(axis=0)
    audit = np.zeros(count, dtype=bool)
    audit[::_AUDIT_STRIDE] = True
    audit &= decided
    sent = np.flatnonzero(~decided | audit)
    mismatches = 0
    if sent.size:
        wolfe = hull_distances(pts[sent], p.vertices)[None] <= t
        mismatches = int(np.count_nonzero((wolfe != out[:, sent]).any(axis=0) & audit[sent]))
        out[:, sent] = wolfe
    within_all = out.all(axis=0)
    c = trace.counters
    c["certified_inside"] += int(np.count_nonzero(decided & within_all))
    c["certified_outside"] += int(np.count_nonzero(decided & ~within_all))
    c["sent_to_wolfe"] += count - int(np.count_nonzero(decided))
    c["audited"] += int(np.count_nonzero(audit))
    c["audit_mismatches"] += mismatches
    return out


def _bracket(p: Polytope, x: np.ndarray, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on dist(x, P) for each row x, from ``p.faces``.

    * lower: the largest facet violation viol_k = a_k.x - b_k, clamped at 0;
    * upper: 0 if every violation is <= -m (x lies inside P).  Otherwise
      |viol_k| if the projection y = x - viol_k a_k onto that facet's
      hyperplane satisfies every other facet (y then lies in P), else the
      distance to the nearest edge segment (``_nearest_segment_distances``),
      which is never above the distance to the nearest vertex.  The
      violations of y are viol - viol_k (A a_k), so y is never formed.
      Their test has no margin: a y that rounding moves across another
      facet lies within rounding of an edge, where the two distances agree.

    In R^2 and R^3 the nearest point of P to an outside x lies in the
    relative interior of a facet, and then y is that point, or on an edge
    (Ericson 2004, ch. 5), so the upper bound is the distance and lower is
    raised to it.  From R^4 on it may lie inside a 2-face, nearer than every
    edge, so there lower is not raised.  Points beyond every threshold by
    the lower bound alone (lower >= t_max + m) get upper = inf.  Arrays are
    laid out (facets or edges, points), so that reductions run along the
    long axis.
    """
    f = p.faces
    a, m = f.a, f.margin
    exact = p.ambient_dim <= 3
    viol = a @ x.T - f.b[:, None]
    top = viol.max(axis=0)
    lower = np.maximum(top, 0.0)
    upper = np.where(top <= -m, 0.0, np.inf)
    need = np.flatnonzero((top > -m) & (lower - m < t_max))
    if need.size:
        viol, top = np.take(viol, need, axis=1), top[need]
        k = np.argmax(viol == top, axis=0)
        moved = viol - top * (a @ np.take(a, k, axis=0).T)
        moved[k, np.arange(need.size)] = -np.inf
        bound = np.abs(top)
        off_facet = np.flatnonzero((moved > 0.0).any(axis=0))  # projection leaves P
        if off_facet.size:
            xo = np.take(x, need[off_facet], axis=0).T
            bound[off_facet] = _nearest_segment_distances(p._edge_tables, xo)
        upper[need] = bound
        if exact:
            lower[need] = np.where(top > 0.0, bound, 0.0)
    return lower, upper


def _nearest_segment_distances(t: _EdgeTables, x: np.ndarray) -> np.ndarray:
    """Distance from each column of the (n, N) array x to P's nearest edge.

    The segments are those of P's edge tables t.  The foot of x on a segment
    is origin + s step, where s = projector . x - offset, the projection of
    x - origin onto the segment, is clamped to [0, 1].  The (E, N) residuals
    are formed one coordinate at a time and updated in place, in blocks of
    about ``_SEGMENT_BLOCK`` point-edge pairs, which keeps them in cache.
    """
    out = np.empty(x.shape[1])
    width = max(1, _SEGMENT_BLOCK // t.origins.shape[1])
    for lo in range(0, x.shape[1], width):
        xb = x[:, lo:lo + width]
        s = t.projectors @ xb
        s -= t.offsets
        np.clip(s, 0.0, 1.0, out=s)
        dist2 = np.zeros_like(s)
        for xc, oc, sc in zip(xb, t.origins, t.steps):
            r = s * sc[:, None]
            r += oc[:, None]
            r -= xc
            r *= r
            dist2 += r
        out[lo:lo + width] = dist2.min(axis=0)
    return np.sqrt(out)


def _box_volumes(p: Polytope, thresholds: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 n_samples: int, s: SeededSampler, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Volumes of {x : dist(x, P) <= t} for each threshold t, and their
    binomial standard errors, from ``n_samples`` points of the box [lo, hi].

    Points are counted by ``_within``.  ``method="mc"`` draws chunk j
    uniformly from ``s.substream(j)``, so the standard errors have their
    usual meaning; ``method="qmc"`` draws every chunk from one scrambled Sobol
    engine seeded from ``s.substream(0)``, for a tighter estimate whose
    standard errors are then conservative.  A box of zero volume gives zeros.
    """
    if method not in ("mc", "qmc"):
        raise ValueError(f"unknown method {method!r}")
    if n_samples < 1:
        raise ValueError("no samples")
    widths = hi - lo
    box_vol = float(np.prod(widths))
    if box_vol == 0.0:
        return np.zeros(thresholds.size), np.zeros(thresholds.size)
    engine = None
    if method == "qmc":
        from scipy.stats import qmc

        engine = qmc.Sobol(d=p.ambient_dim, scramble=True, seed=s.substream(0).rng)
    counts = np.zeros(thresholds.size, dtype=np.int64)
    for _, c, sub in mc_chunks(n_samples, s):
        if engine is None:
            u = sub.uniform(size=(c, p.ambient_dim))
        else:
            # Chunks are powers of two except possibly the last one; the
            # slight imbalance there is irrelevant at these sample counts.
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message=".*balance properties of Sobol.*")
                u = engine.random(c)
        counts += _within(p, lo + u * widths, thresholds).sum(axis=1)
    frac = counts / n_samples
    return box_vol * frac, box_vol * np.sqrt(np.maximum(frac * (1.0 - frac), 0.0) / n_samples)


def mc_hull_volume(p: Polytope, n_samples: int, s: SeededSampler,
                   method: str = "mc") -> Estimate:
    """Rejection-sampling volume estimate (independent of Qhull volumes).

    ``_box_volumes`` counts the points of P's bounding box within
    ``_CONTAINS_TOL`` (1 + max|v|) of P, by plain uniform points
    (``method="mc"``) or a seeded scrambled Sobol net (``method="qmc"``).
    Only the facet inequalities and edges of ``p.faces`` are read, never its
    volume, so the estimate stays independent of Qhull volumes.
    """
    lo, hi = p.bounding_box()
    threshold = np.array([_CONTAINS_TOL * _hull_scale(p)])
    vols, stderrs = _box_volumes(p, threshold, lo, hi, n_samples, s, method)
    return Estimate(float(vols[0]), float(stderrs[0]))


# ---------------------------------------------------------------------------
# Exact intrinsic-volume oracles
# ---------------------------------------------------------------------------


def box_intrinsic_volumes(sides: Sequence[float]) -> IntrinsicVolumeVector:
    """V_j of an axis-aligned box: the elementary symmetric polynomials e_j."""
    sides = np.asarray(sides, dtype=float)
    if np.any(sides < 0):
        raise ValueError("sides must be nonnegative")
    # Ascending coefficients of prod_i (1 + s_i t): entry j is e_j(sides).
    coeffs = np.array([1.0])
    for si in sides:
        coeffs = np.convolve(coeffs, np.array([1.0, si]))
    return IntrinsicVolumeVector(values=coeffs)


def ball_intrinsic_volumes(n: int, r: float = 1.0) -> IntrinsicVolumeVector:
    """V_j of the n-ball of radius r: binom(n,j) kappa_n / kappa_{n-j} r^j."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    vals = np.array(
        [
            math.comb(n, j) * unit_ball_volume(n) / unit_ball_volume(n - j) * r**j
            for j in range(n + 1)
        ]
    )
    return IntrinsicVolumeVector(values=vals)


def surface_area(p: Polytope) -> float:
    """Total (n-1)-measure of the boundary of a full-dimensional polytope."""
    if p.faces is None:
        raise DimensionError("surface area needs a full-dimensional polytope in R^n, n >= 2")
    return float(p.faces.areas.sum())


def polytope_intrinsic_volumes(p: Polytope) -> IntrinsicVolumeVector:
    """Exact intrinsic volumes of a full-dimensional polytope in R^2 or R^3.

    Classical closed forms: V_{n-1} is half the surface measure, and in R^3
    the mean-width term is the edge sum V_1 = sum_e len(e) theta(e) / (2 pi)
    over ``p.edges``, with theta = atan2(|n_i x n_j|, n_i . n_j) the exterior
    (normal) angle between the unit normals of the two merged facets that
    hold the edge.
    """
    n = p.ambient_dim
    if p.affine_dim < n:
        raise DimensionError("full-dimensional polytope required")
    if n not in (2, 3):
        raise DimensionError("exact polytope intrinsic volumes implemented for n = 2, 3")
    f = p.faces
    if n == 2:
        return IntrinsicVolumeVector(values=np.array([1.0, f.area / 2.0, f.volume]))
    u, w = p.edges.T
    on = np.zeros((p.n_vertices, f.a.shape[0]), dtype=bool)
    on[f.simplices, f.facets[:, None]] = True
    common = on[u] & on[w]
    if not (np.count_nonzero(common, axis=1) == 2).all():
        raise ValueError("an R^3 edge must lie on exactly two merged facets")
    pair = np.nonzero(common)[1].reshape(-1, 2)  # the two facets of each edge
    x, y = f.a[pair[:, 0]], f.a[pair[:, 1]]
    angles = np.arctan2(np.linalg.norm(np.cross(x, y), axis=1), np.einsum("ij,ij->i", x, y))
    lengths = np.linalg.norm(p.vertices[w] - p.vertices[u], axis=1)
    v1 = float(lengths @ angles) / (2.0 * math.pi)
    return IntrinsicVolumeVector(
        values=np.array([1.0, v1, surface_area(p) / 2.0, f.volume])
    )


# ---------------------------------------------------------------------------
# Cauchy-Kubota Monte-Carlo estimator
# ---------------------------------------------------------------------------


def kubota_coefficient(n: int, k: int) -> float:
    """Normalization making the mean-projection estimator exact on the unit ball.

    The mean k-volume of projections of the unit n-ball is kappa_k, so the
    constant is V_k(ball) / kappa_k = binom(n,k) kappa_n / (kappa_{n-k} kappa_k).
    """
    if not 0 <= k <= n:
        raise DimensionError(f"need 0 <= k <= n, got k={k}, n={n}")
    return math.comb(n, k) * unit_ball_volume(n) / (
        unit_ball_volume(n - k) * unit_ball_volume(k)
    )


def cauchy_shadow_volumes(p: Polytope, dirs: np.ndarray) -> np.ndarray:
    """Cauchy's projection formula for each row of ``dirs`` at once.

    Row t is half the sum over the simplicial facets of ``p.faces`` (P full
    dimensional) of area times |<normal, dirs[t]>|: the shadow volume along
    dirs[t] for a unit row, and |dirs[t]| times it otherwise.

    Rows go through in blocks of about ``_CAUCHY_BLOCK`` direction-facet
    products (at least 64 rows), so that each block's (rows, facets)
    temporary stays in cache instead of making three passes through main
    memory.  A block is a multiple of 64 rows, so every block starts on an
    8-row boundary; blocks that do leave each row's value as it is in
    ``0.5 * (np.abs(dirs @ normals.T) @ areas)``, bit for bit under one BLAS
    thread, where blocks of 442 rows, off that grid, moved some rows by an
    ulp.  The blocks share one temporary: the cost of a fresh block-sized
    (about 1 MB) allocation depends on the allocator's history (glibc's
    dynamic mmap threshold), and one per block made the calls of hadwiger
    on large bodies up to twice as slow.  The row count is added to
    ``trace.counters``.
    """
    normals, areas = p.faces.normals, p.faces.areas
    count = dirs.shape[0]
    step = max(64, 64 * round(_CAUCHY_BLOCK / (64 * normals.shape[0])))
    out = np.empty(count)
    buffer = np.empty((min(step, count), normals.shape[0]))
    for lo in range(0, count, step):
        t = buffer[:min(step, count - lo)]
        np.matmul(dirs[lo:lo + step], normals.T, out=t)
        np.abs(t, out=t)
        np.matmul(t, areas, out=out[lo:lo + step])
    out *= 0.5
    trace.counters["shadow_rows_cauchy"] += count
    return out


def _kubota_draw_polytope(p: Polytope, k: int, count: int, s: SeededSampler) -> np.ndarray:
    """``count`` shadow volumes vol_k(P | E) on Haar k-subspaces E."""
    n = p.ambient_dim
    if k == n - 1 and k >= 2 and p.affine_dim == n:
        # one unit normal per sample is cheaper to draw than an (n-1)-frame
        return cauchy_shadow_volumes(p, haar_unit_vectors(n, count, s))
    return shadow_measures(p, _haar_maps(n, k, count, s))


def _kubota_draw_ball(b: Ball, k: int, count: int, s: SeededSampler) -> np.ndarray:
    """``count`` shadow volumes of a subspace ball on Haar k-frames, from the
    clipped singular values of each frame against L's basis (for k = 1 too:
    this draw and its rounding are not ``_haar_maps``'s or
    ``_map_ball_volume``'s, and kubota's reports read it)."""
    m = _transposed_products(haar_bases_batch(b.ambient_dim, k, count, s), b.subspace.basis)
    if k == 1:  # the one singular value of a (1, l) product is its norm
        return unit_ball_volume(k) * np.clip(np.linalg.norm(m[:, 0], axis=1), 0.0, 1.0)
    sv = np.linalg.svd(m, compute_uv=False)
    return unit_ball_volume(k) * np.prod(np.clip(sv, 0.0, 1.0), axis=1)


def _shadow_volumes(body: Polytope | Ball, maps: np.ndarray) -> np.ndarray:
    """vol_k of the body's image under each map of a (c, n, k) stack:
    ``_map_ball_volume`` for a subspace ball, ``shadow_measures`` for a
    polytope."""
    if isinstance(body, Ball):
        return _map_ball_volume(np.swapaxes(maps, 1, 2), body.subspace.basis, maps.shape[2])
    return shadow_measures(body, maps)


def kubota_estimate(body, k: int, n_samples: int, s: SeededSampler) -> Estimate:
    """Monte-Carlo intrinsic volume V_k via mean projection volumes.

    Averages vol_k of projections onto Haar-random k-subspaces and rescales
    by ``kubota_coefficient``.  Exact (zero variance) for k = 0 and k = n,
    and for a subspace ball of dimension below k.
    """
    n = body.ambient_dim
    if not 0 <= k <= n:
        raise DimensionError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return Estimate(1.0, 0.0)
    if isinstance(body, Ball) and body.dim < k:
        return Estimate(0.0, 0.0)
    if k == n:
        return Estimate(unit_ball_volume(n) if isinstance(body, Ball) else hull_volume(body), 0.0)
    draw = _kubota_draw_ball if isinstance(body, Ball) else _kubota_draw_polytope
    est = mean_and_stderr(mc_samples(n_samples, s, partial(draw, body, k)))
    c = kubota_coefficient(n, k)
    return Estimate(c * est.value, c * est.stderr)


# ---------------------------------------------------------------------------
# Steiner polynomial fit
# ---------------------------------------------------------------------------


def default_epsilon_grid(p: Polytope, count: int, span: float) -> np.ndarray:
    """``count`` Chebyshev-spaced radii on [0, span diam(P)], in ascending
    order; the spacing controls the fit's conditioning."""
    d = p.diameter()
    if d == 0.0:
        d = 1.0
    i = np.arange(count)
    return np.sort(0.5 * span * d * (1.0 - np.cos((2 * i + 1) * np.pi / (2 * count))))


def parallel_body_volumes(
    p: Polytope, eps_grid: np.ndarray, n_samples: int, s: SeededSampler
) -> tuple[np.ndarray, np.ndarray]:
    """Membership estimates of vol(P + eps D) on a grid of radii.

    One scrambled-Sobol point set of P's bounding box padded by max eps
    (``_box_volumes``, seeded through the sampler, so fully reproducible)
    serves the whole grid: the estimates are then monotone in eps, which
    stabilizes the polynomial fit.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    eps_max = float(eps_grid.max())
    lo, hi = p.bounding_box()
    return _box_volumes(p, eps_grid, lo - eps_max, hi + eps_max, n_samples, s, "qmc")


def fit_polynomial(
    x: np.ndarray, y: np.ndarray, y_stderrs: np.ndarray, degree: int
) -> tuple[np.ndarray, float, float, np.ndarray]:
    """Least-squares polynomial fit; returns (ascending coeffs, rel residual,
    cond, coeff stderrs).

    The abscissa is rescaled to [0, 1] before solving; the condition number
    refers to the rescaled design matrix.  The standard errors of ``y`` are
    propagated to the coefficients through its pseudo-inverse.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_scale = float(np.abs(x).max())
    if x_scale == 0.0:
        x_scale = 1.0
    design = np.vander(x / x_scale, degree + 1, increasing=True)
    cond = float(np.linalg.cond(design))
    if cond > 1e8:
        warnings.warn(
            f"epsilon grid gives condition number {cond:.3g}", ConditioningWarning
        )
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ sol
    denom = float(np.linalg.norm(y))
    residual = float(np.linalg.norm(y - fitted)) / (denom if denom > 0 else 1.0)
    powers = x_scale ** np.arange(degree + 1)
    coeff_stderrs = np.sqrt(np.linalg.pinv(design) ** 2 @ np.asarray(y_stderrs) ** 2) / powers
    return sol / powers, residual, cond, coeff_stderrs


def steiner_fit(
    p: Polytope, eps_grid, n_samples: int, s: SeededSampler
) -> SteinerPolynomial:
    """Fit the Steiner polynomial of P from MC estimates of vol(P + eps D)."""
    n = p.ambient_dim
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.any(eps_grid < 0):
        raise ValueError("epsilon grid must be nonnegative")
    if len(np.unique(eps_grid)) < n + 1:
        raise ValueError(f"need at least {n + 1} distinct grid points")
    vols, stderrs = parallel_body_volumes(p, eps_grid, n_samples, s)
    coeffs, residual, cond, coeff_stderrs = fit_polynomial(eps_grid, vols, stderrs, n)
    return SteinerPolynomial(
        degree=n,
        coefficients=coeffs,
        fit_residual=residual,
        condition_number=cond,
        grid=eps_grid,
        volumes=vols,
        volume_stderrs=stderrs,
        coefficient_stderrs=coeff_stderrs,
    )
