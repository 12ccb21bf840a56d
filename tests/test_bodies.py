import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial import ConvexHull, QhullError

from valgeo import bodies as B, trace
from valgeo.base import mc_chunks, mean_and_stderr, unit_ball_volume
from valgeo.errors import DimensionError, ScopeError
from valgeo.grassmann import (
    SeededSampler,
    Subspace,
    _transposed_products,
    coordinate_subspace,
    haar_bases_batch,
    haar_subspace,
    haar_unit_vectors,
    orthocomplement,
    orthonormal_basis,
)


class TestConstructors:
    def test_cube(self):
        c = B.make_cube(3)
        assert c.n_vertices == 8
        assert B.hull_volume(c) == pytest.approx(1.0, rel=1e-12)

    def test_simplex_volumes(self):
        assert B.hull_volume(B.make_simplex(2)) == pytest.approx(0.5, rel=1e-12)
        assert B.hull_volume(B.make_simplex(4)) == pytest.approx(1 / 24, rel=1e-10)

    def test_crosspolytope(self):
        c = B.make_crosspolytope(3)
        assert c.n_vertices == 6
        assert B.hull_volume(c) == pytest.approx(4 / 3, rel=1e-10)

    def test_random_polytope_in_ball(self, sampler):
        p = B.make_random_polytope(3, 20, sampler)
        assert np.all(np.linalg.norm(p.vertices, axis=1) <= 1.0 + 1e-12)

    def test_redundant_points_removed(self):
        verts = np.vstack([B.make_cube(2).vertices, [[0.5, 0.5], [0.25, 0.75]]])
        p = B.Polytope(2, verts)
        assert p.n_vertices == 4

    def test_affine_dim_recorded(self):
        flat = B.Polytope(3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert flat.affine_dim == 2
        assert B.hull_volume(flat) == 0.0

    def test_json_round_trip(self):
        p = B.make_simplex(3)
        q = B.polytope_from_json(B.polytope_to_json(p))
        assert q.ambient_dim == 3
        assert np.allclose(np.sort(q.vertices, axis=0), np.sort(p.vertices, axis=0))


class TestDedupe:
    @staticmethod
    def _pairwise_loop(points):
        # The original pair-by-pair loop, kept as the reference.
        scale = 1.0 + float(np.abs(points).max(initial=0.0))
        kept = []
        for p in points:
            if all(np.linalg.norm(p - q) > B._DEDUP_TOL * scale for q in kept):
                kept.append(p)
        return np.array(kept)

    def test_equals_pairwise_loop(self, rng):
        base = rng.standard_normal((60, 3))
        tol = B._DEDUP_TOL * (1.0 + np.abs(base).max())
        near = base[:20] + rng.uniform(-0.4, 0.4, size=(20, 3)) * tol / np.sqrt(3)
        apart = base[20:30] + 3.0 * tol
        cloud = np.vstack([base, base[::3], near, apart])
        cloud = cloud[rng.permutation(len(cloud))]
        kept = B._dedupe(cloud)
        assert np.array_equal(kept, self._pairwise_loop(cloud))
        assert len(kept) == 70

    @staticmethod
    def _scan_loop(points):
        # The point-by-point scan that the k-d tree version replaced, kept as
        # the bit-for-bit reference.
        tol = B._DEDUP_TOL * (1.0 + float(np.abs(points).max(initial=0.0)))
        kept = np.empty_like(points)
        count = 0
        for p in points:
            if count == 0 or np.all(np.linalg.norm(kept[:count] - p, axis=1) > tol):
                kept[count] = p
                count += 1
        return kept[:count].copy()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_scan_loop_with_planted_near_duplicates(self, rng, n):
        base = rng.standard_normal((300, n))
        # Offsets from far inside to just outside the tolerance (about 4e-9
        # here), and chains p, p + d, p + 2d whose middle point decides
        # whether the last one survives.
        offsets = np.geomspace(1e-12, 3e-9, 40)
        dirs = rng.standard_normal((40, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        planted = base[:40] + offsets[:, None] * dirs
        chained = base[40:80] + 2.0 * offsets[:, None] * dirs
        cloud = np.vstack([base, planted, chained, base[::7], planted[::3]])
        cloud = cloud[rng.permutation(len(cloud))]
        kept = B._dedupe(cloud)
        assert np.array_equal(kept, self._scan_loop(cloud))
        assert kept.flags.c_contiguous
        assert len(set(map(tuple, cloud))) > len(kept) > len(base) - 40

    def test_no_pairs_keeps_every_point(self, rng):
        cloud = rng.standard_normal((1000, 3))
        assert np.array_equal(B._dedupe(cloud), cloud)
        assert np.array_equal(B._dedupe(cloud[:1]), cloud[:1])


def _reference_area_perimeter(cloud):
    """Qhull area and perimeter; a cloud Qhull finds flat gives (0, 2 * length)."""
    try:
        hull = ConvexHull(cloud)
        return hull.volume, hull.area
    except QhullError:
        centered = cloud - cloud.mean(axis=0)
        t = centered @ np.linalg.svd(centered)[2][0]
        return 0.0, 2.0 * float(t.max() - t.min())


class TestShadowAreaPerimeter:
    """Area and perimeter of planar shadows: ``shadow_measures(..., steiner=True)``."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        dim=st.integers(0, 5),
        m=st.integers(1, 200),
        c=st.integers(1, 12),
        kind=st.sampled_from(["gaussian", "anisotropic", "lattice", "repeated"]),
        frames=st.booleans(),
        squash=st.booleans(),
    )
    # An image about 3.7 from the origin with a span of 1e-3: Qhull of the
    # uncentred image is 2.5e-12 off the exact area on row 5.
    @example(seed=4294967295, n=5, dim=2, m=8, c=6, kind="anisotropic", frames=False,
             squash=False)
    def test_matches_qhull(self, seed, n, dim, m, c, kind, frames, squash):
        # Bodies of every affine dimension d <= n, rotated and moved in R^n:
        # points, segments, flat bodies and full-dimensional ones, under Haar
        # frames or pairs of independent Haar lines.  Lattice and repeated
        # bodies have coincident, collinear and coplanar points, so their
        # affine dimension may be below d and their facets non-simplicial.
        # Anisotropic bodies are squashed by up to 1e-4 along each axis, and
        # with ``squash`` so is the second column of each map, which makes
        # thin images also of round bodies.
        rng = np.random.default_rng(seed)
        d = min(dim, n)
        if kind == "lattice":
            raw = rng.integers(0, 4, size=(m, d)).astype(float)
        elif kind == "repeated":
            raw = rng.standard_normal((4, d))[rng.integers(0, 4, size=m)]
        else:
            raw = rng.standard_normal((m, d))
            if kind == "anisotropic":
                raw *= 10.0 ** rng.uniform(-4, 0, d)
        rotation = np.linalg.qr(rng.standard_normal((n, n)))[0]
        p = B.Polytope(n, raw @ rotation[:d] + rng.uniform(-5, 5, n))
        s = SeededSampler(seed % 1000)
        maps = (haar_bases_batch(n, 2, c, s) if frames else
                np.swapaxes(haar_unit_vectors(n, 2 * c, s).reshape(c, 2, n), 1, 2))
        if squash:
            maps[..., 1] *= 10.0 ** rng.uniform(-4, 0, (c, 1))
        trace.reset()
        got = B.shadow_measures(p, maps, steiner=True)
        assert trace.counters["shadow_rows_edges"] + trace.counters["shadow_rows_edge_ties"] == c
        # The reference takes Qhull of the image of the centred body: area
        # and perimeter do not change under translation, and Qhull's
        # rounding grows with the image's distance from the origin.
        for t, image in enumerate((p.vertices - p.vertices.mean(axis=0)) @ maps):
            ref_area, ref_perimeter = _reference_area_perimeter(image)
            # Qhull's own area of a thin triangle is off by up to ~6e-13
            # relative (against exact rational arithmetic), hence the floor.
            span = np.ptp(image, axis=0).max()
            assert got[t, 0] == pytest.approx(ref_area, rel=1e-12, abs=1e-12 * span**2)
            assert got[t, 1] == pytest.approx(ref_perimeter, rel=1e-12)

    def test_degenerate_rows(self):
        # A segment and a square with repeated and inner points, and a
        # repeated point, in R^2 under the identity.
        bodies = [B.Polytope(2, [[0, 0], [3, 4], [1.5, 2], [3, 4], [0, 0], [0.3, 0.4]]),
                  B.Polytope(2, [[2, -1]] * 6),
                  B.Polytope(2, [[0, 0], [1, 0], [0, 1], [1, 1], [0, 0], [0.5, 0.5]])]
        got = [B.shadow_measures(p, np.eye(2)[None], steiner=True)[0, :2].tolist() for p in bodies]
        assert got == [[0.0, pytest.approx(10.0, rel=1e-15)], [0.0, 0.0],
                       [pytest.approx(1.0, rel=1e-15), pytest.approx(4.0, rel=1e-15)]]

    def test_blocks_match_single_rows(self, rng):
        # 300 maps span several of the edge test's row blocks, and every 7th
        # one, with a zero column, gives a segment image, a tied row measured
        # by Qhull; rows must not interact.
        p = B.Polytope(3, rng.standard_normal((200, 3)))
        maps = haar_bases_batch(3, 2, 300, SeededSampler(19))
        maps[::7, :, 1] = 0.0
        d, _, e = p._edge_tables.wedges.shape
        assert 300 > max(8, B._EDGE_BLOCK // (d * e))
        trace.reset()
        got = B.shadow_measures(p, maps, steiner=True)
        assert trace.counters["shadow_rows_edge_ties"] == len(range(0, 300, 7))
        for t in range(0, 300, 13):
            single = B.shadow_measures(p, maps[t:t + 1], steiner=True)[0]
            np.testing.assert_allclose(got[t], single, rtol=1e-14, atol=0)

    def test_slab_flat_only_by_its_vertices(self):
        # A 2000 x 2000 x 1.6e-6 slab in R^4: 4000 points on its two faces
        # give it affine dimension 3, but its eight corners alone, 8e-10 as
        # thick as wide, have affine rank 2.  It is measured as the square
        # its corners leave in their plane, which is the square at z = 0.
        rng = np.random.default_rng(5)
        a, h = 1000.0, 0.8e-6
        corners = np.array([[x, y, z] for x in (-a, a) for y in (-a, a) for z in (-h, h)])
        faces = np.column_stack([rng.uniform(-0.9 * a, 0.9 * a, (4000, 2)),
                                 rng.choice([-h, h], 4000)])
        p = B.Polytope(4, np.pad(np.vstack([corners, faces]), ((0, 0), (0, 1))))
        centered = p.vertices - p.vertices.mean(axis=0)
        assert (p.affine_dim, p.n_vertices) == (3, 8)
        assert B._affine_rank(np.linalg.svd(centered, compute_uv=False)) == 2
        maps = haar_bases_batch(4, 2, 16, SeededSampler(3))
        trace.reset()
        got = B.shadow_measures(p, maps, steiner=True)
        assert {key: v for key, v in trace.counters.items() if v} == {"shadow_rows_edges": 16}
        square = np.pad(corners[::2, :2], ((0, 0), (0, 2)))
        expected = [[h.volume, h.area, math.pi] for h in map(ConvexHull, square @ maps)]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_one_and_two_points(self):
        # A point, two coincident points and a segment in R^2-R^4: area 0,
        # and the perimeter of the segment's image is twice its length.
        for n in (2, 3, 4):
            maps = haar_bases_batch(n, 2, 16, SeededSampler(n))
            start, end = np.arange(n, dtype=float), np.linspace(-1.0, 2.0, n)
            length = np.linalg.norm((end - start) @ maps, axis=1)
            for vertices, perimeter in [([start], 0.0), ([start, start], 0.0),
                                        ([start, end], 2.0 * length)]:
                p = B.Polytope(n, vertices)
                assert B.shadow_measures(p, maps).tolist() == [0.0] * 16
                got = B.shadow_measures(p, maps, steiner=True)
                np.testing.assert_allclose(got[:, 1], perimeter, rtol=1e-15, atol=0)


def _large_body_clouds(seed):
    """The three R^3 clouds of the benchmark's large-bodies workload."""
    rng = np.random.default_rng([seed, 7])
    gauss = rng.standard_normal((1000, 3))
    sphere = rng.standard_normal((150, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    aniso = rng.standard_normal((300, 3)) * np.array([3.0, 1.0, 0.3])
    return {"gaussian": gauss, "sphere": sphere, "anisotropic": aniso}


def _old_facet_decomposition(p):
    """The per-simplex loop that the face record's stacked areas replaced."""
    hull = ConvexHull(p.vertices, qhull_options="Qt")
    n = p.ambient_dim
    areas = np.empty(len(hull.simplices))
    for i, simplex in enumerate(hull.simplices):
        pts = p.vertices[simplex]
        edges = pts[1:] - pts[0]
        det = np.linalg.det(edges @ edges.T)
        areas[i] = math.sqrt(max(det, 0.0)) / math.factorial(n - 1)
    return hull.equations[:, :n], areas


def _cauchy_bodies():
    """Full-dimensional R^3 bodies of 4 to 296 facets."""
    clouds = _large_body_clouds(1234)
    return {"simplex3": B.make_simplex(3), "cube3": B.make_cube(3),
            **{name: B.Polytope(3, pts) for name, pts in clouds.items()}}


CAUCHY_ROWS = (1, 7, 333, 4308, 8192)


def _cauchy_mismatches():
    """The (body, rows) cases where ``cauchy_shadow_volumes`` differs from the
    one-piece expression it evaluates in row blocks."""
    out = []
    for name, p in _cauchy_bodies().items():
        normals, areas = p.faces.normals, p.faces.areas
        for rows in CAUCHY_ROWS:
            dirs = haar_unit_vectors(3, rows, SeededSampler(rows))
            if not np.array_equal(B.cauchy_shadow_volumes(p, dirs),
                                  0.5 * (np.abs(dirs @ normals.T) @ areas)):
                out.append(f"{name}/{rows}")
    return out


class TestCauchyShadows:
    @pytest.mark.parametrize("p", [
        B.make_simplex(3), B.make_cube(3), B.make_crosspolytope(3),
        B.Polytope(3, _large_body_clouds(1234)["gaussian"]),
        B.Polytope(3, _large_body_clouds(1234)["sphere"]),
        B.make_simplex(4), B.make_cube(4), B.make_crosspolytope(4),
        B.Polytope(4, np.random.default_rng(8).standard_normal((60, 4))),
    ], ids=repr)
    def test_face_record_facets_match_per_simplex_loop(self, p):
        old_normals, old_areas = _old_facet_decomposition(p)
        assert np.array_equal(p.faces.normals, old_normals)
        assert np.array_equal(p.faces.areas, old_areas)

    def test_blocks_match_one_piece_expression(self):
        # The one-piece expression is reproducible only under one BLAS
        # thread: with two, OpenBLAS splits a 4308-row product between the
        # threads off the 8-row grid and the sphere's values move by an ulp.
        # So the comparison runs in a child process with one thread.
        facets = [len(p.faces.areas) for p in _cauchy_bodies().values()]
        # From one block per chunk (4 facets) to 448-row blocks (296 facets).
        assert min(facets) == 4 and max(facets) == 296
        tests = Path(__file__).resolve().parent
        src = str(tests.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import test_bodies; print(test_bodies._cauchy_mismatches())"],
            cwd=tests, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestProjection:
    def test_full_space_identity(self, sampler):
        p = B.make_random_polytope(3, 12, sampler)
        q = B.project(p, Subspace(3, np.eye(3)))
        assert B.hull_volume(q) == pytest.approx(B.hull_volume(p), rel=1e-10)

    def test_cube_to_square(self):
        q = B.project(B.make_cube(3), coordinate_subspace(3, [0, 1]))
        assert B.hull_volume(q) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_hexagon(self):
        diag = orthonormal_basis(np.array([[1.0], [1.0], [1.0]]) / math.sqrt(3))
        q = B.project(B.make_cube(3), orthocomplement(diag))
        assert B.hull_volume(q) == pytest.approx(math.sqrt(3), rel=1e-10)


def _old_box_count(p, threshold, lo, hi, n_samples, s, engine):
    """The sampling loop that ``mc_hull_volume`` and the former parallel-body
    volumes each wrote out before ``_box_volumes``: per-chunk uniform points,
    or one Sobol engine for every chunk."""
    widths = hi - lo
    count = 0
    for _, c, sub in mc_chunks(n_samples, s):
        u = sub.uniform(size=(c, p.ambient_dim)) if engine is None else engine.random(c)
        count += int(np.count_nonzero(B._within(p, lo + u * widths, threshold)))
    frac = count / n_samples
    box_vol = float(np.prod(widths))
    return box_vol * frac, box_vol * math.sqrt(max(frac * (1.0 - frac), 0.0) / n_samples)


class TestVolumes:
    def test_mc_volume_agrees(self, sampler):
        p = B.make_random_polytope(3, 15, sampler)
        exact = B.hull_volume(p)
        est = B.mc_hull_volume(p, 100_000, sampler)
        assert abs(est.value - exact) < 3.0 * est.stderr + 1e-12

    def test_unknown_method_rejected(self, sampler):
        flat = B.Polytope(3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        for p in (B.make_cube(3), flat):
            with pytest.raises(ValueError, match="unknown method"):
                B.mc_hull_volume(p, 100, sampler, method="bogus")
        assert B.mc_hull_volume(flat, 100, sampler) == (0.0, 0.0)

    @pytest.mark.filterwarnings("ignore:.*balance properties of Sobol")
    @pytest.mark.parametrize("method", ["mc", "qmc"])
    def test_estimators_match_their_former_loops(self, method):
        # 20 000 points span three chunks, so chunk j's stream matters.
        from scipy.stats import qmc

        p = B.make_random_polytope(3, 12, SeededSampler(61))
        s = SeededSampler(62)

        def engine():
            return qmc.Sobol(d=3, scramble=True, seed=s.substream(0).rng) if method == "qmc" else None

        lo, hi = p.bounding_box()
        t = 1e-9 * B._hull_scale(p)
        old = _old_box_count(p, t, lo, hi, 20_000, s, engine())
        assert tuple(B.mc_hull_volume(p, 20_000, s, method=method)) == old
        eps = 0.5 * p.diameter()  # a padded box, as the parallel-body volumes drew
        old = _old_box_count(p, eps, lo - eps, hi + eps, 20_000, s, engine())
        assert B._box_volumes(p, eps, lo - eps, hi + eps, 20_000, s, method) == old

    def test_point_volume_convention(self):
        point = B.Polytope(0, np.zeros((1, 0)))
        assert B.hull_volume(point) == 1.0

    def test_interval(self):
        p = B.Polytope(1, [[0.0], [2.5]])
        assert B.hull_volume(p) == pytest.approx(2.5)


def _contains(p, points):
    """dist(x, P) <= 1e-9 (1 + max|v|) for each row x: the membership that
    ``mc_hull_volume`` counts."""
    return B._within(p, points, 1e-9 * B._hull_scale(p))


def _wolfe_within(p, points, threshold):
    """The membership the certificate must reproduce: Wolfe only."""
    return B.hull_distances(points, p.vertices) <= threshold


def _membership_body(rng, n, m, kind):
    """A random polytope in R^n: a rotated and shifted cube (non-simplicial
    facets), a hull of m sphere, Gaussian or anisotropic Gaussian points, or
    a flat body (m Gaussian points in a random hyperplane) or a point."""
    if kind == "cube":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return B.Polytope(n, B.make_cube(n).vertices @ q.T + rng.uniform(-3, 3, n))
    if kind == "point":
        return B.Polytope(n, rng.uniform(-3, 3, (1, n)))
    raw = rng.standard_normal((max(m, n + 1), n))
    if kind == "sphere":
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    elif kind == "anisotropic":
        raw *= 10.0 ** rng.uniform(-2, 1, n)
    elif kind == "flat":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        raw = (raw[:, :-1] @ q[:, :-1].T) + rng.uniform(-3, 3, n)
    return B.Polytope(n, raw)


def _nearest_vertex_distances(v, x):
    """min_j |x - v_j| for each column of the (n, N) array x: the upper bound
    the bracket used off the facets from R^4 on, before the edges."""
    nearest = np.argmin(np.einsum("ij,ij->i", v, v)[:, None] - 2.0 * (v @ x), axis=0)
    diff = x - np.take(v, nearest, axis=0).T
    return np.sqrt(np.einsum("ij,ij->j", diff, diff))


def _facet_points(p, rng, count):
    """Random points of P's facets, each with its facet's outward unit normal."""
    hull = ConvexHull(p.vertices)
    facets = rng.integers(0, len(hull.simplices), size=count)
    weights = rng.dirichlet(np.ones(p.ambient_dim), size=count)
    on = np.einsum("ck,ckn->cn", weights, p.vertices[hull.simplices[facets]])
    return on, hull.equations[facets, :-1]


class TestCertifiedMembership:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        m=st.integers(5, 20),
        kind=st.sampled_from(["sphere", "gaussian", "anisotropic", "cube"]),
    )
    def test_equals_wolfe(self, seed, n, m, kind):
        rng = np.random.default_rng(seed)
        p = _membership_body(rng, n, m, kind)
        assume(p.affine_dim == n)
        scale = B._hull_scale(p)
        t = np.sort(np.concatenate([[1e-9 * scale], rng.uniform(0, 0.5, 3) * p.diameter()]))
        on, normals = _facet_points(p, rng, 300)
        offsets = [
            rng.uniform(-1e-12, 1e-12, (300, 1)) * scale,     # within 1e-12 * scale of a facet
            t[rng.integers(0, t.size, (300, 1))] + rng.choice([-1e-11, 1e-11], (300, 1)),
            t[rng.integers(0, t.size, (300, 1))] * rng.uniform(0.5, 1.5, (300, 1)),
        ]
        lo, hi = p.bounding_box()
        points = np.vstack([on + d * normals for d in offsets]
                           + [p.vertices, lo - t[-1] + rng.random((500, n)) * (hi - lo + 2 * t[-1])])
        for threshold in t:
            assert np.array_equal(B._within(p, points, threshold),
                                  _wolfe_within(p, points, threshold))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        m=st.integers(5, 20),
        kind=st.sampled_from(["sphere", "gaussian", "anisotropic", "cube", "flat", "point"]),
    )
    def test_distances_equal_wolfe(self, seed, n, m, kind):
        # The bodies of test_equals_wolfe, and flat bodies and points, which
        # have no certificate and go to Wolfe whole.
        rng = np.random.default_rng(seed)
        p = _membership_body(rng, n, m, kind)
        full = p.affine_dim == n
        assume(full or kind in ("flat", "point"))
        scale = B._hull_scale(p)
        cap = rng.uniform(0.05, 1.0) * (p.diameter() or 1.0)
        lo, hi = p.bounding_box()
        points = [p.vertices, lo - cap + rng.random((500, n)) * (hi - lo + 2 * cap)]
        if full:
            on, normals = _facet_points(p, rng, 300)
            points += [on + rng.uniform(-1e-12, 1e-12, (300, 1)) * scale * normals,
                       on + cap * rng.uniform(0.5, 1.5, (300, 1)) * normals]
        points = np.vstack(points)
        trace.reset()
        got = B._distances(p, points, cap)
        wolfe = np.minimum(B.hull_distances(points, p.vertices), cap)
        if not full:
            assert np.array_equal(got, wolfe) and trace.counters["sent_to_wolfe"] == len(points)
            return
        # Wolfe stops once its duality gap is at most 1e-12 max|v - x|^2
        # (see test_bracket_is_the_distance_in_r2_r3), which the margin
        # does not cover next to P.
        slack = 2e-12 * ((p.vertices[None] - points[:, None]) ** 2).sum(axis=2).max(axis=1)
        assert (np.abs(got - wolfe) <= p.faces.margin + slack / (got + wolfe + 1e-300)).all()
        assert got.max() <= cap

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 3),
        m=st.integers(4, 30),
        kind=st.sampled_from(["sphere", "gaussian", "anisotropic", "cube"]),
    )
    def test_bracket_is_the_distance_in_r2_r3(self, seed, n, m, kind):
        # Points x = z + d u with z on P's boundary (a vertex, or a point
        # between two vertices: on an edge, inside a facet, or inside P) and
        # u a unit vector of the normal cone at z, so dist(x, P) = d exactly.
        # u = a facet normal puts x on the boundary between that facet's
        # Voronoi region and z's; other u go deep into z's region.
        rng = np.random.default_rng(seed)
        p = _membership_body(rng, n, m, kind)
        assume(p.affine_dim == n)
        a, b, scale = p.faces.a, p.faces.b, B._hull_scale(p)
        v = p.vertices
        i, j = rng.integers(0, len(v), (2, 400))
        lam = rng.choice([0.0, 0.5, 1.0, rng.random()], (400, 1))
        z = np.vstack([v, v[i] + lam * (v[j] - v[i])])
        active = np.abs(z @ a.T - b) <= 1e-12 * scale
        weights = rng.exponential(size=active.shape) * active
        weights *= rng.random(active.shape) < rng.uniform(0.2, 1.0)  # some region boundaries
        lone = weights.sum(axis=1) == 0
        weights[lone] = active[lone]
        u = weights @ a
        norm = np.linalg.norm(u, axis=1, keepdims=True)
        u = np.divide(u, norm, out=np.zeros_like(u), where=norm > 0)
        d = np.where(norm[:, 0] > 0, scale * 10.0 ** rng.uniform(-9, 0.5, len(z)), 0.0)
        x = z + d[:, None] * u
        lower, upper = B._bracket(p, x, np.inf)
        out = d > 0
        assert np.array_equal(lower[out], upper[out])
        assert np.abs(upper[out] - d[out]).max() <= 1e-12 * scale
        assert (lower[~out] == 0.0).all() and upper[~out].max(initial=0.0) <= 1e-12 * scale
        # Wolfe stops once its duality gap is at most 1e-12 max|v - x|^2,
        # which leaves wolfe^2 - dist^2 up to twice that: near P its
        # distance can be off by more than 1e-12 * scale, the bracket's not.
        wolfe = B.hull_distances(x[out], v)
        slack = 2e-12 * ((v[None] - x[out][:, None]) ** 2).sum(axis=2).max(axis=1)
        assert (np.abs(upper[out] - wolfe) <= 1e-12 * scale + slack / (upper[out] + wolfe)).all()

    def test_bracket_holds_off_edges_in_r4(self):
        # The nearest point of cube4 to these points lies inside a 2-face,
        # nearer than any edge, so the edge distance overshoots: it is an
        # upper bound only, and lower stays at the facet violation.
        p = B.make_cube(4)
        x = np.array([[0.5, 0.5, 1.5, 1.5], [0.5, 0.5, -0.5, 1.5], [0.3, 0.6, 1.2, -0.7]])
        exact = np.array([math.sqrt(0.5), math.sqrt(0.5), math.hypot(0.2, 0.7)])
        lower, upper = B._bracket(p, x, np.inf)
        wolfe = B.hull_distances(x, p.vertices)
        np.testing.assert_allclose(wolfe, exact, rtol=1e-9)
        assert (lower <= wolfe + 1e-12).all() and (wolfe <= upper + 1e-12).all()
        np.testing.assert_allclose(lower, [0.5, 0.5, 0.7], rtol=1e-12)  # facet violations
        # Random bodies in R^4 and R^5: where a point's projection onto its
        # most violated facet leaves P, the upper bound is the distance to
        # the nearest edge, which lies between Wolfe's distance and the
        # nearest vertex's, and is below the latter for most such points.
        rng = np.random.default_rng(21)
        for n, kind in itertools.product((4, 5), ("gaussian", "sphere", "lattice")):
            if kind == "lattice":
                raw = rng.integers(0, 3, size=(4 * n, n)).astype(float)
            else:
                raw = rng.standard_normal((4 * n, n))
                if kind == "sphere":
                    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            p = B.Polytope(n, raw)
            x = p.vertices.mean(axis=0) + 0.5 * np.ptp(p.vertices) * rng.standard_normal((400, n))
            lower, upper = B._bracket(p, x, np.inf)
            top = (p.faces.a @ x.T - p.faces.b[:, None]).max(axis=0)  # as _bracket has it
            off = (top > 0.0) & (upper != top)
            assert np.count_nonzero(off) >= 200
            edge = B._nearest_segment_distances(p._edge_tables, x[off].T)
            vertex = _nearest_vertex_distances(p.vertices, x[off].T)
            wolfe = B.hull_distances(x, p.vertices)
            assert np.array_equal(upper[off], edge)
            assert (edge >= wolfe[off] - 1e-12).all() and (edge <= vertex + 1e-12).all()
            assert np.count_nonzero(edge < vertex - 1e-9) > np.count_nonzero(off) // 2
            assert (lower <= wolfe + 1e-12).all() and (wolfe <= upper + 1e-12).all()

    def test_margin_sends_uncertain_points_to_wolfe(self):
        p = B.make_cube(3)
        t = np.array([1e-9 * B._hull_scale(p), 0.25])
        points = np.array([
            [0.5, 0.5, 1.0 + 1e-12],     # within the margin of the first threshold
            [1.0, 1.0, 1.0],             # at a vertex: distance 0, known exactly
            [0.5, 0.5, 1.25 - 1e-11],    # within the margin of the second threshold
            [0.5, 0.5, 0.5],             # deep inside
            [0.5, 0.5, 1.1],             # 0.1 above the top facet's interior
            [3.0, 3.0, 3.0],             # far outside
        ])
        expected = [[True, True, False, True, False, False], [True, True, True, True, True, False]]
        # One point within the margin of each threshold goes to Wolfe; the
        # first point is audited where it is decided.
        paths = [(2, 3, 1, 0), (4, 1, 1, 1)]  # inside, outside, sent, audited
        for threshold, verdicts, (inside, outside, sent, audited) in zip(t, expected, paths):
            trace.reset()
            assert B._within(p, points, threshold).tolist() == verdicts
            assert trace.counters == {**dict.fromkeys(trace.COUNTERS, 0),
                                      "certified_inside": inside, "certified_outside": outside,
                                      "sent_to_wolfe": sent, "audited": audited}
        # Distances need only agreeing bounds, which every point of cube3 has.
        trace.reset()
        got = B._distances(p, points, 0.25)
        np.testing.assert_allclose(got, [1e-12, 0.0, 0.25 - 1e-11, 0.0, 0.1, 0.25], atol=1e-15)
        assert trace.counters["sent_to_wolfe"] == 0

    def test_coplanar_facets_merged(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        for p, count in ((B.make_cube(3), 6), (B.make_cube(4), 8),
                         (B.Polytope(4, B.make_cube(4).vertices @ q.T), 8)):
            f = p.faces
            assert f.a.shape == (count, p.ambient_dim) and f.b.shape == (count,)
            # Unit normals, no two of them equal: each facet is merged once.
            gram = f.a @ f.a.T
            assert np.allclose(np.diag(gram), 1.0) and (gram - np.eye(count)).max() < 1.0 - 1e-9
            assert f.margin == 1e-9 * B._hull_scale(p) and f.certifies

    @pytest.mark.parametrize("vertices", [
        [[0.0, 0.0], [1.0, 0.7]],                                  # tilted segment in R^2
        [[0.0, 0.0, 0.0], [1.0, 0.2, 0.3], [0.1, 0.9, -0.4]],       # triangle in R^3
    ])
    def test_flat_bodies_go_to_wolfe(self, vertices):
        p = B.Polytope(len(vertices[0]), vertices)
        assert p.affine_dim < p.ambient_dim and p.faces is None
        n_samples = 3000
        trace.reset()
        est = B.mc_hull_volume(p, n_samples, SeededSampler(4))
        assert trace.counters["sent_to_wolfe"] == n_samples
        assert trace.counters["certified_inside"] + trace.counters["certified_outside"] == 0
        lo, hi = p.bounding_box()
        hits = 0
        for _, c, sub in mc_chunks(n_samples, SeededSampler(4)):
            pts = lo + sub.uniform(size=(c, p.ambient_dim)) * (hi - lo)
            hits += int(np.count_nonzero(_wolfe_within(p, pts, 1e-9 * B._hull_scale(p))))
        box_vol = float(np.prod(hi - lo))
        frac = hits / n_samples
        assert box_vol > 0.0
        assert est == (box_vol * frac, box_vol * math.sqrt(frac * (1.0 - frac) / n_samples))
        # Points on the body itself are inside, through Wolfe.
        on = np.random.default_rng(5).dirichlet(np.ones(len(vertices)), 50) @ p.vertices
        assert _contains(p, on).all()


class TestMinkowskiSegment:
    def test_zero_lambda(self):
        p = B.make_simplex(2)
        assert B.minkowski_segment(p, [1.0, 0.0], 0.0) is p

    def test_point_plus_segment(self):
        p = B.Polytope(2, [[0.0, 0.0]])
        seg = B.minkowski_segment(p, [0.0, 2.0], 1.5)
        assert seg.affine_dim == 1
        assert np.allclose(sorted(seg.vertices[:, 1]), [0.0, 3.0])

    def test_square_plus_segment_is_cube(self):
        sq = B.Polytope(3, [[x, y, 0.0] for x in (0, 1) for y in (0, 1)])
        cube = B.minkowski_segment(sq, [0.0, 0.0, 1.0], 1.0)
        assert B.hull_volume(cube) == pytest.approx(1.0, rel=1e-12)


class TestDistance:
    def test_inside_zero(self, sampler):
        p = B.make_cube(3)
        assert B.dist_to_polytope([0.5, 0.5, 0.5], p) == pytest.approx(0.0, abs=1e-10)

    def test_centered_cube_axis(self):
        p = B.make_cube(3, centered=True)
        assert B.dist_to_polytope([1.5, 0.0, 0.0], p) == pytest.approx(1.0, abs=1e-10)

    def test_vertex_bound(self, rng):
        p = B.make_random_polytope(4, 10, SeededSampler(5))
        for _ in range(20):
            x = rng.normal(size=4) * 2
            d = B.dist_to_polytope(x, p)
            assert d <= np.linalg.norm(p.vertices - x, axis=1).min() + 1e-10


def _random_body(seed, m, kind):
    """A full-dimensional R^3 polytope from m random points."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, 3))
    if kind == "sphere":
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    elif kind == "anisotropic":
        pts *= [1.0, 10.0 ** rng.uniform(-2, 0), 10.0 ** rng.uniform(-2, 0)]
    return B.Polytope(3, pts)


_BODIES = dict(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 80),
               kind=st.sampled_from(["gaussian", "anisotropic", "sphere"]))


class TestOracles:
    def test_unit_cube_intrinsic(self):
        assert np.allclose(B.box_intrinsic_volumes([1, 1, 1]).values, [1, 3, 3, 1])

    def test_disk(self):
        v = B.ball_intrinsic_volumes(2)
        assert v[1] == pytest.approx(math.pi, rel=1e-12)
        assert v[2] == pytest.approx(math.pi, rel=1e-12)

    def test_degenerate_side(self):
        # A zero side reduces to the lower-dimensional box values.
        v3 = B.box_intrinsic_volumes([0.0, 1.0, 1.0])
        v2 = B.box_intrinsic_volumes([1.0, 1.0])
        assert v3[3] == 0.0
        for j in range(3):
            assert v3[j] == pytest.approx(v2[j], rel=1e-12)

    def test_euler_characteristic(self):
        assert B.box_intrinsic_volumes([2.0, 5.0])[0] == 1.0

    def test_exact_polytope_intrinsic_volumes_match_box(self):
        box = B.Polytope(3, B.make_cube(3).vertices * [1.0, 2.0, 3.0])
        got = B.polytope_intrinsic_volumes(box).values
        assert np.allclose(got, B.box_intrinsic_volumes([1, 2, 3]).values, atol=1e-9)

    def test_exact_simplex3(self):
        got = B.polytope_intrinsic_volumes(B.make_simplex(3)).values
        v1 = (3 * math.pi / 2 + 3 * math.sqrt(2) * (math.pi - math.acos(1 / math.sqrt(3)))) / (
            2 * math.pi
        )
        assert got[1] == pytest.approx(v1, rel=1e-10)
        assert got[2] == pytest.approx((3 + math.sqrt(3)) / 4, rel=1e-10)
        assert got[3] == pytest.approx(1 / 6, rel=1e-10)

    def test_surface_area_cube(self):
        assert B.surface_area(B.make_cube(3)) == pytest.approx(6.0, rel=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_box(self, seed):
        # The triangles of one box face meet at a diagonal with exterior
        # angle 0, which V_1 leaves out; every edge angle is pi/2 to rounding.
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        p = B.Polytope(3, (B.make_cube(3).vertices * [1.0, 2.0, 3.0]) @ q.T + rng.uniform(-5, 5, 3))
        assert B.polytope_intrinsic_volumes(p).values == pytest.approx([1.0, 6.0, 11.0, 6.0],
                                                                         rel=1e-12)

    # Over 400 random bodies the largest relative change under a motion
    # (reflections included) was 6e-13.
    @settings(max_examples=40, deadline=None)
    @given(**_BODIES, motion_seed=st.integers(0, 2**32 - 1))
    def test_exact_oracles_rigid_motion_invariant(self, seed, m, kind, motion_seed):
        p = _random_body(seed, m, kind)
        assume(p.affine_dim == 3)
        rng = np.random.default_rng(motion_seed)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = B.Polytope(3, p.vertices @ (q * np.sign(np.diag(r))).T + rng.uniform(-5, 5, 3))
        assert B.polytope_intrinsic_volumes(moved).values == pytest.approx(
            B.polytope_intrinsic_volumes(p).values, rel=1e-10)
        assert B.surface_area(moved) == pytest.approx(B.surface_area(p), rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(**_BODIES, lam=st.floats(0.1, 10.0))
    def test_exact_oracles_homogeneous(self, seed, m, kind, lam):
        p = _random_body(seed, m, kind)
        assume(p.affine_dim == 3)
        scaled = B.Polytope(3, p.vertices * lam)
        assert B.polytope_intrinsic_volumes(scaled).values == pytest.approx(
            lam ** np.arange(4) * B.polytope_intrinsic_volumes(p).values, rel=1e-10)
        assert B.surface_area(scaled) == pytest.approx(lam**2 * B.surface_area(p), rel=1e-10)

    # Intrinsic volumes are valuations: a plane H through K cuts it into
    # K+ and K- with K+ u K- = K and K+ n K- = K n H.  Each piece is the hull
    # of K's vertices on its side and the points where H crosses the segments
    # between vertices on opposite sides; K n H is measured in H's coordinates.
    # Over 2500 random cuts the largest relative gap was 2e-12.
    @settings(max_examples=40, deadline=None)
    @given(**_BODIES, cut_seed=st.integers(0, 2**32 - 1), depth=st.floats(0.0, 0.9))
    def test_inclusion_exclusion_across_a_plane(self, seed, m, kind, cut_seed, depth):
        p = _random_body(seed, m, kind)
        assume(p.affine_dim == 3)
        v = p.vertices
        rng = np.random.default_rng(cut_seed)
        normal = rng.standard_normal(3)
        normal /= np.linalg.norm(normal)
        point = (1.0 - depth) * v.mean(axis=0) + depth * v[rng.integers(len(v))]
        h = (v - point) @ normal
        assume(np.abs(h).min() > 1e-6 * p.diameter())
        up, down = v[h > 0], v[h < 0]
        t = h[h > 0, None] / (h[h > 0, None] - h[None, h < 0])
        cross = (up[:, None] + t[..., None] * (down[None] - up[:, None])).reshape(-1, 3)
        plane = orthocomplement(orthonormal_basis(normal[:, None])).basis
        upper = B.Polytope(3, np.vstack([up, cross]))
        lower = B.Polytope(3, np.vstack([down, cross]))
        section = np.append(B.polytope_intrinsic_volumes(B.Polytope(2, cross @ plane)).values, 0.0)
        whole = B.polytope_intrinsic_volumes(p).values + section
        pieces = (B.polytope_intrinsic_volumes(upper).values
                  + B.polytope_intrinsic_volumes(lower).values)
        assert pieces == pytest.approx(whole, rel=1e-9)


def _counting_qhull(monkeypatch):
    """Count ``bodies.ConvexHull`` calls from here on; returns the call list."""
    calls, real = [], B.ConvexHull
    monkeypatch.setattr(B, "ConvexHull", lambda *a, **k: (calls.append(a[0].shape), real(*a, **k))[1])
    return calls


class TestFaceRecord:
    def test_one_qhull_call_per_body(self, monkeypatch):
        p = B.Polytope(3, np.random.default_rng(7).standard_normal((40, 3)))
        calls = _counting_qhull(monkeypatch)
        B.hull_volume(p)
        B.surface_area(p)
        B.polytope_intrinsic_volumes(p)
        B.cauchy_shadow_volumes(p, np.array([[0.0, 0.6, 0.8]]))
        _contains(p, np.random.default_rng(8).standard_normal((50, 3)))
        B.mc_hull_volume(p, 512, SeededSampler(9))
        assert calls == [p.vertices.shape]

    def test_record_is_read_only(self):
        # So are the edges and every edge-table array, in every dimension:
        # a write would corrupt every later shadow and distance of the body.
        for n in (2, 3, 4):
            p = B.make_cube(n)
            f = p.faces
            for array in (f.a, f.normals, f.areas, p.edges, *p._edge_tables):
                assert not array.flags.writeable
        with pytest.raises(ValueError):
            f.a[0, 0] = 2.0
        with pytest.raises(ValueError):
            p.edges[0, 0] = 1

    @pytest.mark.parametrize("p", [B.make_cube(2), B.make_simplex(2), B.make_cube(3),
                                   B.make_crosspolytope(3), B.make_cube(4)], ids=repr)
    def test_fields_agree_with_qhull(self, p):
        hull, f = ConvexHull(p.vertices), p.faces
        assert (f.volume, f.area) == (hull.volume, hull.area)
        assert f.areas.sum() == pytest.approx(hull.area, rel=1e-12)
        # Edge table column e is a segment from one end of edge e to the other.
        t, v = p._edge_tables, p.vertices
        start = np.argmin(((v[:, :, None] - t.origins) ** 2).sum(axis=1), axis=0)
        end = np.argmin(((v[:, :, None] - t.origins - t.steps) ** 2).sum(axis=1), axis=0)
        assert np.array_equal(t.origins, v[start].T)
        assert np.allclose(t.origins + t.steps, v[end].T, rtol=0, atol=1e-15)
        assert np.array_equal(np.sort(np.column_stack([start, end]), axis=1), p.edges)
        np.testing.assert_allclose(np.einsum("ei,ie->e", t.projectors, t.steps), 1.0, rtol=1e-15)
        assert np.array_equal(t.offsets[:, 0], np.einsum("ei,ie->e", t.projectors, t.origins))

    @pytest.mark.parametrize("p", [
        B.make_cube(3), B.make_cube(5), B.make_crosspolytope(4),
        B.minkowski_segment(B.make_simplex(3), [0.3, -0.2, 1.0], 1.5),
        B.Polytope(4, np.random.default_rng(11).integers(0, 3, (40, 4)).astype(float)),
        B.Polytope(3, np.random.default_rng(12).standard_normal((300, 3))),
    ], ids=repr)
    def test_merged_facets_follow_the_dense_rule(self, p):
        # Each Qhull row merges into the first row within 1e-12 of it in
        # every coordinate of [normal, offset / scale], as an (S, S) table of
        # coordinate gaps finds it; these bodies have non-simplicial facets
        # (the random cloud for contrast).
        eq = ConvexHull(p.vertices).equations
        rows = np.hstack([eq[:, :-1], eq[:, -1:] / B._hull_scale(p)])
        gap = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2)
        label = np.argmax(gap <= B._COPLANAR_TOL, axis=1)
        first = label == np.arange(len(eq))
        f = p.faces
        assert np.array_equal(f.facets, np.cumsum(first)[label] - 1)
        assert np.array_equal(f.a, eq[first, :-1]) and np.array_equal(f.b, -eq[first, -1])

    def test_flat_and_low_dimensional_bodies_have_none(self):
        assert B.Polytope(3, [[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]).faces is None
        assert B.Polytope(1, [[0.0], [2.0]]).faces is None
        with pytest.raises(DimensionError):
            B.surface_area(B.Polytope(1, [[0.0], [2.0]]))

    # V_1 is Minkowski additive and V_1 of a segment is its length.  The prism's
    # side faces are parallelograms that Qhull splits into coplanar triangles.
    @settings(max_examples=40, deadline=None)
    @given(**_BODIES, u_seed=st.integers(0, 2**32 - 1), lam=st.floats(0.01, 10.0))
    def test_v1_minkowski_segment_additive(self, seed, m, kind, u_seed, lam):
        p = _random_body(seed, m, kind)
        assume(p.affine_dim == 3)
        u = np.random.default_rng(u_seed).standard_normal(3)
        prism = B.minkowski_segment(p, u, lam)
        assert B.polytope_intrinsic_volumes(prism)[1] == pytest.approx(
            B.polytope_intrinsic_volumes(p)[1] + lam * np.linalg.norm(u), rel=1e-10)


class TestRawVolume:
    @pytest.mark.parametrize("cloud", [
        [[1.0, 2.0, 3.0]],                                                 # one point
        [[0.0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]],                    # collinear
        [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.3, 0.4, 0]],     # coplanar
        [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 1e-12]],            # coplanar to 1e-12
        [[0.0, 0], [1, 0], [2, 0]],                                        # collinear in R^2
    ])
    def test_degenerate_clouds_are_zero_without_qhull(self, monkeypatch, cloud):
        monkeypatch.setattr(B, "ConvexHull", lambda *a, **k: pytest.fail("Qhull called"))
        volume, boundary = B._raw_hull(np.asarray(cloud))
        assert volume == 0.0
        # Only a planar segment has a boundary: itself, traversed both ways.
        assert boundary == (pytest.approx(4.0, rel=1e-15) if len(cloud[0]) == 2 else 0.0)

    def test_qhull_error_on_full_rank_cloud_propagates(self, monkeypatch):
        def fail(*args, **kwargs):
            raise QhullError("QH6271 qhull precision error")

        monkeypatch.setattr(B, "ConvexHull", fail)
        with pytest.raises(QhullError):
            B._raw_hull(B.make_simplex(3).vertices)

    def test_full_rank_cloud(self):
        volume, area = B._raw_hull(B.make_simplex(3).vertices)
        assert volume == pytest.approx(1 / 6, rel=1e-12)
        assert area == pytest.approx(1.5 + math.sqrt(3) / 2, rel=1e-12)


def _shadow_case(case: str):
    """(P, a (64, n, k) stack of maps, the counter that shadow_measures adds to)."""
    s = SeededSampler(71)
    r4 = B.make_random_polytope(4, 12, SeededSampler(70))
    r3 = B.make_random_polytope(3, 14, SeededSampler(72))
    quad = [[0, 0, 0], [2, 0, 0], [0, 1, 0], [1.5, 1.5, 0]]
    # v1_power's maps: two independent unit lines, not an orthonormal frame.
    line_pairs = np.swapaxes(haar_unit_vectors(3, 128, s).reshape(64, 2, 3), 1, 2)
    return {
        "width": (r4, haar_bases_batch(4, 1, 64, s), None),
        "planes-r4": (r4, haar_bases_batch(4, 2, 64, s), "shadow_rows_edges"),
        "solids-r4": (r4, haar_bases_batch(4, 3, 64, s), "shadow_rows_qhull"),
        "planes-r3": (r3, haar_bases_batch(3, 2, 64, s), "shadow_rows_cauchy"),
        "line-pairs": (r3, line_pairs, "shadow_rows_cauchy"),
        "flat-line-pairs": (B.Polytope(3, quad), line_pairs, "shadow_rows_edges"),
        "flat-solids": (B.Polytope(4, np.pad(quad, ((0, 0), (0, 1)))),
                        haar_bases_batch(4, 3, 64, s), "shadow_rows_qhull"),
    }[case]


class TestShadowMeasures:
    @pytest.mark.parametrize("case", ["width", "planes-r4", "solids-r4", "planes-r3",
                                      "line-pairs", "flat-line-pairs", "flat-solids"])
    def test_match_per_image_hull_volumes(self, case):
        p, maps, counter = _shadow_case(case)
        trace.reset()
        got = B.shadow_measures(p, maps)
        loop = np.array([np.ptp(x) if x.shape[1] == 1 else B._raw_hull(x)[0]
                         for x in p.vertices @ maps])
        np.testing.assert_allclose(got, loop, rtol=1e-12, atol=1e-15)
        # One path per call, and every row counted on it (widths are not counted).
        assert {key: v for key, v in trace.counters.items() if v} == (
            {counter: len(maps)} if counter else {})

    @pytest.mark.parametrize("case", ["width", "planes-r4", "planes-r3", "line-pairs",
                                      "flat-line-pairs"])
    def test_steiner_coefficients_match_per_image_hulls(self, case):
        p, maps, _ = _shadow_case(case)
        trace.reset()
        got = B.shadow_measures(p, maps, steiner=True)
        images = [p.vertices @ m for m in maps]
        if maps.shape[2] == 1:
            expected = [[np.ptp(x), 2.0] for x in images]
        else:  # a planar hull's "area" is its perimeter
            expected = [[h.volume, h.area, math.pi] for h in map(ConvexHull, images)]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
        # Perimeters need the polygon itself, so no row takes Cauchy's formula.
        assert trace.counters["shadow_rows_cauchy"] == 0

    def test_steiner_needs_k_at_most_two(self):
        p, maps, _ = _shadow_case("solids-r4")
        with pytest.raises(ScopeError):
            B.shadow_measures(p, maps, steiner=True)


def _lattice_edges(p):
    """Reference edges of a full-dimensional P, ascending: every vertex pair
    whose merged facets in common (as Python sets) share no third vertex,
    tried over all pairs rather than the sides of Qhull's simplices."""
    f = p.faces
    held = [set() for _ in range(p.n_vertices)]  # merged facets on each vertex
    for simplex, facet in zip(f.simplices.tolist(), f.facets.tolist()):
        for vertex in simplex:
            held[vertex].add(facet)
    edges = []
    for u, v in itertools.combinations(range(p.n_vertices), 2):
        common = held[u] & held[v]
        if common and sum(common <= held[w] for w in range(p.n_vertices)) == 2:
            edges.append((u, v))
    return np.array(edges, dtype=np.intp).reshape(-1, 2)


def _walked_edges(p):
    """Reference edges of a full-dimensional P in R^2 or R^3, with the
    exterior angle at each R^3 edge: Qhull's facets in R^2; in R^3 the
    sides between neighbouring triangles of different merged facets, each
    seen once from its lower-numbered triangle, with the angle between
    those triangles' normals."""
    hull, f = ConvexHull(p.vertices), p.faces
    if p.ambient_dim == 2:
        return hull.simplices, None
    nbr, eq = hull.neighbors, hull.equations
    across = (np.arange(len(nbr))[:, None] < nbr) & (f.facets[:, None] != f.facets[nbr])
    tri, slot = np.nonzero(across)
    edges = hull.simplices[tri[:, None], (slot[:, None] + [1, 2]) % 3]
    u, w = eq[tri, :3], eq[nbr[tri, slot], :3]
    return edges, np.arctan2(np.linalg.norm(np.cross(u, w), axis=1), np.einsum("ij,ij->i", u, w))


class TestEdgeShadows:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        m=st.integers(4, 30),
        kind=st.sampled_from(["sphere", "gaussian", "lattice", "cube", "cross"]),
    )
    def test_edges_match_the_references(self, seed, n, m, kind):
        # p.edges is the face lattice's list, in order; in R^2 and R^3 it is
        # also the neighbour walk's set, and V_1 from its exterior angles is
        # the walk's.  Lattice clouds have merged facets.
        rng = np.random.default_rng(seed)
        if kind in ("cube", "cross"):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            body = B.make_cube(n) if kind == "cube" else B.make_crosspolytope(n)
            raw = body.vertices @ q.T
        elif kind == "lattice":
            raw = rng.integers(0, 3, size=(m + n, n)).astype(float)
        else:
            raw = rng.standard_normal((m + n, n))
            if kind == "sphere":
                raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        p = B.Polytope(n, raw)
        assume(p.affine_dim == n)
        assert np.array_equal(p.edges, _lattice_edges(p))
        if n <= 3:
            edges, angles = _walked_edges(p)
            assert {tuple(sorted(e)) for e in edges.tolist()} == set(map(tuple, p.edges.tolist()))
            assert len(edges) == len(p.edges)
        if n == 3:
            lengths = np.linalg.norm(p.vertices[edges[:, 1]] - p.vertices[edges[:, 0]], axis=1)
            v1 = float(lengths @ angles) / (2.0 * math.pi)
            assert B.polytope_intrinsic_volumes(p)[1] == pytest.approx(v1, rel=1e-12, abs=0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 5),
        m=st.integers(6, 40),
        c=st.integers(1, 12),
        kind=st.sampled_from(["gaussian", "sphere", "anisotropic", "lattice"]),
        frames=st.booleans(),
    )
    def test_matches_per_image_qhull(self, seed, n, m, c, kind, frames):
        # Planar shadows of full-dimensional bodies in R^3-R^5 under Haar
        # frames or pairs of independent Haar lines; lattice bodies have
        # non-simplicial facets, which Qhull splits into coplanar pieces.
        rng = np.random.default_rng(seed)
        if kind == "lattice":
            raw = rng.integers(0, 3, size=(m, n)).astype(float)
        else:
            raw = rng.standard_normal((m, n))
            if kind == "sphere":
                raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            elif kind == "anisotropic":
                raw *= 10.0 ** rng.uniform(-2, 0, n)
        p = B.Polytope(n, raw)
        assume(p.affine_dim == n)
        s = SeededSampler(seed % 1000)
        maps = (haar_bases_batch(n, 2, c, s) if frames else
                np.swapaxes(haar_unit_vectors(n, 2 * c, s).reshape(c, 2, n), 1, 2))
        trace.reset()
        got = B.shadow_measures(p, maps, steiner=True)
        assert trace.counters["shadow_rows_edges"] + trace.counters["shadow_rows_edge_ties"] == c
        for t, image in enumerate(p.vertices @ maps):
            hull = ConvexHull(image)
            # Qhull's own area of a thin triangle is off by up to ~6e-13
            # relative, hence the floor (see TestShadowAreaPerimeter).
            span = np.ptp(image, axis=0).max()
            assert got[t, 0] == pytest.approx(hull.volume, rel=1e-12, abs=1e-12 * span**2)
            assert got[t, 1] == pytest.approx(hull.area, rel=1e-12)

    @pytest.mark.parametrize("p, count", [(B.make_cube(3), 12), (B.make_cube(4), 32),
                                          (B.make_crosspolytope(4), 24), (B.make_simplex(5), 15),
                                          (B.make_cube(5), 80)], ids=repr)
    def test_edge_counts(self, p, count):
        edges = p.edges
        assert edges.shape == (count, 2)
        assert len({tuple(sorted(e)) for e in edges.tolist()}) == count
        # Every edge of a cube joins two vertices one unit apart.
        if p.n_vertices == 2 ** p.ambient_dim:
            steps = p.vertices[edges[:, 1]] - p.vertices[edges[:, 0]]
            assert np.array_equal(np.abs(steps).sum(axis=1), np.ones(count))

    def test_edge_seen_end_on_falls_back(self, monkeypatch):
        # Zeroing the first row of a frame sends cube4's edges along e_1 to
        # points: every value of those edges is 0, so the row is tied and
        # measured by Qhull, one call per tied image.
        p = B.make_cube(4)
        maps = haar_bases_batch(4, 2, 8, SeededSampler(17))
        maps[4:] = np.pad(haar_bases_batch(3, 2, 4, SeededSampler(18)), ((0, 0), (1, 0), (0, 0)))
        p._edge_tables  # builds the face record before Qhull calls are counted
        calls = _counting_qhull(monkeypatch)
        trace.reset()
        got = B.shadow_measures(p, maps, steiner=True)
        assert {key: v for key, v in trace.counters.items() if v} == {
            "shadow_rows_edges": 4, "shadow_rows_edge_ties": 4}
        assert calls == [(16, 2)] * 4
        expected = [[h.volume, h.area, math.pi] for h in map(ConvexHull, p.vertices @ maps)]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestKubota:
    def test_top_degree_exact(self, sampler):
        p = B.make_simplex(3)
        est = B.kubota_estimate(p, 3, 10, sampler)
        assert est.value == pytest.approx(1 / 6, rel=1e-10)
        assert est.stderr == 0.0

    def test_degree_zero(self, sampler):
        assert B.kubota_estimate(B.make_cube(3), 0, 10, sampler).value == 1.0

    def test_cube_v1(self):
        est = B.kubota_estimate(B.make_cube(3), 1, 50_000, SeededSampler(12))
        assert est.value == pytest.approx(3.0, rel=0.02)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("body", ["cube3", "random"])
    def test_within_four_stderr_of_exact(self, body, k):
        p = B.make_cube(3) if body == "cube3" else B.make_random_polytope(3, 30, SeededSampler(60))
        n_samples = 20_000
        trace.reset()
        est = B.kubota_estimate(p, k, n_samples, SeededSampler(61 + k))
        assert 0.0 < est.stderr < 0.01 * est.value
        assert abs(est.value - B.polytope_intrinsic_volumes(p)[k]) <= 4.0 * est.stderr
        # k = n - 1 = 2 goes through Cauchy's formula, one row per sample.
        assert trace.counters["shadow_rows_cauchy"] == (n_samples if k == 2 else 0)

    def test_ball_all_degrees(self):
        oracle = B.ball_intrinsic_volumes(4)
        full = B.Ball(Subspace(4, np.eye(4)))
        for k in range(5):
            est = B.kubota_estimate(full, k, 256, SeededSampler(13))
            assert est.value == pytest.approx(oracle[k], rel=1e-9)

    def test_flat_ball_intrinsic(self):
        l = haar_subspace(4, 2, SeededSampler(14))
        est = B.kubota_estimate(B.Ball(l), 1, 60_000, SeededSampler(15))
        assert est.value == pytest.approx(math.pi, rel=0.02)

    def test_out_of_range(self, sampler):
        with pytest.raises(DimensionError):
            B.kubota_estimate(B.make_cube(3), 4, 10, sampler)

    def test_ball_lines_take_the_norm(self, monkeypatch):
        # For k = 1 the one singular value of the (1, l) product is its norm.
        ball = B.Ball(haar_subspace(4, 2, SeededSampler(14)))
        seen = []
        monkeypatch.setattr(B, "mean_and_stderr",
                            lambda vals: (seen.append(vals.copy()), mean_and_stderr(vals))[1])
        B.kubota_estimate(ball, 1, 4096, SeededSampler(15))
        (got,) = seen
        m = _transposed_products(haar_bases_batch(4, 1, 4096, SeededSampler(15).substream(0)),
                                 ball.subspace.basis)
        svd = 2.0 * np.clip(np.linalg.svd(m, compute_uv=False)[:, 0], 0.0, 1.0)
        np.testing.assert_allclose(got, svd, rtol=1e-15, atol=0)

    def test_shadow_volume_matches_projection(self, sampler):
        p = B.make_random_polytope(3, 14, sampler)
        u = haar_unit_vectors(3, 1, sampler)[0]
        h = orthocomplement(orthonormal_basis(u.reshape(3, 1)))
        direct = B.hull_volume(B.project(p, h))
        assert B.cauchy_shadow_volumes(p, u[None])[0] == pytest.approx(direct, rel=1e-10)

    def test_valuation_additivity(self):
        # Split the cube by a hyperplane; intersection is a flat box.
        left = B.Polytope(3, B.make_cube(3).vertices * [0.5, 1.0, 1.0])
        right = B.Polytope(3, left.vertices + np.array([0.5, 0.0, 0.0]))
        union = B.box_intrinsic_volumes([1.0, 1.0, 1.0])
        inter = B.box_intrinsic_volumes([0.0, 1.0, 1.0])
        halves = B.box_intrinsic_volumes([0.5, 1.0, 1.0])
        for k in range(4):
            assert union[k] + inter[k] == pytest.approx(2 * halves[k], rel=1e-12)
        # Monte-Carlo side of the same identity for k = 1.
        est_l = B.kubota_estimate(left, 1, 40_000, SeededSampler(31))
        est_r = B.kubota_estimate(right, 1, 40_000, SeededSampler(32))
        plate = B.Polytope(3, [[0.5, y, z] for y in (0, 1) for z in (0, 1)])
        est_p = B.kubota_estimate(plate, 1, 40_000, SeededSampler(33))
        lhs = union[1] + est_p.value
        rhs = est_l.value + est_r.value
        sigma = math.hypot(est_p.stderr, math.hypot(est_l.stderr, est_r.stderr))
        assert abs(lhs - rhs) < 4 * sigma + 1e-9

    def test_homogeneity(self):
        p = B.make_simplex(3)
        q = B.Polytope(3, 2.0 * p.vertices)
        est1 = B.kubota_estimate(p, 2, 30_000, SeededSampler(41))
        est2 = B.kubota_estimate(q, 2, 30_000, SeededSampler(41))
        assert est2.value == pytest.approx(4.0 * est1.value, rel=1e-9)

    def test_determinism(self):
        a = B.kubota_estimate(B.make_cube(3), 2, 5000, SeededSampler(77))
        b = B.kubota_estimate(B.make_cube(3), 2, 5000, SeededSampler(77))
        assert a == b


def _steiner_intrinsic_volumes(sp):
    """V_0 .. V_n read off a Steiner fit: the eps^m coefficient is kappa_m V_{n-m}."""
    n = sp.degree
    return np.array([sp.coefficients[n - j] / unit_ball_volume(n - j) for j in range(n + 1)])


class TestSteinerFit:
    def test_point_gives_ball_volume(self):
        p = B.Polytope(3, [[0.0, 0.0, 0.0]])
        sp = B.steiner_fit(p, 120_000, SeededSampler(51))
        assert sp.coefficients[3] == pytest.approx(unit_ball_volume(3), rel=0.02)
        assert abs(sp.coefficients[0]) < 0.02

    def test_square_closed_form(self):
        sq = B.make_cube(2)
        sp = B.steiner_fit(sq, 1 << 17, SeededSampler(52))
        assert sp.coefficients[0] == pytest.approx(1.0, rel=0.02)
        assert sp.coefficients[1] == pytest.approx(4.0, rel=0.02)
        assert sp.coefficients[2] == pytest.approx(math.pi, rel=0.02)
        iv = _steiner_intrinsic_volumes(sp)
        assert iv[1] == pytest.approx(2.0, rel=0.02)  # half-perimeter convention

    def test_constant_term_is_volume(self, sampler):
        p = B.make_random_polytope(2, 10, sampler)
        sp = B.steiner_fit(p, 1 << 16, SeededSampler(53))
        assert sp.coefficients[0] == pytest.approx(B.hull_volume(p), rel=0.05)

    def test_sample_validation(self, sampler):
        with pytest.raises(ValueError, match="no samples"):
            B.steiner_fit(B.make_cube(2), 0, sampler)

    def test_design_integrates_the_test_functions(self):
        # W E[g_m(D)] = sum_i c_i int_0^eps g_m(r) i r^(i-1) dr (c_0 at r = 0):
        # the integral, by a fine midpoint rule, is the design entry
        # eps^i i! (m+1)! / (i+m+1)! that steiner_fit solves with.
        eps, f = 0.7, math.factorial
        r = (np.arange(200_000) + 0.5) * eps / 200_000
        for m, i in itertools.product(range(B._TEST_FUNCTIONS), range(1, 5)):
            integral = np.sum((1.0 - r / eps) ** (m + 1) * i * r ** (i - 1)) * eps / 200_000
            assert integral == pytest.approx(eps**i * f(i) * f(m + 1) / f(i + m + 1), rel=1e-8)

    def test_stderrs_are_conservative(self):
        # The iid standard errors of one scrambled Sobol net are no smaller
        # than the spread of the coefficients over seeds.
        p = B.make_simplex(3)
        fits = [B.steiner_fit(p, 1 << 13, SeededSampler(800 + j)) for j in range(12)]
        spread = np.std([sp.coefficients for sp in fits], axis=0, ddof=1)
        assert (np.median([sp.coefficient_stderrs for sp in fits], axis=0) >= spread).all()

    def test_determinism(self):
        p = B.make_cube(2)
        a = B.steiner_fit(p, 8192, SeededSampler(55)).coefficients
        b = B.steiner_fit(p, 8192, SeededSampler(55)).coefficients
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("body", ["cube3", "random"])
    def test_volumes_within_four_stderr_of_steiner_polynomial(self, body):
        # The parallel volumes of the estimate, on radii up to its eps, and
        # its coefficients; sum_m stderr_m eps^m bounds a volume's stderr.
        p = B.make_cube(3) if body == "cube3" else B.make_random_polytope(3, 30, SeededSampler(60))
        iv = B.polytope_intrinsic_volumes(p).values
        sp = B.steiner_fit(p, 1 << 14, SeededSampler(59))
        exact = np.array([unit_ball_volume(m) * iv[3 - m] for m in range(4)])
        powers = np.linspace(0.0, 0.6 * p.diameter(), 7)[:, None] ** np.arange(4)
        assert np.all(sp.coefficient_stderrs > 0)
        assert np.all(np.abs(powers @ (sp.coefficients - exact))
                      <= 4.0 * powers @ sp.coefficient_stderrs)
        assert np.all(np.abs(sp.coefficients - exact) <= 4.0 * sp.coefficient_stderrs)
        assert 0.0 < sp.fit_residual < 0.02

    def test_agrees_with_kubota(self):
        # The two independent intrinsic-volume routes agree on a test body.
        p = B.make_crosspolytope(3)
        iv = _steiner_intrinsic_volumes(B.steiner_fit(p, 1 << 17, SeededSampler(56)))
        for k in (1, 2):
            kub = B.kubota_estimate(p, k, 60_000, SeededSampler(57 + k))
            assert kub.value == pytest.approx(iv[k], rel=0.02)
