"""Correctness of the pure-NumPy min-norm-point distance kernel, and suite
reports that do not change when every membership point goes to it."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

import valgeo
from valgeo import _kernels, bodies, trace
from valgeo._kernels import BACKEND, hull_distances
from valgeo.suites import RunConfig, run_suite


def slsqp_distance(x, vertices):
    """Independent QP oracle: min |lam @ V - x| over the simplex."""
    m = vertices.shape[0]

    def objective(lam):
        r = lam @ vertices - x
        return float(r @ r)

    res = minimize(
        objective,
        np.ones(m) / m,
        bounds=[(0.0, 1.0)] * m,
        constraints=({"type": "eq", "fun": lambda lam: lam.sum() - 1.0},),
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    return math.sqrt(max(res.fun, 0.0))


def scalar_min_norm_point(w, max_iter=1000):
    """One-point Wolfe loop, the pure kernel before it was batched (reference)."""
    sq = np.einsum("ij,ij->i", w, w)
    if float(sq.max()) == 0.0:
        return np.zeros(w.shape[1])
    tol = 1e-12 * float(sq.max())
    j = int(np.argmin(sq))
    corral, lam, x = [j], np.array([1.0]), w[j].copy()
    for _ in range(max_iter):
        dots = w @ x
        jstar = int(np.argmin(dots))
        if float(x @ x) - dots[jstar] <= tol or jstar in corral:
            return x
        corral.append(jstar)
        lam = np.append(lam, 0.0)
        while True:
            alpha = _kernels._affine_minimizer(w[corral])
            if alpha.min() > 1e-12:
                lam, x = alpha, alpha @ w[corral]
                break
            neg = alpha <= 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                theta = float(np.min(lam[neg] / (lam[neg] - alpha[neg])))
            theta = min(max(theta, 0.0), 1.0)
            lam = theta * alpha + (1.0 - theta) * lam
            drop = int(np.argmin(lam))
            corral.pop(drop)
            lam = np.delete(lam, drop)
            if lam.sum() <= 0.0 or not corral:
                corral, lam, x = [jstar], np.array([1.0]), w[jstar].copy()
                break
            lam = lam / lam.sum()
    return x


CUBE = np.array(
    [[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)]
)


class TestKnownDistances:
    def test_axis_face(self):
        d = hull_distances(np.array([[1.5, 0.0, 0.0]]), CUBE)
        assert d[0] == pytest.approx(1.0, abs=1e-9)

    def test_interior_zero(self):
        d = hull_distances(np.array([[0.1, -0.2, 0.3]]), CUBE)
        assert d[0] == pytest.approx(0.0, abs=1e-9)

    def test_corner(self):
        d = hull_distances(np.array([[1.0, 1.0, 1.0]]), CUBE)
        assert d[0] == pytest.approx(math.sqrt(3) / 2, abs=1e-9)

    def test_single_vertex(self):
        d = hull_distances(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]]))
        assert d[0] == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_segment(self):
        seg = np.array([[0.0, 0.0], [1.0, 0.0]])
        d = hull_distances(np.array([[0.5, 0.7], [2.0, 0.0], [-1.0, -1.0]]), seg)
        assert np.allclose(d, [0.7, 1.0, math.sqrt(2)], atol=1e-9)


class TestBackends:
    def test_matches_slsqp_oracle(self, rng):
        for _ in range(12):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n + 1, 10))
            verts = rng.normal(size=(m, n))
            x = rng.normal(size=n) * 1.5
            oracle = slsqp_distance(x, verts)
            ours = hull_distances(x[None, :], verts)[0]
            assert ours == pytest.approx(oracle, abs=5e-6)

    def test_vertex_distance_upper_bound(self, rng):
        verts = rng.normal(size=(10, 4))
        pts = rng.normal(size=(50, 4)) * 2.0
        nearest_vertex = np.min(
            np.linalg.norm(pts[:, None, :] - verts[None, :, :], axis=-1), axis=1
        )
        d = hull_distances(pts, verts)
        assert np.all(d <= nearest_vertex + 1e-9)

    def test_collinear_vertices(self):
        verts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        d = hull_distances(np.array([[1.0, 0.0]]), verts)
        assert d[0] == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_batched_matches_scalar_loop(self, rng):
        for trial in range(60):
            n = int(rng.integers(1, 7))
            verts = rng.normal(size=(int(rng.integers(1, 20)), n))
            if trial % 3 == 0 and n > 1:
                verts[:, int(rng.integers(1, n)):] = 0.0
            if trial % 5 == 0:
                verts = np.round(verts)  # repeated and lattice vertices
            pts = rng.normal(size=(40, n)) * 1.5
            expected = [np.linalg.norm(scalar_min_norm_point(verts - p)) for p in pts]
            assert np.abs(_kernels.hull_distances(pts, verts) - expected).max() < 1e-12

    def test_blocks_are_independent(self, rng, monkeypatch):
        verts = rng.normal(size=(12, 3))
        pts = rng.normal(size=(200, 3)) * 1.5
        whole = _kernels.hull_distances(pts, verts)
        monkeypatch.setattr(_kernels, "BLOCK_FLOATS", 7 * verts.size)
        blocked = _kernels.hull_distances(pts, verts)
        single = [_kernels.hull_distances(p[None], verts)[0] for p in pts]
        assert np.abs(blocked - whole).max() < 1e-15
        assert np.abs(np.array(single) - whole).max() < 1e-15

    def test_singular_corral_takes_the_ridge(self):
        good = np.array([[1.0, 0.0], [0.0, 1.0]])
        repeated = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0]], [0, 0, 1.0])
        alpha = _kernels._affine_minimizers(np.stack([good, repeated]))
        assert np.array_equal(alpha[0], _kernels._affine_minimizer(good))
        assert np.array_equal(alpha[1], _kernels._affine_minimizer(repeated))
        assert alpha.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_ridge_retries_are_counted(self):
        # A corral with a repeated vertex makes the bordered system singular,
        # so the stacked solve fails and each row is redone alone: only the
        # two singular corrals take the ridge.
        good = np.array([[1.0, 0.0], [0.0, 1.0]])
        repeated = np.array([[1.0, 0.0], [1.0, 0.0]])
        trace.reset()
        _kernels._affine_minimizer(good)
        assert trace.counters["wolfe_ridge_retries"] == 0
        alpha = _kernels._affine_minimizers(np.stack([repeated, good, repeated]))
        assert trace.counters["wolfe_ridge_retries"] == 2
        assert alpha.sum(axis=1) == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)

    def test_rows_stopped_by_max_iter_are_counted(self, monkeypatch):
        # The point's nearest vertex is not its nearest point of the cube,
        # so one round cannot converge; the default budget does.
        point = np.array([[0.1, 0.2, 1.5]])
        trace.reset()
        assert hull_distances(point, CUBE)[0] == pytest.approx(1.0, abs=1e-9)
        assert trace.counters["wolfe_max_iter_rows"] == 0
        monkeypatch.setattr(_kernels, "MAX_ITER", 1)
        stopped = hull_distances(np.repeat(point, 3, axis=0), CUBE)
        assert trace.counters["wolfe_max_iter_rows"] == 3
        assert np.all(stopped > 1.0 + 1e-3)

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError, match="empty vertex set"):
            hull_distances(np.array([[1.0, 2.0]]), np.empty((0, 2)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different dimensions"):
            hull_distances(np.array([[3.0]]), np.eye(2))

    def test_backend_name(self):
        assert valgeo.KERNEL_BACKEND == BACKEND == "python"
        # the one kernel that the bodies module and a tracer of it both bind
        assert bodies.hull_distances is hull_distances


def suite_report(suite, samples):
    """(report, sent_to_wolfe) of ``suite`` at seed 1234 and ``samples``."""
    trace.reset()
    report = run_suite(suite, RunConfig(seed=1234, samples=samples))
    return report, trace.counters["sent_to_wolfe"]


@pytest.mark.parametrize("suite, samples", [("angles", 1024), ("hadwiger", 4096)])
def test_reports_are_identical_with_wolfe_on_every_point(monkeypatch, suite, samples):
    certified, certified_sent = suite_report(suite, samples)
    # Without facet data, _within sends every point to hull_distances.
    monkeypatch.setattr(bodies, "_certificate", lambda p: None)
    wolfe, wolfe_sent = suite_report(suite, samples)
    assert certified_sent < wolfe_sent
    assert certified.to_json() == wolfe.to_json()


def test_steiner_with_wolfe_on_every_point_agrees_to_rounding(monkeypatch):
    # steiner reads distances, which the bracket and Wolfe give alike only
    # to rounding: the coefficients agree to 1e-12 and every verdict holds.
    certified, certified_sent = suite_report("steiner", 4096)
    monkeypatch.setattr(bodies, "_certificate", lambda p: None)
    wolfe, wolfe_sent = suite_report("steiner", 4096)
    assert certified_sent == 0 and wolfe_sent == 4 * 4096
    for a, b in zip(certified.records, wolfe.records, strict=True):
        assert {**a, "observed": 0.0} == {**b, "observed": 0.0}
        assert b["observed"] == pytest.approx(a["observed"], rel=1e-12)
