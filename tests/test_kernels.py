"""Backend parity and correctness of the min-norm-point distance kernel.

The tests run on the pure-NumPy kernel and on the C kernel, which a session
fixture builds into a temporary directory when a C compiler is on PATH.
Nothing is written under ``src/``: a library there would change the backend
that every later ``import valgeo`` picks.
"""

import math
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from valgeo._kernels import BACKEND, BUILD_COMMAND, load_compiled, pywolfe

ROOT = Path(__file__).resolve().parents[1]
LIB_NAME = "_mnp" + sysconfig.get_config_var("EXT_SUFFIX")


def c_compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(cc.split()[0])


@pytest.fixture(scope="session")
def built_kernel_dir(tmp_path_factory):
    """Directory holding the C kernel built by ``setup.py``, or None without a compiler."""
    if c_compiler() is None:
        return None
    tmp = tmp_path_factory.mktemp("kernel-build")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    lib_dir = tmp / "lib" / "valgeo" / "_kernels"
    assert (lib_dir / LIB_NAME).exists(), proc.stdout + proc.stderr
    return lib_dir


@pytest.fixture(scope="session")
def compiled_kernel(built_kernel_dir):
    if built_kernel_dir is None:
        pytest.skip("no C compiler on PATH")
    return load_compiled(str(built_kernel_dir))


@pytest.fixture(scope="session")
def backends(built_kernel_dir):
    """name -> hull_distances for the pure kernel and, if built, the C kernel."""
    out = {"python": pywolfe.hull_distances}
    if built_kernel_dir is not None:
        out["c"] = load_compiled(str(built_kernel_dir))
    return out


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
            alpha = pywolfe._affine_minimizer(w[corral])
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


def package_copy(tmp_path, library=None):
    """Copy of ``src/valgeo`` (no built kernel) with ``library`` as its kernel."""
    dest = tmp_path / "valgeo"
    shutil.copytree(ROOT / "src" / "valgeo", dest,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
    if library is not None:
        (dest / "_kernels" / LIB_NAME).write_bytes(library)
    return tmp_path


IMPORT_SNIPPET = (
    "import warnings\n"
    "with warnings.catch_warnings(record=True) as caught:\n"
    "    warnings.simplefilter('always')\n"
    "    import valgeo\n"
    "print(valgeo.KERNEL_BACKEND)\n"
    "for w in caught:\n"
    "    if issubclass(w.category, RuntimeWarning):\n"
    "        print(str(w.message).replace('\\n', ' '))\n"
)


def import_valgeo(path, **env):
    """Import valgeo from ``path`` in a fresh interpreter: (backend, RuntimeWarnings)."""
    base = {k: v for k, v in os.environ.items() if k != "VALGEO_PURE_PYTHON"}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET], capture_output=True, text=True,
        env=dict(base, PYTHONPATH=str(path), **env),
    )
    assert proc.returncode == 0, proc.stderr
    backend, *warned = proc.stdout.strip().splitlines()
    return backend, warned


class TestKnownDistances:
    def test_axis_face(self, backends):
        for name, hull_distances in backends.items():
            d = hull_distances(np.array([[1.5, 0.0, 0.0]]), CUBE)
            assert d[0] == pytest.approx(1.0, abs=1e-9), name

    def test_interior_zero(self, backends):
        for name, hull_distances in backends.items():
            d = hull_distances(np.array([[0.1, -0.2, 0.3]]), CUBE)
            assert d[0] == pytest.approx(0.0, abs=1e-9), name

    def test_corner(self, backends):
        for name, hull_distances in backends.items():
            d = hull_distances(np.array([[1.0, 1.0, 1.0]]), CUBE)
            assert d[0] == pytest.approx(math.sqrt(3) / 2, abs=1e-9), name

    def test_single_vertex(self, backends):
        for name, hull_distances in backends.items():
            d = hull_distances(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]]))
            assert d[0] == pytest.approx(math.sqrt(2), rel=1e-12), name

    def test_segment(self, backends):
        for name, hull_distances in backends.items():
            seg = np.array([[0.0, 0.0], [1.0, 0.0]])
            d = hull_distances(np.array([[0.5, 0.7], [2.0, 0.0], [-1.0, -1.0]]), seg)
            assert np.allclose(d, [0.7, 1.0, math.sqrt(2)], atol=1e-9), name


class TestBackends:
    def test_backends_agree(self, rng, compiled_kernel):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(n + 1, 16))
            verts = rng.normal(size=(m, n))
            pts = rng.normal(size=(6, n)) * 1.5
            fast = compiled_kernel(pts, verts)
            slow = pywolfe.hull_distances(pts, verts)
            assert np.abs(fast - slow).max() < 1e-9
        # Vertex sets of lower dimension than the points, and no points.
        for _ in range(20):
            n = int(rng.integers(2, 6))
            verts = rng.normal(size=(int(rng.integers(2, 12)), n))
            verts[:, int(rng.integers(n)):] = 0.0
            pts = rng.normal(size=(30, n))
            gap = np.abs(compiled_kernel(pts, verts) - pywolfe.hull_distances(pts, verts))
            assert gap.max() < 1e-9
        assert compiled_kernel(np.empty((0, 3)), CUBE).shape == (0,)

    def test_matches_slsqp_oracle(self, rng, backends):
        for _ in range(12):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n + 1, 10))
            verts = rng.normal(size=(m, n))
            x = rng.normal(size=n) * 1.5
            oracle = slsqp_distance(x, verts)
            for name, hull_distances in backends.items():
                ours = hull_distances(x[None, :], verts)[0]
                assert ours == pytest.approx(oracle, abs=5e-6), name

    def test_vertex_distance_upper_bound(self, rng, backends):
        verts = rng.normal(size=(10, 4))
        pts = rng.normal(size=(50, 4)) * 2.0
        nearest_vertex = np.min(
            np.linalg.norm(pts[:, None, :] - verts[None, :, :], axis=-1), axis=1
        )
        for name, hull_distances in backends.items():
            d = hull_distances(pts, verts)
            assert np.all(d <= nearest_vertex + 1e-9), name

    def test_collinear_vertices(self, backends):
        verts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        for name, hull_distances in backends.items():
            d = hull_distances(np.array([[1.0, 0.0]]), verts)
            assert d[0] == pytest.approx(math.sqrt(0.5), abs=1e-9), name

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
            assert np.abs(pywolfe.hull_distances(pts, verts) - expected).max() < 1e-12

    def test_blocks_are_independent(self, rng, monkeypatch):
        verts = rng.normal(size=(12, 3))
        pts = rng.normal(size=(200, 3)) * 1.5
        whole = pywolfe.hull_distances(pts, verts)
        monkeypatch.setattr(pywolfe, "BLOCK_FLOATS", 7 * verts.size)
        blocked = pywolfe.hull_distances(pts, verts)
        single = [pywolfe.hull_distances(p[None], verts)[0] for p in pts]
        assert np.abs(blocked - whole).max() < 1e-15
        assert np.abs(np.array(single) - whole).max() < 1e-15

    def test_singular_corral_takes_the_ridge(self):
        good = np.array([[1.0, 0.0], [0.0, 1.0]])
        repeated = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0]], [0, 0, 1.0])
        alpha = pywolfe._affine_minimizers(np.stack([good, repeated]))
        assert np.array_equal(alpha[0], pywolfe._affine_minimizer(good))
        assert np.array_equal(alpha[1], pywolfe._affine_minimizer(repeated))
        assert alpha.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_rejects_empty_vertex_set(self, backends):
        for hull_distances in backends.values():
            with pytest.raises(ValueError, match="empty vertex set"):
                hull_distances(np.array([[1.0, 2.0]]), np.empty((0, 2)))

    def test_rejects_dimension_mismatch(self, backends):
        for hull_distances in backends.values():
            with pytest.raises(ValueError, match="different dimensions"):
                hull_distances(np.array([[3.0]]), np.eye(2))

    def test_backend_name(self):
        assert BACKEND in ("c", "python")


    def test_pure_python_env_override(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), VALGEO_PURE_PYTHON="1")
        snippet = (
            "import numpy as np\n"
            "from valgeo._kernels import BACKEND, hull_distances\n"
            "assert BACKEND == 'python', BACKEND\n"
            "d = hull_distances(np.array([[2.0, 0.0]]), np.eye(2))\n"
            "assert abs(d[0] - 1.0) < 1e-9, d\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", snippet], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_no_warning_when_pure_python_forced(self, tmp_path):
        backend, warned = import_valgeo(package_copy(tmp_path), VALGEO_PURE_PYTHON="1")
        assert backend == "python"
        assert warned == []

    def test_warns_once_when_kernel_not_built(self, tmp_path):
        backend, warned = import_valgeo(package_copy(tmp_path))
        assert backend == "python"
        assert len(warned) == 1
        assert "is not built" in warned[0]
        assert BUILD_COMMAND in warned[0]

    def test_warns_once_when_kernel_fails_to_load(self, tmp_path):
        backend, warned = import_valgeo(package_copy(tmp_path, library=b"not a library"))
        assert backend == "python"
        assert len(warned) == 1
        assert "failed to load" in warned[0]
        assert BUILD_COMMAND in warned[0]

    def test_built_kernel_is_default(self, tmp_path, built_kernel_dir):
        if built_kernel_dir is None:
            pytest.skip("no C compiler on PATH")
        library = (built_kernel_dir / LIB_NAME).read_bytes()
        backend, warned = import_valgeo(package_copy(tmp_path, library=library))
        assert backend == "c"
        assert warned == []


def run_suite_files(path, suite, samples, out, **env):
    """Run ``valgeo <suite>`` at seed 1234 from ``path`` in a fresh interpreter:
    (backend, {report file name: bytes})."""
    base = {k: v for k, v in os.environ.items() if k != "VALGEO_PURE_PYTHON"}
    proc = subprocess.run(
        [sys.executable, "-m", "valgeo", suite, "--seed", "1234",
         "--samples", str(samples), "--out", str(out)],
        capture_output=True, text=True, env=dict(base, PYTHONPATH=str(path), **env),
    )
    # Exit status 1 is a failed check at the reduced budget; the report is
    # still written and must still match.
    assert proc.returncode in (0, 1), proc.stderr
    backend = proc.stdout.split("kernel backend ")[1].split()[0]
    return backend, {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("suite, samples", [("angles", 1024), ("hadwiger", 4096),
                                            ("steiner", 4096)])
def test_reports_are_identical_under_both_backends(tmp_path, built_kernel_dir, suite, samples):
    if built_kernel_dir is None:
        pytest.skip("no C compiler on PATH")
    library = (built_kernel_dir / LIB_NAME).read_bytes()
    compiled = package_copy(tmp_path / "c", library=library)
    c_backend, c_files = run_suite_files(compiled, suite, samples, tmp_path / "out-c")
    py_backend, py_files = run_suite_files(compiled, suite, samples, tmp_path / "out-python",
                                           VALGEO_PURE_PYTHON="1")
    assert (c_backend, py_backend) == ("c", "python")
    assert f"{suite}_report.json" in c_files
    assert c_files == py_files
