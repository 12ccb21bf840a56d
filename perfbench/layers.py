"""Layer trace recorded from outside valgeo.

Each layer's public entry points are wrapped at every valgeo module attribute
(or class attribute) that binds them.  A wrapped call records one span
(name, start, end, parent) in flat arrays and bumps the layer's counters;
nothing inside ``src/`` is changed.  ``Tracer.install`` wraps,
``Tracer.uninstall`` restores the original objects, so untraced passes in the
same process run the unmodified code.

A binding that the program no longer has is reported as absent, not as an
error, so a later change that removes or renames an entry point still runs.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (layer, home module, attribute, counter kind).  "Cls.meth" patches a class
# attribute; a plain name is replaced at every valgeo module that binds the
# same object.  The counter kinds are interpreted by ``Tracer._count``.
TARGETS = (
    ("grassmann", "valgeo.grassmann", "haar_subspace", "scalar"),
    ("grassmann", "valgeo.grassmann", "sample_containing", "scalar"),
    ("grassmann", "valgeo.grassmann", "sample_within", "scalar"),
    ("grassmann", "valgeo.grassmann", "cos_angle", "scalar"),
    ("grassmann", "valgeo.grassmann", "orthocomplement", "scalar"),
    ("grassmann", "valgeo.grassmann", "haar_bases_batch", "batch"),
    ("grassmann", "valgeo.grassmann", "haar_unit_vectors", "batch"),
    ("grassmann", "valgeo.grassmann", "unit_vectors_orthogonal_to", "batch"),
    ("grassmann", "valgeo.grassmann", "cos_angles_with_bases", "batch"),
    ("transforms", "valgeo.transforms", "radon_apply", None),
    ("transforms", "valgeo.transforms", "cosine_apply", None),
    ("transforms", "valgeo.transforms", "operator_matrix_even", None),
    ("transforms", "valgeo.transforms", "lefschetz_probe", None),
    ("transforms", "valgeo.transforms", "funk_hecke_cosine_eigen", None),
    ("transforms", "valgeo.transforms", "funk_radon_eigen", None),
    ("transforms", "valgeo.transforms", "radon_funk_eigen_mc", None),
    ("transforms", "valgeo.transforms", "GFunction.__call__", "gfunction_scalar"),
    ("transforms", "valgeo.transforms", "GFunction.eval_bases", "gfunction_batch"),
    ("harmonics", "valgeo._harmonics", "HarmonicBasis.eval_points", "harmonic_points"),
    ("harmonics", "valgeo._harmonics", "HarmonicBlock.eval_points", None),
    ("harmonics", "valgeo._harmonics", "even_harmonic_blocks", None),
    ("harmonics", "valgeo._harmonics", "gegenbauer_normalized", None),
    ("harmonics", "valgeo._harmonics", "kernel_mean_quadrature", None),
    ("harmonics", "valgeo._harmonics", "sphere_quadrature", None),
    ("kernels", "valgeo._kernels", "hull_distances", "kernel"),
    ("qhull", "scipy.spatial", "ConvexHull", "qhull"),
    ("construct", "valgeo.bodies", "_extreme_points", "construct"),
    ("fit", "valgeo.bodies", "fit_polynomial", "fit"),
    ("bodies", "valgeo.bodies", "kubota_estimate", None),
    ("bodies", "valgeo.bodies", "mc_hull_volume", None),
    ("bodies", "valgeo.bodies", "parallel_body_volumes", None),
    ("bodies", "valgeo.bodies", "steiner_fit", None),
    ("bodies", "valgeo.bodies", "hull_volume", None),
    ("bodies", "valgeo.bodies", "polytope_intrinsic_volumes", None),
    ("bodies", "valgeo.bodies", "shadow_volume", None),
    ("bodies", "valgeo.bodies", "minkowski_segment", None),
    ("bodies", "valgeo.bodies", "project", None),
    ("valuations", "valgeo.valuations", "evaluate", None),
    ("valuations", "valgeo.valuations", "lambda_apply", None),
    ("valuations", "valgeo.valuations", "proportionality_check", None),
    ("valuations", "valgeo.valuations", "product_projection", None),
    ("valuations", "valgeo.valuations", "klain_function", None),
    ("valuations", "valgeo.valuations", "claim23_check", None),
    ("valuations", "valgeo.valuations", "lemma22_formula", None),
    ("valuations", "valgeo.valuations", "lemma22_direct", None),
    ("valuations", "valgeo.valuations", "multiply_by_intrinsic", None),
    ("valuations", "valgeo.valuations", "lemma24_direct", None),
    ("valuations", "valgeo.valuations", "fit_proportionality", None),
    ("suites", "valgeo.suites", "run_suite", None),
)

LAYERS = ("grassmann", "transforms", "harmonics", "kernels", "qhull", "construct",
          "fit", "bodies", "valuations", "suites")

COUNTERS = (
    "grassmann.scalar_calls", "grassmann.batch_calls", "grassmann.batch_rows",
    "transforms.gfunction_scalar_calls", "transforms.gfunction_batch_rows",
    "harmonics.points",
    "kernels.calls", "kernels.points", "kernels.point_vertex_pairs",
    "qhull.calls", "qhull.points", "qhull.errors",
    "construct.calls", "construct.points_in", "construct.vertices_out",
    "fit.calls",
)


class Tracer:
    """Wraps the layer entry points and keeps their spans in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of_name: list[str] = []
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.fit_max_residual = 0.0
        self.fit_max_cond = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target binding found in the loaded valgeo modules."""
        if not self._wrappers:
            self._build()
        for owner, attr, wrapper in self._wrappers:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _build(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "valgeo" or name.startswith("valgeo."))]
        for layer, home, attr, kind in TARGETS:
            try:
                home_mod = importlib.import_module(home)
            except ImportError:
                self.absent.append(f"{home}.{attr}")
                continue
            if "." in attr:
                cls_name, meth = attr.split(".", 1)
                cls = getattr(home_mod, cls_name, None)
                fn = None if cls is None else cls.__dict__.get(meth)
                if fn is None:
                    self.absent.append(f"{home}.{attr}")
                    continue
                name_id = self._name(f"{cls_name}.{meth}", layer)
                self._add(name_id, kind, cls, meth, fn, f"{home}.{attr}")
                continue
            fn = getattr(home_mod, attr, None)
            bindings = [(m, a) for m in modules for a, v in vars(m).items()
                        if fn is not None and v is fn]
            if not bindings:
                self.absent.append(f"{home}.{attr}")
                continue
            name_id = self._name(attr, layer)
            for mod, a in bindings:
                self._add(name_id, kind, mod, a, fn, f"{mod.__name__}.{a}")

    def _name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of_name.append(layer)
        return len(self.names) - 1

    def _add(self, name_id, kind, owner, attr, fn, label) -> None:
        self._wrappers.append((owner, attr, self._wrap(fn, name_id, kind)))
        self.wrapped.append(label)

    def _wrap(self, fn, name_id: int, kind: str | None):
        tracer = self
        clock = time.perf_counter
        qhull_error = None
        if kind == "qhull":
            from scipy.spatial import QhullError as qhull_error

        def traced(*args, **kwargs):
            idx = len(tracer.span_name)
            stack = tracer._stack
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if qhull_error is not None and isinstance(exc, qhull_error):
                    tracer.counters["qhull.errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            if kind is not None:
                tracer._count(kind, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count(self, kind: str, args: tuple, result) -> None:
        c = self.counters
        if kind == "scalar":
            c["grassmann.scalar_calls"] += 1
        elif kind == "batch":
            c["grassmann.batch_calls"] += 1
            c["grassmann.batch_rows"] += len(result)
        elif kind == "gfunction_scalar":
            c["transforms.gfunction_scalar_calls"] += 1
        elif kind == "gfunction_batch":
            c["transforms.gfunction_batch_rows"] += len(result)
        elif kind == "harmonic_points":
            c["harmonics.points"] += len(args[1])
        elif kind == "kernel":
            points, vertices = args[0], args[1]
            c["kernels.calls"] += 1
            c["kernels.points"] += len(points)
            c["kernels.point_vertex_pairs"] += len(points) * len(vertices)
        elif kind == "qhull":
            c["qhull.calls"] += 1
            c["qhull.points"] += len(args[0])
        elif kind == "construct":
            c["construct.calls"] += 1
            c["construct.points_in"] += len(args[0])
            c["construct.vertices_out"] += len(result[0])
        elif kind == "fit":
            c["fit.calls"] += 1
            self.fit_max_residual = max(self.fit_max_residual, float(result[1]))
            self.fit_max_cond = max(self.fit_max_cond, float(result[2]))

    # -- analysis ----------------------------------------------------------

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer: span durations minus their child spans."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            layer = self.layer_of_name[self.span_name[i]]
            out[layer] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def save_spans(self, path) -> None:
        """Write the spans of the last traced pass as compressed arrays."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of_name),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
