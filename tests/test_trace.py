"""Counters of the certified membership path (``valgeo.trace``)."""

import numpy as np
import pytest
from scipy.spatial import QhullError

from valgeo import bodies as B, trace
from valgeo.grassmann import SeededSampler
from valgeo.suites import RunConfig, run_suite


def certified(counters):
    return counters["certified_inside"] + counters["certified_outside"]


@pytest.mark.parametrize("suite, samples", [("angles", 1024), ("hadwiger", 4096),
                                            ("steiner", 4096)])
def test_suites_certify_without_mismatches(suite, samples):
    trace.reset()
    run_suite(suite, RunConfig(seed=1234, samples=samples))
    c = dict(trace.counters)
    # Every point is certified (in R^2 and R^3 from facets and edges, so
    # steiner's points nearest an edge too); Wolfe sees only the audits.
    assert c["audit_mismatches"] == 0
    assert c["audited"] > 0
    assert c["sent_to_wolfe"] == 0


def test_angles_report_does_not_depend_on_the_counters():
    trace.reset()
    fresh = run_suite("angles", RunConfig(seed=1234)).to_json()
    for key in trace.COUNTERS:
        trace.counters[key] += 1000
    assert run_suite("angles", RunConfig(seed=1234)).to_json() == fresh
    trace.reset()


def test_reset_zeroes_every_counter():
    trace.counters["audited"] += 3
    trace.reset()
    assert trace.counters == dict.fromkeys(trace.COUNTERS, 0)


def test_audit_counts_disagreement_with_wolfe(monkeypatch):
    wolfe = B.hull_distances
    monkeypatch.setattr(B, "hull_distances", lambda pts, verts: wolfe(pts, verts) + 1.0)
    trace.reset()
    n_samples = 4096
    B.mc_hull_volume(B.make_cube(3, centered=True), n_samples, SeededSampler(6))
    c = dict(trace.counters)
    # The sampling box is the cube itself, so every point is certified
    # inside, and every audited one is "outside" by the broken kernel.
    assert c["sent_to_wolfe"] == 0
    assert c["audit_mismatches"] == c["audited"] == n_samples // 64


def test_counters_add_up_per_call():
    p = B.make_simplex(3)
    pts = np.random.default_rng(2).uniform(-0.5, 1.5, size=(1000, 3))
    trace.reset()
    B._within(p, pts, np.array([1e-9 * B._hull_scale(p)]))
    c = dict(trace.counters)
    assert certified(c) + c["sent_to_wolfe"] == len(pts)
    assert c["audited"] == len(range(0, len(pts), 64))


@pytest.mark.parametrize("suite, edges", [("hadwiger", False), ("kubota", True)])
def test_shadow_rows_by_path(suite, edges):
    # hadwiger's bodies are full-dimensional in R^3, so every planar shadow
    # goes through Cauchy's formula; kubota also projects the R^4 cube onto
    # planes, which the edge test measures with no tied row, so no row
    # reaches Qhull.  A call adds its whole row count, so each total is a
    # multiple of the budget.
    samples = 1024
    cfg = RunConfig(seed=1234, samples=samples)
    trace.reset()
    report = run_suite(suite, cfg).to_json()
    c = dict(trace.counters)
    assert c["shadow_rows_cauchy"] > 0 and c["shadow_rows_cauchy"] % samples == 0
    assert c["shadow_rows_edges"] % samples == 0
    assert (c["shadow_rows_edges"] > 0) == edges
    assert c["shadow_rows_edge_ties"] == c["shadow_rows_qhull"] == 0
    # The counters never reach the report: a second run, which starts from
    # nonzero counters, writes the same bytes.
    assert run_suite(suite, cfg).to_json() == report
    assert trace.counters["shadow_rows_cauchy"] == 2 * c["shadow_rows_cauchy"]


def test_qhull_joggle_is_counted(monkeypatch):
    real, calls = B.ConvexHull, []

    def fail_once(points, **kwargs):
        calls.append(kwargs.get("qhull_options"))
        if len(calls) == 1:
            raise QhullError("QH6154 qhull precision error")
        return real(points, **kwargs)

    monkeypatch.setattr(B, "ConvexHull", fail_once)
    cloud = np.random.default_rng(4).standard_normal((30, 3))
    trace.reset()
    joggled = B.Polytope(3, cloud)
    assert calls == [None, "QJ"]
    assert trace.counters["qhull_joggled"] == 1
    # The plain call succeeds from now on: nothing more is counted, and the
    # joggled hull kept the same extreme points.
    assert np.array_equal(B.Polytope(3, cloud).vertices, joggled.vertices)
    assert calls == [None, "QJ", None]
    assert trace.counters["qhull_joggled"] == 1
