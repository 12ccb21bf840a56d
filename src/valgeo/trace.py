"""Process-wide counters of the paths and numerical fallbacks of ``bodies``,
``valuations`` and the Wolfe kernel.

Every membership count (``mc_hull_volume``, ``parallel_body_volumes``) first tries to decide each point from P's facets
and edges, and sends only the points it cannot decide to the Wolfe kernel.  Each call adds its totals here, in points:

* ``certified_inside``: decided without Wolfe, within every threshold;
* ``certified_outside``: decided without Wolfe, beyond at least one threshold;
* ``sent_to_wolfe``: not decidable, so measured by ``hull_distances``: points
  of flat bodies, of bodies in R^4 and above whose facet and nearest-edge
  bounds do not settle them, and points within the decision margin of a
  threshold;
* ``audited``: decided points measured by ``hull_distances`` as well, as a check;
* ``audit_mismatches``: audited points where the certificate and Wolfe disagree.

``bodies.shadow_measures`` chooses how a Monte-Carlo shadow, vol_k of P's
image under a (c, n, k) stack of maps, is measured: the width for k = 1;
Cauchy's formula for k = 2 when n = 3, P is full dimensional and no
perimeter is wanted; the edge test for every other k = 2, with its tied rows
measured by Qhull per image; Qhull per image for k >= 3.  The one exception
is the Kubota estimator for k = n - 1, which calls ``cauchy_shadow_volumes``
directly with one unit normal a sample.  Each path adds its row count to
one of:

* ``shadow_rows_cauchy``: rows through Cauchy's projection formula
  (``cauchy_shadow_volumes``);
* ``shadow_rows_edges``: rows measured by the edge test (``_edge_shadows``),
  of full-dimensional and flat bodies in R^n, n >= 2, points and segments
  included;
* ``shadow_rows_edge_ties``: rows the edge test hands on to Qhull per image
  (``_raw_hull``), because some edge's verdict rests on a value within
  rounding of 0 (a 2-face seen edge-on, an edge seen end-on, or a flat
  image);
* ``shadow_rows_qhull``: images for k >= 3, measured one at a time by
  ``_raw_hull`` (one Qhull call, or 0 for an image of lower affine rank).

Widths are not counted.

One fallback returns a number by a second route and counts each firing:

* ``qhull_joggled``: point clouds that ``Polytope`` hull-reduces with Qhull's
  joggled input (option ``QJ``) after the plain call raised ``QhullError``.

Every Grassmann cosine takes one route, ``grassmann.cos_from_products``,
whatever the dimensions, so the cosine has no fallback to count.

Stops without a certificate and fallbacks of the Wolfe kernel count too:

* ``wolfe_max_iter_rows``: rows still live after ``max_iter`` rounds, whose
  distance is the current iterate's, not a converged one;
* ``wolfe_stalled_rows``: rows stopped with a gap above the tolerance
  because the entering vertex is already in the corral;
* ``wolfe_ridge_retries``: corral systems solved again with a ridge after a
  ``LinAlgError`` (an affinely dependent corral);
* ``wolfe_corral_resets``: minor cycles that cut a corral back to the
  entering vertex alone.

The counters never enter a report.  ``reset()`` sets them back to zero.
"""

COUNTERS = ("certified_inside", "certified_outside", "sent_to_wolfe", "audited",
            "audit_mismatches", "shadow_rows_cauchy", "shadow_rows_edges",
            "shadow_rows_edge_ties", "shadow_rows_qhull", "qhull_joggled",
            "wolfe_max_iter_rows", "wolfe_stalled_rows", "wolfe_ridge_retries", "wolfe_corral_resets")

counters = dict.fromkeys(COUNTERS, 0)


def reset() -> None:
    """Set every counter to zero."""
    for key in COUNTERS:
        counters[key] = 0
