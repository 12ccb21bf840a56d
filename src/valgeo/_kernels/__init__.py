"""The hull-distance kernel: Wolfe's min-norm-point algorithm in ``pywolfe``.

Membership counts in R^2 and R^3 are decided exactly from facets and edges
(``bodies._within``), so this kernel measures only their 1-in-64 audit
sample and points within the decision margin of a threshold, flat bodies,
points of bodies in R^4 and above that facet and edge bounds leave open, and
direct calls to ``hull_distances`` and ``bodies.dist_to_polytope``.
``BACKEND`` names the kernel in traces and benchmark records; it is always
``"python"``.
"""

from . import pywolfe
from .pywolfe import BACKEND, hull_distances

__all__ = ["BACKEND", "hull_distances", "pywolfe"]
