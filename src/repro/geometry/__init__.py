"""Computational-geometry substrate for the Freeze Tag reproduction.

Public surface:

* :class:`Point`, :class:`Rect` — plane primitives with the partition
  conventions the paper's algorithms rely on;
* :class:`GridHash` — fixed-radius neighbor index backing every snapshot;
* :class:`DiskGraph` and the instance parameters ``rho_star`` /
  ``ell_star`` / ``xi_ell`` of Section 1.2;
* ``ell``-samplings and covering checks (Section 2.4, Lemma 4);
* geometric separators (Section 2.3, Lemma 3);
* the ``Sort(X)`` seed ordering of DFSampling (Section 6.5).
"""

from .diskgraph import DiskGraph, bottleneck_connectivity, connected_components
from .frontier import FRONTIER_PAD, FrontierIndex, frontier_for
from .frozen import FrozenGridHash
from .gridhash import GridHash
from .ordering import boundary_parameter, sort_seeds
from .parameters import (
    InstanceParameters,
    connectivity_threshold,
    ell_eccentricity,
    hop_eccentricity,
    instance_parameters,
    is_admissible,
    radius,
)
from .points import (
    EPS,
    ORIGIN,
    Point,
    centroid,
    close_to,
    convex_combination,
    distance,
    l1_distance,
    max_distance_from,
    midpoint,
    pairwise_min_distance,
    path_length,
    points_within,
)
from .rectangles import Rect, enclosing_rect, square, square_at_center
from .sampling import (
    covers,
    greedy_ell_sampling,
    is_ell_sampling,
    sampling_cardinality_bound,
)
from .separators import Separator, separator_of

__all__ = [
    "EPS",
    "ORIGIN",
    "Point",
    "Rect",
    "GridHash",
    "FrozenGridHash",
    "FRONTIER_PAD",
    "FrontierIndex",
    "frontier_for",
    "DiskGraph",
    "Separator",
    "InstanceParameters",
    "bottleneck_connectivity",
    "connected_components",
    "boundary_parameter",
    "sort_seeds",
    "connectivity_threshold",
    "ell_eccentricity",
    "hop_eccentricity",
    "instance_parameters",
    "is_admissible",
    "radius",
    "centroid",
    "close_to",
    "convex_combination",
    "distance",
    "l1_distance",
    "max_distance_from",
    "midpoint",
    "pairwise_min_distance",
    "path_length",
    "points_within",
    "enclosing_rect",
    "square",
    "square_at_center",
    "covers",
    "greedy_ell_sampling",
    "is_ell_sampling",
    "sampling_cardinality_bound",
    "separator_of",
]
