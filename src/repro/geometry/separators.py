"""Geometric separators (Section 2.3).

Given a square ``S`` of width ``R > 2*ell``, the *separator* ``sep(S)`` is
the closed annulus between ``S`` and the concentric square of width
``R - 2*ell``.  Lemma 3: any path of the ``ell``-disk graph linking a robot
inside ``S`` to a robot outside contains a robot located in ``sep(S)`` —
the annulus is too wide (``ell``) for an edge to jump across.  Corollary 2:
an empty separator means ``P`` lies entirely inside or entirely outside.

For narrow squares (``R <= 2*ell``) the annulus degenerates; this
implementation then takes ``sep(S) = S`` so exploration of the separator
still sees every robot that a crossing path must contain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .points import EPS, Point
from .rectangles import Rect

__all__ = ["Separator", "separator_of"]


@dataclass(frozen=True)
class Separator:
    """The separator annulus of a square, as an outer/inner rectangle pair.

    ``inner`` is ``None`` when the square is narrow (``R <= 2*ell``) and the
    separator is the whole square.
    """

    outer: Rect
    inner: Rect | None
    ell: float

    @property
    def is_degenerate(self) -> bool:
        return self.inner is None

    def contains(self, p: Point, tol: float = EPS) -> bool:
        """Closed membership in the annulus."""
        if not self.outer.contains(p, tol):
            return False
        if self.inner is None:
            return True
        # A point strictly inside the inner square is NOT in the annulus.
        return not self.inner.strictly_inside(p, margin=tol)

    def filter(self, points: Sequence[Point]) -> list[Point]:
        """Points lying in the separator."""
        return [p for p in points if self.contains(p)]

    def rectangles(self) -> list[Rect]:
        """Decomposition into four exploration rectangles.

        The annulus splits into bottom and top full-width strips of height
        ``ell`` plus left and right strips of height ``R - 2*ell`` — exactly
        the ``ell x R`` rectangles Lemma 10 charges to the Exploration
        phase.  A degenerate separator yields the single square itself.
        """
        if self.inner is None:
            return [self.outer]
        o, i = self.outer, self.inner
        return [
            Rect(o.xmin, o.ymin, o.xmax, i.ymin),  # bottom strip
            Rect(o.xmin, i.ymax, o.xmax, o.ymax),  # top strip
            Rect(o.xmin, i.ymin, i.xmin, i.ymax),  # left strip
            Rect(i.xmax, i.ymin, o.xmax, i.ymax),  # right strip
        ]

    @property
    def area(self) -> float:
        if self.inner is None:
            return self.outer.area
        return self.outer.area - self.inner.area


def separator_of(region: Rect, ell: float) -> Separator:
    """Separator of a square region for connectivity threshold ``ell``."""
    if ell <= 0:
        raise ValueError("ell must be positive")
    width = min(region.width, region.height)
    if width <= 2.0 * ell + EPS:
        return Separator(outer=region, inner=None, ell=ell)
    inner = region.expanded(-ell)
    return Separator(outer=region, inner=inner, ell=ell)
