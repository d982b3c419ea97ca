"""Lower-bound constructions (Theorems 2, 3 and 6, Section 9).

Three constructions:

* :func:`grid_of_disks` (Thm 2 / Figure 5) — centers ``C`` on the
  ``ell/2``-grid inside the radius-``rho - ell/4`` disk, one robot hidden in
  each radius-``ell/4`` disk ``D_c``.  Adjacent disks are ``ell``-connected
  (Lemma 13), and ``|C| >= 1 + rho^2/ell^2`` (Lemma 12).  An algorithm must
  sweep most of each disk's area before finding its robot, giving the
  ``Ω(ell^2 log m)`` telescoping bound.
* :func:`energy_ball` (Thm 3) — a single robot hidden in ``B(0, ell)``;
  discovering it requires covering area ``pi*ell^2``, i.e. movement at
  least ``pi*(ell^2-1)/2`` — below that budget no algorithm wakes anyone.
* :func:`rectilinear_path` (Thm 6) — beads along the rectilinear path
  ``Π`` with horizontal runs ``H = rho/sqrt(2)`` separated vertically by
  ``V = B + 1``, realizing a *prescribed* ``ell``-eccentricity ``xi`` while
  keeping ``rho_star = rho``: energy-``B`` robots cannot shortcut between
  horizontal runs, forcing ``Ω(xi)`` makespan.

Each construction returns both the *static* instance (robots at disk
centers / bead positions) and enough structure for the two-pass adversary
of :mod:`repro.instances.adversary` to pin robots at the worst position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..geometry import Point, distance
from .spec import Instance

__all__ = [
    "GridOfDisks",
    "grid_of_disks",
    "energy_ball",
    "energy_infeasibility_threshold",
    "RectilinearPath",
    "rectilinear_path",
]


# ---------------------------------------------------------------------------
# Theorem 2: grid of disks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridOfDisks:
    """The Thm 2 structure: disk centers and the common disk radius."""

    ell: float
    rho: float
    centers: tuple[Point, ...]
    disk_radius: float

    @property
    def m(self) -> int:
        return len(self.centers)

    def instance(self, placements: Sequence[Point] | None = None) -> Instance:
        """Instance with one robot per disk.

        ``placements`` (one point per disk, each inside its disk) pins the
        robots adversarially; default is the disk centers.
        """
        if placements is None:
            positions = self.centers
        else:
            if len(placements) != self.m:
                raise ValueError("one placement per disk required")
            for c, p in zip(self.centers, placements):
                if distance(c, p) > self.disk_radius + 1e-9:
                    raise ValueError(f"placement {p} escapes disk at {c}")
            positions = tuple(placements)
        return Instance(
            positions=positions,
            name=f"grid_of_disks(ell={self.ell},rho={self.rho},m={self.m})",
        )

    def makespan_lower_bound(self) -> float:
        """The paper's telescoped bound ``pi*ell^2/32 * ln(m+1) + rho/4``
        (discovery area term plus the radius term)."""
        return (
            math.pi * self.ell * self.ell / 32.0 * math.log(self.m + 1)
            + self.rho / 4.0
        )


def grid_of_disks(ell: float, rho: float, n: int) -> GridOfDisks:
    """Build the Thm 2 construction for an admissible ``(ell, rho, n)``.

    Centers live on the ``ell/2`` grid within radius ``rho - ell/4``; we
    keep ``m = min(n, |C*|)`` of them: first the mandatory vertical column
    ``(0, j*ell/2)`` for ``j = 1..floor(rho/ell)`` (which pins the
    ``Ω(rho)`` term), then a connected BFS growth around the origin.
    """
    if not (0 < ell <= rho):
        raise ValueError("need 0 < ell <= rho")
    step = ell / 2.0
    limit = rho - ell / 4.0

    def in_range(i: int, j: int) -> bool:
        return math.hypot(i * step, j * step) <= limit

    column = [(0, j) for j in range(1, int(rho / ell) + 1) if in_range(0, j)]
    chosen: list[tuple[int, int]] = []
    chosen_set: set[tuple[int, int]] = set()

    def take(cell: tuple[int, int]) -> None:
        if cell not in chosen_set and cell != (0, 0):
            chosen_set.add(cell)
            chosen.append(cell)

    for cell in column:
        take(cell)
    # BFS growth from the origin (keeps Cm ∪ {(0,0)} connected).
    frontier: list[tuple[int, int]] = [(0, 0)] + column
    seen = set(frontier) | {(0, 0)}
    while frontier and len(chosen) < n:
        next_frontier: list[tuple[int, int]] = []
        for (i, j) in frontier:
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                cell = (i + di, j + dj)
                if cell in seen or not in_range(*cell):
                    continue
                seen.add(cell)
                take(cell)
                next_frontier.append(cell)
                if len(chosen) >= n:
                    break
            if len(chosen) >= n:
                break
        frontier = next_frontier
    centers = tuple(Point(i * step, j * step) for i, j in chosen)
    return GridOfDisks(
        ell=float(ell), rho=float(rho), centers=centers, disk_radius=ell / 4.0
    )


# ---------------------------------------------------------------------------
# Theorem 3: energy infeasibility
# ---------------------------------------------------------------------------

def energy_ball(ell: float, position: Point | None = None) -> Instance:
    """One robot hidden in ``B((0,0), ell)`` (default: the worst static
    spot, the boundary point opposite to nothing in particular)."""
    p = position if position is not None else Point(ell, 0.0)
    if p.norm() > ell + 1e-9:
        raise ValueError("the robot must hide inside the ell-ball")
    return Instance(positions=(p,), name=f"energy_ball(ell={ell})")


def energy_infeasibility_threshold(ell: float) -> float:
    """Thm 3: with budget below ``pi*(ell^2 - 1)/2`` the source cannot
    cover ``B(0, ell)`` and hence cannot be guaranteed to wake anyone."""
    return math.pi * (ell * ell - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Theorem 6: rectilinear path with prescribed eccentricity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RectilinearPath:
    """The Thm 6 structure: the polyline ``Π`` and the bead instance."""

    ell: float
    rho: float
    budget: float
    xi: float
    waypoints: tuple[Point, ...]

    def beads(self, spacing: float | None = None) -> list[Point]:
        """Beads along ``Π`` every at-most-``spacing`` (default
        ``0.95 * ell``), always including segment extremities.

        Placing the corners ``u_j``/``v_j`` themselves (the paper's ``P1``
        subset) guarantees consecutive beads are within ``spacing`` even
        across corners and the truncation point, i.e. the instance is
        ``ell``-connected along the path.
        """
        gap = spacing if spacing is not None else 0.95 * self.ell
        points: list[Point] = []

        def push(p: Point) -> None:
            if not points or distance(points[-1], p) > 1e-9:
                points.append(p)

        for a, b in zip(self.waypoints, self.waypoints[1:]):
            seg = distance(a, b)
            if seg <= 1e-12:
                continue
            if a != self.waypoints[0]:
                push(a)  # segment extremity (the source replaces u_0)
            steps = max(1, math.ceil(seg / gap))
            for i in range(1, steps + 1):
                frac = i / steps
                push(
                    Point(a[0] + (b[0] - a[0]) * frac, a[1] + (b[1] - a[1]) * frac)
                )
        end = self.waypoints[-1]
        push(end)
        # The rho-pinning ray [v0, (rho, 0)]: beads along the positive
        # x-axis past the first horizontal run, ending exactly at distance
        # rho from the source (the paper's [v0, w0] segment).
        h = self.rho / math.sqrt(2.0)
        x = h + gap
        while x < self.rho - 1e-9:
            points.append(Point(x, 0.0))
            x += gap
        points.append(Point(self.rho, 0.0))
        return points

    def instance(self, spacing: float | None = None) -> Instance:
        return Instance(
            positions=tuple(self.beads(spacing)),
            name=(
                f"rectilinear_path(ell={self.ell},rho={self.rho},"
                f"B={self.budget},xi={self.xi})"
            ),
        )

    def makespan_lower_bound(self) -> float:
        """Thm 6's ``Ω(xi)`` (the ``J >= 2`` case gives ``xi/4``)."""
        return self.xi / 4.0


def rectilinear_path(
    ell: float, rho: float, budget: float, xi: float
) -> RectilinearPath:
    """Build ``Π`` for prescribed ``xi ∈ [rho, rho^2/(2(B+1)) + 1]``.

    Horizontal runs of length ``H = rho/sqrt(2)`` are separated vertically
    by ``V = B + 1`` so an energy-``B`` robot cannot jump between runs; the
    zig-zag is truncated at arc length ``xi``; the ray ``[v0, (rho, 0)]``
    pins ``rho_star = rho``.
    """
    if budget <= ell:
        raise ValueError("Thm 6 needs B > ell")
    if xi < rho - 1e-9:
        raise ValueError("xi must be at least rho")
    xi_max = rho * rho / (2.0 * (budget + 1.0)) + 1.0
    if xi > max(xi_max, rho * math.sqrt(2.0)) + 1e-9:
        raise ValueError(
            f"xi={xi} outside Thm 6's admissible range "
            f"[rho, rho^2/(2(B+1)) + 1] = [{rho}, {xi_max:.2f}]"
        )
    h = rho / math.sqrt(2.0)
    v = budget + 1.0
    j_count = int(xi // (h + v))
    waypoints: list[Point] = [Point(0.0, 0.0)]
    x_left, x_right = 0.0, h
    for j in range(j_count + 1):
        y = j * v
        if j % 2 == 0:
            waypoints.append(Point(x_right, y))        # u_j -> v_j
            waypoints.append(Point(x_right, y + v))    # v_j -> v_{j+1}
        else:
            waypoints.append(Point(x_left, y))
            waypoints.append(Point(x_left, y + v))
    # Truncate the zig-zag at arc length xi.
    truncated: list[Point] = [waypoints[0]]
    remaining = xi
    for a, b in zip(waypoints, waypoints[1:]):
        seg = distance(a, b)
        if seg >= remaining:
            frac = remaining / seg if seg > 0 else 0.0
            truncated.append(
                Point(a[0] + (b[0] - a[0]) * frac, a[1] + (b[1] - a[1]) * frac)
            )
            break
        truncated.append(b)
        remaining -= seg
    # The rho-pinning ray along the x-axis.
    path = RectilinearPath(
        ell=float(ell), rho=float(rho), budget=float(budget), xi=float(xi),
        waypoints=tuple(truncated),
    )
    return path
