"""Workload generators — the instance families of the benchmark harness.

Each generator returns an :class:`~repro.instances.spec.Instance` with a
descriptive name.  Families are chosen to stress the paper's parameters
independently:

* ``uniform_disk`` / ``uniform_square`` — dense swarms, small ``ell_star``,
  ``xi_ell ~ rho_star``: the regime where ``ASeparator``'s makespan is
  dominated by ``rho``;
* ``clusters`` — multi-scale density, larger ``ell_star``;
* ``annulus`` — empty center, stresses separator-based discovery;
* ``beaded_path`` / ``spiral`` / ``grid_lattice`` — controlled
  ``xi_ell >> rho`` corridors for the ``AGrid``/``AWave`` regime;
* ``l1_diamond`` — gridded L1 ball (arXiv:2402.03258 geometry): exact
  lattice coordinates that land on cell/quadrant boundaries;
* ``connected_walk`` — random but guaranteed ``ell``-connected.

All randomness flows through ``numpy.random.default_rng(seed)`` so every
instance is reproducible from its arguments.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from ..geometry import Point
from .spec import Instance

__all__ = [
    "FAMILIES",
    "make_instance",
    "uniform_disk",
    "uniform_square",
    "clusters",
    "annulus",
    "beaded_path",
    "spiral",
    "grid_lattice",
    "l1_diamond",
    "connected_walk",
    "two_clusters_bridge",
    "grid_of_disks_swarm",
    "coincident_pairs",
]


def _finish(xs: Iterable[float], ys: Iterable[float], name: str) -> Instance:
    pts = tuple(Point(float(x), float(y)) for x, y in zip(xs, ys))
    return Instance(positions=pts, name=name)


def uniform_disk(n: int, rho: float, seed: int = 0) -> Instance:
    """``n`` robots uniform in the disk of radius ``rho`` around the source."""
    rng = np.random.default_rng(seed)
    radii = rho * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return _finish(
        radii * np.cos(angles), radii * np.sin(angles),
        f"uniform_disk(n={n},rho={rho},seed={seed})",
    )


def uniform_square(n: int, half_width: float, seed: int = 0) -> Instance:
    """``n`` robots uniform in ``[-half_width, half_width]^2``."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-half_width, half_width, size=n)
    ys = rng.uniform(-half_width, half_width, size=n)
    return _finish(xs, ys, f"uniform_square(n={n},w={half_width},seed={seed})")


def clusters(
    n: int,
    n_clusters: int,
    rho: float,
    spread: float = 1.0,
    seed: int = 0,
) -> Instance:
    """Gaussian clusters with centers uniform in the radius-``rho`` disk.

    One cluster is pinned near the source so the swarm is reachable; the
    inter-cluster gaps drive ``ell_star`` up.
    """
    rng = np.random.default_rng(seed)
    centers = [Point(0.0, 0.0)]
    for _ in range(n_clusters - 1):
        r = rho * math.sqrt(rng.uniform(0, 1))
        a = rng.uniform(0, 2 * math.pi)
        centers.append(Point(r * math.cos(a), r * math.sin(a)))
    xs, ys = [], []
    for i in range(n):
        c = centers[i % n_clusters]
        xs.append(c.x + rng.normal(0.0, spread))
        ys.append(c.y + rng.normal(0.0, spread))
    return _finish(
        xs, ys, f"clusters(n={n},k={n_clusters},rho={rho},seed={seed})"
    )


def annulus(n: int, r_inner: float, r_outer: float, seed: int = 0) -> Instance:
    """Robots uniform in an annulus (empty center around the source)."""
    rng = np.random.default_rng(seed)
    radii = np.sqrt(rng.uniform(r_inner**2, r_outer**2, size=n))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return _finish(
        radii * np.cos(angles), radii * np.sin(angles),
        f"annulus(n={n},{r_inner}..{r_outer},seed={seed})",
    )


def beaded_path(
    n: int, spacing: float, seed: int = 0, wiggle: float = 0.0
) -> Instance:
    """Robots strung along the positive x-axis every ``spacing``.

    The canonical high-eccentricity family: ``rho_star ~ n * spacing`` and
    ``xi_ell ~ rho_star``, with ``ell_star = spacing`` exactly (when
    ``wiggle == 0``).  With ``wiggle`` the chain meanders vertically.
    """
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    y = 0.0
    for i in range(1, n + 1):
        y += rng.uniform(-wiggle, wiggle) if wiggle else 0.0
        xs.append(i * spacing)
        ys.append(y)
    return _finish(xs, ys, f"beaded_path(n={n},d={spacing},seed={seed})")


def spiral(n: int, spacing: float, turn: float = 0.35) -> Instance:
    """Archimedean spiral of beads — ``xi_ell`` grows superlinearly in
    ``rho_star`` (the wave algorithms' motivating shape)."""
    xs, ys = [], []
    theta = 0.0
    r = spacing
    for _ in range(n):
        xs.append(r * math.cos(theta))
        ys.append(r * math.sin(theta))
        # Advance along the arc by ~spacing.
        theta += spacing / max(r, spacing)
        r = spacing * (1.0 + turn * theta)
    return _finish(xs, ys, f"spiral(n={n},d={spacing})")


def grid_lattice(side: int, spacing: float) -> Instance:
    """``side x side`` lattice of robots, source at the lower-left corner."""
    xs, ys = [], []
    for i in range(side):
        for j in range(side):
            if i == 0 and j == 0:
                continue  # the source occupies the origin
            xs.append(i * spacing)
            ys.append(j * spacing)
    return _finish(xs, ys, f"grid_lattice({side}x{side},d={spacing})")


def l1_diamond(n: int, rho: float, pitch: float = 1.0, seed: int = 0) -> Instance:
    """``n`` robots on the pitch-``pitch`` lattice points of the closed L1
    ball of radius ``rho`` around the source (the gridded diamond of the
    L1 Freeze-Tag geometry, Rajabi-Alni et al. / arXiv:2402.03258 spirit).

    Sampled without replacement; the exact grid coordinates — including
    points landing precisely on wave-cell and quadrant boundaries — stress
    the half-open partition conventions the wave algorithms rely on, which
    is why the ``AWave`` differential suite includes this family.
    ``ell_star <= pitch * sqrt(2)`` whenever the sample stays connected.
    """
    rng = np.random.default_rng(seed)
    k = int(math.floor(rho / pitch))
    lattice = [
        (i * pitch, j * pitch)
        for i in range(-k, k + 1)
        for j in range(-k, k + 1)
        if abs(i) + abs(j) <= k and not (i == 0 and j == 0)
    ]
    if n > len(lattice):
        raise ValueError(
            f"l1_diamond: n={n} exceeds the {len(lattice)} lattice points "
            f"of the radius-{rho} diamond at pitch {pitch}"
        )
    chosen = rng.choice(len(lattice), size=n, replace=False)
    xs = [lattice[i][0] for i in chosen]
    ys = [lattice[i][1] for i in chosen]
    return _finish(
        xs, ys, f"l1_diamond(n={n},rho={rho},pitch={pitch},seed={seed})"
    )


def connected_walk(
    n: int, step: float, seed: int = 0, jitter: float = 0.3
) -> Instance:
    """A random walk of robots with consecutive spacing at most ``step``.

    Guarantees ``ell_star <= step`` by construction (the walk itself is a
    spanning path of the ``step``-disk graph).
    """
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    x, y = 0.0, 0.0
    heading = rng.uniform(0, 2 * math.pi)
    for _ in range(n):
        heading += rng.normal(0.0, jitter)
        hop = step * rng.uniform(0.5, 0.999)
        x += hop * math.cos(heading)
        y += hop * math.sin(heading)
        xs.append(x)
        ys.append(y)
    return _finish(xs, ys, f"connected_walk(n={n},step={step},seed={seed})")


def two_clusters_bridge(
    n: int, gap: float, spacing: float, seed: int = 0
) -> Instance:
    """Two dense blobs joined by a sparse bead bridge of pitch ``spacing``.

    ``ell_star = spacing`` (the bridge is the bottleneck) while most robots
    sit in dense blobs — separating the ``ell``-dependence of makespans
    from the ``rho``-dependence.
    """
    rng = np.random.default_rng(seed)
    blob = max(4, (n - int(gap / spacing)) // 2)
    bridge_count = max(1, int(gap / spacing) - 1)
    xs, ys = [], []
    for _ in range(blob):  # near blob
        xs.append(rng.normal(0.0, 1.0))
        ys.append(rng.normal(0.0, 1.0))
    for i in range(1, bridge_count + 1):  # the bridge beads
        xs.append(i * spacing * (gap / (spacing * (bridge_count + 1))) )
        ys.append(0.0)
    for _ in range(max(1, n - blob - bridge_count)):  # far blob
        xs.append(gap + rng.normal(0.0, 1.0))
        ys.append(rng.normal(0.0, 1.0))
    return _finish(xs, ys, f"two_clusters_bridge(n={n},gap={gap},seed={seed})")


def grid_of_disks_swarm(
    ell: float, rho: float, n: int, seed: int = 0
) -> Instance:
    """One robot hidden uniformly inside each disk of the Theorem 2
    grid-of-disks lower-bound construction (:mod:`.lower_bounds`).

    The construction promises admissibility by design: adjacent disk
    centers sit ``ell/2`` apart with disk radius ``ell/4``, so
    ``ell_star <= ell``, and every placement stays within ``rho`` of the
    source, so ``rho_star <= rho``.  The fuzzer's lower-bound-consistency
    invariant asserts exactly those promises against the realized
    instance.  Note the robot count is ``min(n, capacity)`` — the grid
    inside radius ``rho`` holds only so many disks.
    """
    from .lower_bounds import grid_of_disks

    construction = grid_of_disks(ell, rho, n)
    rng = np.random.default_rng(seed)
    radii = construction.disk_radius * np.sqrt(
        rng.uniform(0.0, 1.0, size=construction.m)
    )
    angles = rng.uniform(0.0, 2.0 * math.pi, size=construction.m)
    placements = [
        Point(c.x + float(r) * math.cos(float(a)), c.y + float(r) * math.sin(float(a)))
        for c, r, a in zip(construction.centers, radii, angles)
    ]
    instance = construction.instance(placements)
    return Instance(
        positions=instance.positions,
        name=f"grid_of_disks_swarm(ell={ell},rho={rho},n={n},seed={seed})",
    )


def coincident_pairs(n: int, rho: float, seed: int = 0) -> Instance:
    """Exactly coincident robots: anchor points uniform in the radius-``rho``
    disk, each duplicated (the last anchor unpaired when ``n`` is odd).

    Zero-distance pairs stress co-location wakes, duplicate positions in
    the spatial indexes, and cohort election among robots that share a
    cell *and* a coordinate — degenerate geometry the classic families
    never produce.
    """
    rng = np.random.default_rng(seed)
    anchors = max(1, (n + 1) // 2)
    radii = rho * np.sqrt(rng.uniform(0.0, 1.0, size=anchors))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=anchors)
    xs: list[float] = []
    ys: list[float] = []
    for x, y in zip(radii * np.cos(angles), radii * np.sin(angles)):
        xs += [float(x), float(x)]
        ys += [float(y), float(y)]
    return _finish(
        xs[:n], ys[:n], f"coincident_pairs(n={n},rho={rho},seed={seed})"
    )


#: Name -> generator registry.  The single source of truth for every layer
#: that builds instances from declarative data (the CLI's ``--family``
#: flag, sweep-spec files, pickled harness jobs).
FAMILIES: dict[str, Callable[..., Instance]] = {
    "uniform_disk": uniform_disk,
    "uniform_square": uniform_square,
    "clusters": clusters,
    "annulus": annulus,
    "beaded_path": beaded_path,
    "spiral": spiral,
    "grid_lattice": grid_lattice,
    "l1_diamond": l1_diamond,
    "connected_walk": connected_walk,
    "two_clusters_bridge": two_clusters_bridge,
    # The registered-scenario names: the swarm generator rides under
    # "grid_of_disks" (the construction it samples), like every other
    # family/scenario name pair.
    "grid_of_disks": grid_of_disks_swarm,
    "coincident_pairs": coincident_pairs,
}



def make_instance(family: str, **kwargs) -> Instance:
    """Build an instance from a family name and generator kwargs."""
    try:
        fn = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        ) from None
    return fn(**kwargs)
