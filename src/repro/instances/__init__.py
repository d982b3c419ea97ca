"""Instance container, workload generators, scenario registry and
lower-bound constructions."""

from .adversary import (
    CoverageMap,
    adversarial_grid_instance,
    coverage_fraction,
    disk_candidates,
    latest_covered_point,
    record_look_positions,
)
from .families import (
    FAMILIES,
    annulus,
    beaded_path,
    clusters,
    connected_walk,
    grid_lattice,
    make_instance,
    spiral,
    two_clusters_bridge,
    uniform_disk,
    uniform_square,
)
from .registry import (
    ScenarioSpec,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from .lower_bounds import (
    GridOfDisks,
    RectilinearPath,
    energy_ball,
    energy_infeasibility_threshold,
    grid_of_disks,
    rectilinear_path,
)
from .spec import Instance

__all__ = [
    "FAMILIES",
    "Instance",
    "ScenarioSpec",
    "get_scenario",
    "iter_scenarios",
    "register_scenario",
    "scenario_names",
    "unregister_scenario",
    "annulus",
    "make_instance",
    "beaded_path",
    "clusters",
    "connected_walk",
    "grid_lattice",
    "spiral",
    "two_clusters_bridge",
    "uniform_disk",
    "uniform_square",
    "GridOfDisks",
    "RectilinearPath",
    "energy_ball",
    "energy_infeasibility_threshold",
    "grid_of_disks",
    "rectilinear_path",
    "CoverageMap",
    "adversarial_grid_instance",
    "coverage_fraction",
    "disk_candidates",
    "latest_covered_point",
    "record_look_positions",
]
