"""Experiment harness: every table and figure of the paper as a function.

:mod:`~repro.experiments.harness` is the batch-execution substrate —
declarative sweep specs expanded into picklable jobs, run on a pluggable
executor backend (:mod:`~repro.experiments.executors`: ``serial`` or
the ``pool`` process pool, alias ``async-local``) with an incremental
on-disk cache and a resumable sweep manifest
(:mod:`~repro.experiments.manifest`).  The table/figure functions are
thin, named sweeps built on top of it.
"""

from .ablations import (
    centralized_baseline_sweep,
    distribution_gap,
    online_competitiveness,
    solver_choice,
)
from .cache import ResultCache, request_key
from .executors import (
    Executor,
    JobFailure,
    PoolExecutor,
    SerialExecutor,
    SweepJobError,
    WorkerDied,
    executor_names,
    get_executor,
    register_executor,
    resolve_executor,
)
from .faults import (
    FAULT_KINDS,
    FAULTS_ENV,
    FaultPlant,
    FaultSpecError,
    TransientFault,
    parse_faults,
)
from .figures import (
    exploration_scaling,
    lower_bound_experiment,
    phase_durations_by_label,
    phase_timeline,
)
from .harness import (
    FamilySweep,
    ScenarioSweep,
    SweepProgress,
    SweepResult,
    SweepSpec,
    aggregate_records,
    expand_spec,
    run_requests,
    run_sweep,
)
from .io import format_csv, format_table, print_table, sweep_rows, write_csv
from .manifest import ManifestStatus, SweepManifest, spec_fingerprint
from .supervise import SupervisedExecutor, SupervisorPolicy, SupervisorStats
from .table1 import (
    agrid_xi_sweep,
    aseparator_ell_sweep,
    aseparator_rho_sweep,
    awave_vs_agrid,
    energy_infeasibility_sweep,
    fit_aseparator_shape,
)

__all__ = [
    "FamilySweep",
    "ScenarioSweep",
    "ResultCache",
    "SweepProgress",
    "SweepResult",
    "SweepSpec",
    "aggregate_records",
    "expand_spec",
    "request_key",
    "run_requests",
    "run_sweep",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "SweepJobError",
    "WorkerDied",
    "JobFailure",
    "executor_names",
    "get_executor",
    "register_executor",
    "resolve_executor",
    "FAULT_KINDS",
    "FAULTS_ENV",
    "FaultPlant",
    "FaultSpecError",
    "TransientFault",
    "parse_faults",
    "SupervisedExecutor",
    "SupervisorPolicy",
    "SupervisorStats",
    "ManifestStatus",
    "SweepManifest",
    "spec_fingerprint",
    "centralized_baseline_sweep",
    "distribution_gap",
    "online_competitiveness",
    "solver_choice",
    "exploration_scaling",
    "lower_bound_experiment",
    "phase_durations_by_label",
    "phase_timeline",
    "format_csv",
    "format_table",
    "print_table",
    "sweep_rows",
    "write_csv",
    "agrid_xi_sweep",
    "aseparator_ell_sweep",
    "aseparator_rho_sweep",
    "awave_vs_agrid",
    "energy_infeasibility_sweep",
    "fit_aseparator_shape",
]
