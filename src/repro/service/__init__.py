"""Sweep-as-a-service: the async HTTP front of the sweep harness.

``freezetag serve`` exposes the batch harness — deterministic picklable
:class:`~repro.core.runner.RunRequest` jobs, the content-addressed
:class:`~repro.experiments.cache.ResultCache`, resumable
:class:`~repro.experiments.manifest.SweepManifest` ledgers and the
process pool executor — as a multi-tenant experiment platform:

* ``POST /sweeps`` submits a :class:`~repro.experiments.SweepSpec` JSON
  body and returns the sweep id (the spec fingerprint);
* ``GET /sweeps/{id}`` reports manifest-backed status including per-job
  failures; ``GET /sweeps/{id}/records`` serves the settled records as
  JSON or CSV, byte-identical to ``run_sweep`` output;
* ``GET /sweeps/{id}/events`` streams per-job settle events (SSE);
* ``GET /metrics`` exposes process-wide telemetry: jobs settled,
  events/s, queue depth, cache hit rate, uptime.

Every tenant shares one cache and one single-writer job queue
(:mod:`~repro.service.scheduler`), so concurrent identical submissions
dedupe to one computation — a sweep requested twice is computed once.

The whole stack is standard library only (:mod:`asyncio` +
:mod:`~repro.service.httpd`); the ``[service]`` packaging extra is
reserved for optional accelerators and installs nothing today.
"""

from .app import SweepService
from .client import ServiceClient, ServiceError
from .scheduler import JobScheduler
from .telemetry import Telemetry

__all__ = [
    "SweepService",
    "ServiceClient",
    "ServiceError",
    "JobScheduler",
    "Telemetry",
]
