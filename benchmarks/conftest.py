"""Benchmark-suite configuration.

Every module here reproduces one table row or figure of the paper.
Simulations are deterministic and heavy, so benchmarks run with
``pedantic(rounds=1)`` semantics by default — we measure one honest
end-to-end execution and print the reproduced rows next to the timing.  Run with::

    pytest benchmarks/ --benchmark-only
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner
