"""A dist worker agent with the layer wrappers installed.

``python -m perfbench.traced_worker worker --connect HOST:PORT ...``
takes the arguments of ``python -m repro.dist``.  Jobs run in the
agent's forked pool children, which inherit the wrappers; after each
job the child writes its spans to ``$PERFBENCH_TRACE_DIR``.
"""

import itertools
import os
import sys
from pathlib import Path

from perfbench import layers
from perfbench.trace import Tracer, chunk_path

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


def main() -> int:
    out = Path(os.environ[TRACE_DIR_ENV])
    tracer = Tracer()
    layers.install(tracer)
    jobs = itertools.count(1)

    import repro.scenarios.runner as runner_mod

    job = tracer.wrap(runner_mod._run_record, layers.JOB_SPAN)

    def run_record(indexed):
        """The job function, traced; its spans are written out after."""
        try:
            return job(indexed)
        finally:
            tracer.take().dump(chunk_path(out, tracer.run))
            tracer.run = next(jobs)

    # Workers resolve the job function by name when they unpickle a job.
    runner_mod._run_record = run_record
    from repro.dist.cli import main as dist_main

    return dist_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
