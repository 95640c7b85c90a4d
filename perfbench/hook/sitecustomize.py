"""Installs the benchmark's hooks in a worker daemon.

A benchmark run puts this directory on ``PYTHONPATH`` and exports the
shared-memory ledger path (and, in a traced run, ``PERFBENCH_TRACE_DIR``),
so Python imports this module at start-up, before the daemon imports the
program.  The task children the daemon forks inherit the hooks.
"""

import os
import sys

if os.environ.get("PERFBENCH_SHM_LEDGER"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
    import procs

    procs.install_shm_ledger(os.environ["PERFBENCH_SHM_LEDGER"])

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
    import tracing

    _TRACER = tracing.install(os.environ["PERFBENCH_TRACE_DIR"], driver=False)
