"""``repro.serve`` — verification as a service.

The daemon that turns the single-shot CLI into a long-lived service:
an HTTP/JSON job API (submit a named verifier grid or a batch of
serialized proof obligations, poll status, stream verdicts as they
land, cancel) over the process-wide obligation scheduler and one
shared content-addressed verdict store, so any number of concurrent
clients hit the same warm cache.  Stdlib only — ``http.server`` on
the wire, ``urllib`` in the client.

Start it::

    python -m repro.serve --port 8631 --store .solvercache

Talk to it::

    curl -s -X POST localhost:8631/jobs \
        -d '{"kind": "grid", "grid": "fig11-quick"}'
    curl -s localhost:8631/jobs/<id>/verdicts?since=0&wait_s=10

See ``docs/ARCHITECTURE.md`` (Serving layer) for the job lifecycle and
the endpoint table, and ``scripts/load_serve.py`` for the CI load/soak
driver.
"""

from .app import ApiError, VerificationServer
from .client import ServeClient, ServeError
from .grids import GRIDS, grid_ops, run_grid
from .jobs import Job, JobRegistry

__all__ = [
    "ApiError",
    "GRIDS",
    "Job",
    "JobRegistry",
    "ServeClient",
    "ServeError",
    "VerificationServer",
    "grid_ops",
    "run_grid",
]
