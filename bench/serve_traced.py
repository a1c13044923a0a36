"""The verification daemon with the benchmark's span wrappers installed.

Traced ``serve-warm`` runs start this instead of ``python -m repro.serve``.
It serves exactly as the shipped entry point does (same server class,
same defaults, obs on), and on SIGTERM writes the daemon's collector
snapshot (spans, counters, histograms) to ``--dump`` as JSON.

    python3 bench/serve_traced.py --store DIR --dump FILE
"""

from __future__ import annotations

import argparse
import json
import signal
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--dump", required=True)
    args = parser.parse_args(argv)

    import layers
    from repro import obs
    from repro.serve import VerificationServer

    layers.install()
    server = VerificationServer(port=0, store_dir=args.store)
    collector = obs.get_collector()
    print(f"serving on {server.url}", flush=True)

    def _shutdown(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _shutdown)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        with open(args.dump, "w") as handle:
            json.dump(collector.snapshot(), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
