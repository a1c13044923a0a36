#!/usr/bin/env python3
"""Fingerprint the monitor binaries and the Figure 11 obligations.

Usage: obligation_fingerprint.py

A change meant to keep the verified program and its queries the same
(a refactor of the monitors, the compiler or the symbolic layer) must
leave every line this prints unchanged:

  * ``image`` lines: per monitor and optimization level (O0-O2), a
    sha256 of the assembled image (its words, symbols and entry) and
    the boot address;
  * the ``obligations`` line: the number of obligations the
    ``fig11-full`` grid packages at O0-O2, and one sha256 over the name
    and payload of each, in the order they are packaged.

Nothing is solved: ``repro.core.runner.run_obligations`` is replaced by
a stub that records each obligation and reports it proved, so the run
costs symbolic evaluation and packaging only (a few seconds).  Run it
at the parent commit and at the change, and diff the two outputs.
"""

import dataclasses
import hashlib
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

OPTS = (0, 1, 2)
MONITORS = ("certikos", "komodo")


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def main() -> int:
    from repro.core import runner
    from repro.serve.grids import GRIDS, verifier_class

    verifiers = {(m, opt): verifier_class(m)(opt=opt) for opt in OPTS for m in MONITORS}
    for (monitor, opt), verifier in sorted(verifiers.items()):
        image = verifier.image
        doc = {
            "words": sorted(image.words.items()),
            "symbols": [dataclasses.astuple(sym) for sym in image.symbols],
            "entry": image.entry,
        }
        print(f"image {monitor} O{opt} sha256={_sha256(doc)} boot={verifier.boot_address():#x}")

    packaged = []

    def record(obligations, **_options):
        packaged.extend(obligations)
        results = [runner.ObligationResult(ob.name, runner.PROVED) for ob in obligations]
        return results, runner.RunnerStats(obligations=len(obligations))

    runner.run_obligations = record
    for opt in OPTS:
        for monitor, op in GRIDS["fig11-full"]:
            if not verifiers[monitor, opt].prove_op(op).proved:
                print(f"FAIL: {monitor}.{op}.O{opt} did not package", file=sys.stderr)
                return 1
    digest = hashlib.sha256()
    for ob in packaged:
        digest.update(json.dumps([ob.name, ob.payload], sort_keys=True).encode())
    print(f"obligations fig11-full O0-O2 count={len(packaged)} sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
