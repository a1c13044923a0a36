#!/usr/bin/env python3
"""Fingerprint the monitor binaries, the Figure 11 obligations and the
spec-level invariant proofs.

Usage: obligation_fingerprint.py

A change meant to keep the verified program and its queries the same
(a refactor of the monitors, their specs, the compiler or the symbolic
layer) must leave every line this prints unchanged:

  * ``image`` lines: per monitor and optimization level (O0-O2), a
    sha256 of the assembled image (its words, symbols and entry) and
    the boot address;
  * the ``obligations`` line: the number of obligations the
    ``fig11-full`` grid packages at O0-O2, and one sha256 over the name
    and payload of each, in the order they are packaged;
  * the ``spec`` line: the same over the obligations that each spec
    call of CertiKOS^s, Komodo^s and Keystone preserves its
    ``state_invariant`` (``repro.core.prove_invariant_step``), which no
    grid proof packages.

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
# Keystone's spec calls and how many arguments each takes.
KEYSTONE_CALLS = {"create": 3, "run": 1, "stop": 1, "destroy": 1, "exit": 0}


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _digest(obligations) -> str:
    digest = hashlib.sha256()
    for ob in obligations:
        digest.update(json.dumps([ob.name, ob.payload], sort_keys=True).encode())
    return digest.hexdigest()


def _spec_calls():
    """Each spec call as ``(name, state type, invariant, step)``, the
    call's arguments fresh (every spec here has 32-bit words)."""
    from repro import certikos, keystone, komodo
    from repro.serve.grids import verifier_class
    from repro.sym import fresh_bv

    for monitor, package, state in (
        ("certikos", certikos, certikos.CertiState),
        ("komodo", komodo, komodo.KomodoState),
    ):
        for op, (_, spec) in verifier_class(monitor).OPERATIONS.items():
            args = [fresh_bv(f"{monitor}.{op}.a{i}", 32) for i in range(3)]
            yield f"{monitor}.{op}", state, package.state_invariant, (
                lambda s, spec=spec, args=args: spec(s, *args)
            )
    for op, arity in KEYSTONE_CALLS.items():
        spec = getattr(keystone, f"spec_{op}")
        args = [fresh_bv(f"keystone.{op}.a{i}", 32) for i in range(arity)]
        yield f"keystone.{op}", keystone.KeystoneState, keystone.state_invariant, (
            lambda s, spec=spec, args=args: spec(s, *args)
        )


def main() -> int:
    from repro.core import prove_invariant_step, runner
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
    print(f"obligations fig11-full O0-O2 count={len(packaged)} sha256={_digest(packaged)}")

    packaged.clear()
    for name, state, invariant, step in _spec_calls():
        prove_invariant_step(name, invariant, step, state)
    print(f"spec invariants count={len(packaged)} sha256={_digest(packaged)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
