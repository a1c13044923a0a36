"""Span wrappers around the public calls into each layer (traced runs only).

``install()`` replaces a few public callables with versions that record
a ``repro.obs`` span around the original.  The spans land in whatever
collector is active: the harness's own session on the parent path, or
the session each scheduler worker opens when its parent traces, which
ships them home with the task's result.  Install before the scheduler
forks its workers, so the workers inherit the wrappers.

The span's category is the layer it is charged to (see ``ledger.py``).
Nothing under ``src/`` changes; an untraced run never calls this.

``repro.obs`` puts every span of a process on the ``main`` track.  The
daemon runs concurrent jobs on threads, so ``install()`` also moves the
spans recorded on any other thread than the main one to a track of
their own, ``main/<thread name>``, where they nest.
"""

from __future__ import annotations

import dataclasses
import functools
import threading


def _spanned(fn, name: str, layer: str):
    from repro import obs

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name, cat=layer):
            return fn(*args, **kwargs)

    return wrapper


def _patch(owner, attr: str, name: str, layer: str) -> None:
    setattr(owner, attr, _spanned(getattr(owner, attr), name, layer))


def _track_per_thread() -> None:
    from repro.obs.collector import Collector

    span = Collector.span

    def threaded_span(self, name, cat="app", tid="main", **args):
        thread = threading.current_thread()
        if tid == "main" and thread is not threading.main_thread():
            tid = f"main/{thread.name}"
        return span(self, name, cat, tid, **args)

    Collector.span = threaded_span


def install() -> None:
    from repro import bpf_jit, certikos, komodo
    from repro.bpf_jit import checker, rv_jit, x86_jit
    from repro.certikos import verify as certikos_verify
    from repro.core import runner, scheduler, spec, store
    from repro.komodo import verify as komodo_verify
    from repro.smt import solver

    _track_per_thread()

    # Refinement.prove calls four user-supplied functions; the
    # implementation step is symbolic evaluation of the binary, the
    # other three evaluate the specification side.
    prove = _spanned(spec.Refinement.prove, "prove", "core.spec")

    def traced_prove(self, *args, **kwargs):
        traced = dataclasses.replace(
            self,
            impl_step=_spanned(self.impl_step, "impl_step", "core.engine"),
            spec_step=_spanned(self.spec_step, "spec_step", "core.spec"),
            abstract=_spanned(self.abstract, "abstract", "core.spec"),
            rep_invariant=_spanned(self.rep_invariant, "rep_invariant", "core.spec"),
        )
        return prove(traced, *args, **kwargs)

    spec.Refinement.prove = traced_prove

    for verifier in (certikos.CertikosVerifier, komodo.KomodoVerifier):
        _patch(verifier, "prove_op", "prove_op", "verifier")
    for module in (certikos_verify, komodo_verify):
        _patch(module, "build_image", "build_image", "cc")
    _patch(runner, "obligations_from_context", "package", "core.runner")
    # A worker rebuilds each obligation's term DAG and opens the store
    # before solving it.
    _patch(runner, "deserialize_terms", "deserialize", "smt.terms")
    _patch(store, "open_store", "open", "core.store")
    _patch(scheduler.ObligationScheduler, "run", "wait", "core.scheduler")
    _patch(scheduler.ObligationScheduler, "map", "wait", "core.scheduler")
    _patch(solver.Solver, "check", "check", "smt.solver")
    _patch(solver.SolverCache, "store", "write", "core.store")
    _patch(solver.SolverCache, "store_certificate", "write_cert", "core.store")
    # The JIT checker: the lifted machine interpreters run the JIT's
    # output; the BPF interpreter is the specification side (section 7).
    _patch(checker, "run_interpreter", "run_interpreter", "core.engine")
    _patch(checker, "run_insns", "run_insns", "x86")
    _patch(checker, "run_insn", "run_insn", "bpf")
    _patch(checker, "sweep", "sweep", "bpf_jit")
    _patch(bpf_jit, "check_rv_insn", "check", "bpf_jit")
    _patch(bpf_jit, "check_x86_insn", "check", "bpf_jit")
    _patch(rv_jit.RvJit, "emit_insn", "emit_insn", "bpf_jit.emit")
    _patch(x86_jit.X86Jit, "emit_insn", "emit_insn", "bpf_jit.emit")
