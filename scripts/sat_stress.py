#!/usr/bin/env python3
"""SAT stress gate: corpus answers, shared-vs-reset sessions, and certificates.

Usage: sat_stress.py [--corpus-only]

Six layers of checking, mirroring the ``sat-stress`` CI job:

  * **DIMACS corpus** (``tests/data/*.cnf``): every instance is solved
    by the arena solver with chronological backtracking on and off;
    both verdicts must match the instance's ``c expect`` header, and
    every SAT model is checked against the clauses.
  * **Session and dispatch modes**: a small verification grid runs
    at ``jobs=1`` on one shared incremental session, then with the
    session reset before every obligation (which behaves exactly like a
    fresh solver), then on the scheduler's two-worker pool.  The
    per-obligation verdict lists must be identical, and the shared run
    must answer at least one obligation from the session's verdict memo
    (the grid repeats three goal shapes over fresh variables).  Then a
    failure batch (a malformed payload and two goals that time out)
    runs at ``jobs=1`` and ``jobs=2``: each obligation's status,
    ``worker_error`` and ``timed_out``, and the run's retries and
    timeouts, must be equal.  So must the verdicts of a batch whose
    task messages each outgrow a 64 KiB pipe buffer.  Last, one idle
    worker of the two-worker pool is killed (SIGKILL) between two
    batches: the pool must replace it, and the second batch must get
    the ``jobs=1`` verdicts.
  * **JIT verdict memo**: a seeded battery of register-redrawn BPF
    instructions over both fixed JITs, plus the 15 bug witnesses (each
    also moved to other registers) on their buggy JITs, runs on one
    shared session and again with the session reset before every
    check.  Verdicts must be identical, every witness must be a
    violation with a counterexample, and the memo hits are printed.
  * **Certificates**: the grid runs cache-backed once, and the
    independent checker audits the store in a child process
    (``python -m repro.smt.checkproof --store --require-certs``).
  * **Store sharing across jobs**: with the two-worker pool forked
    first, CertiKOS ``get_quota`` and Komodo ``map_secure`` at O0 are
    proved at ``jobs=1`` into a fresh store, then again at ``jobs=2``
    against it.  Every obligation must be a store hit (an obligation has
    one digest in every process), and the store is audited as above.
  * **Long pole**: CertiKOS ``invalid`` at O1 is proved on two workers
    into a fresh store, which is audited the same way.  Its
    ``AF lock-step refinement`` obligation must split into one piece
    obligation per distinct conjunct, every piece must be proved, and
    the whole entry must carry a ``split`` certificate naming a piece
    per conjunct, so the audit covers split certificates.  The pole's
    conjunct and piece counts and the proof's propagations are printed.

Exits nonzero on any disagreement.
"""

import argparse
import glob
import os
import pickle
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))


def load_dimacs(path):
    """Parse a DIMACS file -> (num_vars, clauses, expected verdict)."""
    num_vars, clauses, expect = 0, [], None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("c expect"):
                expect = line.split()[2]
            elif line.startswith("c") or not line:
                continue
            elif line.startswith("p cnf"):
                num_vars = int(line.split()[2])
            else:
                lits = [int(tok) for tok in line.split()]
                assert lits[-1] == 0, f"{path}: clause not 0-terminated"
                clauses.append(lits[:-1])
    return num_vars, clauses, expect


def check_corpus() -> int:
    from repro.smt.sat import SAT, ArenaSolver, UNSAT

    paths = sorted(glob.glob(os.path.join(REPO, "tests", "data", "*.cnf")))
    if not paths:
        print("FAIL: no .cnf files under tests/data/", file=sys.stderr)
        return 1

    def _no_chrono():
        solver = ArenaSolver()
        solver.chrono_threshold = None
        return solver

    variants = [("arena", ArenaSolver), ("arena-nochrono", _no_chrono)]
    failures = 0
    for path in paths:
        name = os.path.basename(path)
        num_vars, clauses, expect = load_dimacs(path)
        if expect is None:
            print(f"FAIL: {name}: no 'c expect' header", file=sys.stderr)
            failures += 1
            continue
        verdicts = {}
        for label, make in variants:
            solver = make()
            solver.ensure_vars(num_vars)
            ok = True
            for clause in clauses:
                ok = solver.add_clause(list(clause)) and ok
            result = solver.solve() if ok else UNSAT
            verdicts[label] = result
            if result == SAT:
                for clause in clauses:
                    if not any(solver.value(lit) for lit in clause):
                        print(
                            f"FAIL: {name} [{label}]: model falsifies clause {clause}",
                            file=sys.stderr,
                        )
                        failures += 1
        expected_ok = all(v == expect for v in verdicts.values())
        print(f"{'ok' if expected_ok else 'FAIL'}: {name:24s} {verdicts}")
        if not expected_ok:
            print(f"FAIL: {name}: expected {expect}, got {verdicts}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def stress_goals(prefix: str, count: int = 10):
    """``(name, goal)`` pairs: valid identities plus invalid goals."""
    from repro.smt import bv_sort, fresh_var, mk_bv, mk_bvand, mk_bvmul, mk_bvxor, mk_eq, mk_ule

    goals = []
    for i in range(count):
        x = fresh_var(f"{prefix}x", bv_sort(8))
        y = fresh_var(f"{prefix}y", bv_sort(8))
        if i % 4 == 3:
            goal = mk_eq(mk_bvmul(x, y), mk_bv(91, 8))  # not valid
        elif i % 2:
            goal = mk_ule(mk_bvand(x, mk_bv(0x3F, 8)), mk_bv(0x3F, 8))
        else:
            goal = mk_eq(mk_bvxor(mk_bvxor(x, y), y), mk_bvand(x, mk_bv(0xFF, 8)))
        goals.append((f"{prefix}{i}", goal))
    return goals


def stress_grid(prefix: str):
    """A small obligation grid: one obligation per stress goal."""
    from repro.core.runner import Obligation

    return [Obligation.from_terms(name, [goal]) for name, goal in stress_goals(prefix)]


def failure_batch(prefix: str):
    """A payload the worker cannot rebuild (sort tag ``zz``), then two
    goals the SAT core cannot decide before its first deadline check:
    16-bit factors greater than 1 of a 32-bit prime (UNSAT, after
    thousands of conflicts)."""
    from repro.core.runner import Obligation
    from repro.smt import bv_sort, fresh_var, mk_and, mk_bv, mk_bvmul, mk_eq, mk_not, mk_ult, mk_zext

    malformed = {"nodes": [["var", "zz", [], "y"], ["not", "b", [0], None]], "roots": [1]}
    obligations = [Obligation.from_json({"name": f"{prefix}malformed", "payload": malformed})]
    x = fresh_var(f"{prefix}x", bv_sort(16))
    y = fresh_var(f"{prefix}y", bv_sort(16))
    one = mk_bv(1, 16)
    for prime in (1_000_000_007, 1_000_000_009):
        product = mk_eq(mk_bvmul(mk_zext(x, 16), mk_zext(y, 16)), mk_bv(prime, 32))
        goal = mk_not(mk_and(product, mk_ult(one, x), mk_ult(one, y)))
        obligations.append(Obligation.from_terms(f"{prefix}hard{prime}", [goal]))
    return obligations


def failure_reduction(jobs: int):
    """The failure batch at ``jobs`` under a 1 ms timeout and one retry:
    each obligation's (status, worker_error, timed_out), and the run's
    retries and timeouts."""
    from repro.core.runner import run_obligations

    results, stats = run_obligations(failure_batch("fail"), jobs=jobs, timeout_s=0.001, retries=1)
    reduced = [(r.status, r.stats.get("worker_error"), bool(r.stats.get("timed_out"))) for r in results]
    return reduced, stats.retries, stats.timeouts


def big_batch(prefix: str):
    """Four stress goals under 1,000 shared assumptions over fresh
    variables (each valid, ``y & 0x0F <= 0x0F``), so every obligation's
    task message outgrows a 64 KiB pipe buffer."""
    from repro.core.runner import Obligation
    from repro.smt import bv_sort, fresh_var, mk_bv, mk_bvand, mk_ule

    assumptions = []
    for i in range(1000):
        y = fresh_var(f"{prefix}y{i}", bv_sort(8))
        assumptions.append(mk_ule(mk_bvand(y, mk_bv(0x0F, 8)), mk_bv(0x0F, 8)))
    return Obligation.sharing_assumptions(
        ((name, [goal]) for name, goal in stress_goals(prefix, 4)), assumptions
    )


def dead_worker_verdicts(batch):
    """SIGKILL idle worker 0 of the two-worker pool, wait until the pool
    replaces it, then run ``batch``: ``(workers replaced, verdicts)``,
    None for an obligation still unanswered after 120 s."""
    import signal
    import time

    from repro.core.scheduler import get_scheduler

    pool = get_scheduler(2)
    restarts = pool.worker_restarts
    os.kill(pool._workers[0].process.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while pool.worker_restarts == restarts and time.monotonic() < deadline:
        time.sleep(0.01)
    results = pool.submit_obligations(batch).wait(timeout=120.0)
    return pool.worker_restarts - restarts, [r.status if r is not None else None for r in results]


def check_modes() -> int:
    from repro import obs
    from repro.core.runner import run_obligations
    from repro.core.scheduler import shutdown_scheduler
    from repro.smt.solver import reset_incremental_session

    obligations = stress_grid("stress")

    def statuses(results):
        return [r.status for r in results]

    verdicts = {}
    reset_incremental_session()
    with obs.tracing() as col:
        verdicts["shared"] = statuses(run_obligations(obligations, jobs=1)[0])
    memo_hits = col.counters.get("solver.memo.hits", 0)
    print(f"shared session: {memo_hits}/{len(obligations)} obligations answered from the memo")
    if not memo_hits:
        print("FAIL: the shared session never hit its verdict memo", file=sys.stderr)
        return 1
    verdicts["reset"] = []
    for ob in obligations:
        reset_incremental_session()
        verdicts["reset"] += statuses(run_obligations([ob], jobs=1)[0])
    big = big_batch("big")
    try:
        verdicts["jobs=2"] = statuses(run_obligations(obligations, jobs=2)[0])
        failures = {jobs: failure_reduction(jobs) for jobs in (1, 2)}
        bigs = {jobs: statuses(run_obligations(big, jobs=jobs)[0]) for jobs in (1, 2)}
        replaced, after_kill = dead_worker_verdicts(stress_grid("after"))
    finally:
        shutdown_scheduler()
    for mode, got in verdicts.items():
        print(f"{mode:8s} {got}")
    if any(got != verdicts["shared"] for got in verdicts.values()):
        print(f"FAIL: verdicts differ across modes: {verdicts}", file=sys.stderr)
        return 1
    for jobs, (reduced, retries, timeouts) in failures.items():
        print(f"failures jobs={jobs}: {[r[0] for r in reduced]}, retries {retries}, timeouts {timeouts}")
    if failures[1] != failures[2]:
        print(f"FAIL: the failure batch reduces differently across jobs: {failures}", file=sys.stderr)
        return 1
    smallest = min(len(pickle.dumps(ob)) for ob in big)  # a task message holds one
    print(f"big messages ({smallest} B or more each): jobs=1 {bigs[1]}, jobs=2 {bigs[2]}")
    if smallest <= 65536 or bigs[1] != bigs[2]:
        print(f"FAIL: a batch of big task messages reduces differently across jobs: {bigs}", file=sys.stderr)
        return 1
    print(f"dead worker: {replaced} replaced, next batch {after_kill}")
    if replaced != 1 or after_kill != verdicts["shared"]:
        print("FAIL: after an idle worker died the pool did not give the jobs=1 verdicts", file=sys.stderr)
        return 1
    print("mode agreement holds")
    return 0


def jit_memo_battery(seed: int = 14, size: int = 120):
    """``size`` fixed-JIT checks, two RISC-V to one x86-32: templates from
    each JIT's test battery with their registers redrawn, so many checks
    are alpha-equivalent to an earlier one."""
    import dataclasses
    import random

    from repro.bpf_jit import (
        RvJit,
        X86Jit,
        check_rv_insn,
        check_x86_insn,
        rv_alu_test_insns,
        x86_alu_test_insns,
    )

    rng = random.Random(seed)
    regs = range(10)  # every register the JITs map but the frame pointer
    battery = []
    for check, jit, templates, n in (
        (check_rv_insn, RvJit(), rv_alu_test_insns(), size * 2 // 3),
        (check_x86_insn, X86Jit(), x86_alu_test_insns(), size - size * 2 // 3),
    ):
        for insn in rng.choices(templates, k=n):
            fields = {"dst": rng.choice(regs)}
            if insn.src_is_reg:
                fields["src"] = rng.choice(regs)
            battery.append((check, jit, dataclasses.replace(insn, **fields)))
    return battery


def jit_witnesses():
    """The 15 bug witnesses on their buggy JITs, each followed by the
    same instruction moved to r4 (and r6 for a register source)."""
    import dataclasses

    from repro.bpf_jit import RV_BUGS, X86_BUGS, RvJit, X86Jit, check_rv_insn, check_x86_insn

    checks = []
    targets = ((RV_BUGS, check_rv_insn, RvJit), (X86_BUGS, check_x86_insn, X86Jit))
    for bugs, check, make_jit in targets:
        for bug in bugs:
            jit = make_jit(bugs={bug.id})
            fields = {"dst": 4, "src": 6} if bug.witness.src_is_reg else {"dst": 4}
            checks.append((check, jit, bug.witness))
            checks.append((check, jit, dataclasses.replace(bug.witness, **fields)))
    return checks


def check_jit_memo() -> int:
    """The JIT battery and witnesses on one shared session, then with the
    session reset before every check: identical verdicts, and every
    witness a violation with a counterexample."""
    from repro import obs
    from repro.smt.solver import reset_incremental_session

    battery = jit_memo_battery()
    witnesses = jit_witnesses()

    def verdict(check, jit, insn):
        result = check(insn, jit)
        if result.ok:
            return "ok"
        return "violation" if result.counterexample is not None else "unknown"

    reset_incremental_session()
    with obs.tracing() as col:
        shared = [verdict(*item) for item in battery + witnesses]
    fresh = []
    for item in battery + witnesses:
        reset_incremental_session()
        fresh.append(verdict(*item))
    counters = col.counters
    solved = counters.get("solver.queries", 0) - counters.get("solver.trivial", 0)
    print(
        f"jit memo: {len(battery)} battery checks + {len(witnesses)} witness checks, "
        f"{counters.get('solver.memo.hits', 0)}/{solved} non-trivial checks answered from the memo"
    )
    failures = 0
    if shared != fresh:
        diff = [i for i, (a, b) in enumerate(zip(shared, fresh)) if a != b]
        print(f"FAIL: shared and reset sessions disagree at checks {diff}", file=sys.stderr)
        failures += 1
    if shared[: len(battery)] != ["ok"] * len(battery):
        print("FAIL: a fixed-JIT check is not ok", file=sys.stderr)
        failures += 1
    for mode, got in (("shared", shared), ("reset", fresh)):
        if got[len(battery):] != ["violation"] * len(witnesses):
            print(f"FAIL: a witness lacks a counterexample ({mode} session)", file=sys.stderr)
            failures += 1
    if failures:
        return 1
    print("jit memo agreement holds")
    return 0


def check_certificates() -> int:
    """Run the stress grid cache-backed, then audit every stored verdict
    with the independent proof checker.

    The audit runs ``python -m repro.smt.checkproof --store`` in a child
    process, exactly as a third party would — nothing from this
    process's solver state can leak into the check.
    """
    from repro.core.runner import run_obligations

    with tempfile.TemporaryDirectory(prefix="stress_certs_") as store:
        run_obligations(stress_grid("cert"), jobs=1, cache_dir=store)
        rc = audit_store(store)
        if rc != 0:
            print(f"FAIL: checkproof audit exited {rc}", file=sys.stderr)
            return 1
    print("certificate audit holds")
    return 0


def audit_store(store: str) -> int:
    """``checkproof --store --require-certs`` in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.smt.checkproof", "--store", store, "--require-certs"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return proc.returncode


def check_store_sharing() -> int:
    """Prove CertiKOS ``get_quota`` and Komodo ``map_secure`` at O0 at
    ``jobs=1`` into a fresh store, then at ``jobs=2`` against it: every
    obligation of the second pass must be a store hit, and the store
    must pass the audit.  The pool is forked before either pass builds
    a term, so its workers intern the obligations' terms in their own
    order, as they do for any proof that starts after the pool."""
    from repro.certikos import CertikosVerifier
    from repro.core.scheduler import get_scheduler, shutdown_scheduler
    from repro.komodo import KomodoVerifier

    proofs = ((CertikosVerifier, "get_quota"), (KomodoVerifier, "map_secure"))
    with tempfile.TemporaryDirectory(prefix="stress_share_") as store:
        try:
            get_scheduler(2).map(abs, [-1, -2])
            for jobs in (1, 2):
                hits = obligations = 0
                for verifier, op in proofs:
                    result = verifier(opt=0, jobs=jobs, cache_dir=store).prove_op(op)
                    if not result.proved:
                        print(f"FAIL: {op}.O0 not proved at jobs={jobs}", file=sys.stderr)
                        return 1
                    obligations += result.stats["obligations"]
                    hits += result.stats["cache_hits"]
        finally:
            shutdown_scheduler()
        print(f"store sharing: jobs=2 found {hits}/{obligations} obligations in the jobs=1 store")
        if hits != obligations:
            print("FAIL: an obligation has another digest at jobs=2", file=sys.stderr)
            return 1
        rc = audit_store(store)
        if rc != 0:
            print(f"FAIL: checkproof audit of the shared store exited {rc}", file=sys.stderr)
            return 1
    print("store sharing holds")
    return 0


def check_longpole() -> int:
    """Prove CertiKOS ``invalid`` at O1 on two workers into a fresh store
    and audit it: the long-pole refinement obligation runs as one piece
    obligation per distinct conjunct, every piece is proved, and its
    whole entry carries a ``split`` certificate."""
    from repro import obs
    from repro.certikos import CertikosVerifier
    from repro.core.scheduler import shutdown_scheduler
    from repro.core.store import VerdictStore

    with tempfile.TemporaryDirectory(prefix="stress_pole_") as store:
        try:
            with obs.tracing() as col:
                result = CertikosVerifier(opt=1, jobs=2, cache_dir=store).prove_op("invalid")
        finally:
            shutdown_scheduler()
        if not result.proved:
            print("FAIL: certikos.invalid.O1 not proved", file=sys.stderr)
            return 1
        tasks = [e for e in col.spans if e.cat == "scheduler"]
        poles = [e.name for e in tasks if e.name.endswith("AF lock-step refinement")]
        pieces = [e for e in tasks for pole in poles if e.name.startswith(f"{pole} / piece ")]
        verdicts = VerdictStore(store)
        certs = [verdicts.load_certificate(digest) for digest in verdicts.digests()]
        splits = [c for c in certs if c is not None and c.get("kind") == "split"]
        pole_cert = max(splits, key=lambda c: len(c["pieces"]), default=None)
        if len(poles) != 1 or not pieces or pole_cert is None:
            print(
                f"FAIL: the pole did not split ({len(poles)} AF lock-step obligations, "
                f"{len(pieces)} piece tasks, {len(splits)} split certificates)",
                file=sys.stderr,
            )
            return 1
        conjuncts, distinct = len(pole_cert["pieces"]), len(set(pole_cert["pieces"]))
        unproved = [e.name for e in pieces if (e.args or {}).get("status") != "proved"]
        print(
            f"pole: {conjuncts} conjuncts, {distinct} distinct pieces, "
            f"{len(pieces) - len(unproved)}/{len(pieces)} piece tasks proved, "
            f"{col.counters.get('sat.propagations', 0)} propagations in the proof"
        )
        if unproved or len(pieces) != distinct:
            print(f"FAIL: pole pieces not all proved once: {unproved}", file=sys.stderr)
            return 1
        if verdicts.lookup(pole_cert["digest"], {}) is None:
            print("FAIL: the pole's split certificate has no entry", file=sys.stderr)
            return 1
        rc = audit_store(store)
        if rc != 0:
            print(f"FAIL: checkproof audit of the pole store exited {rc}", file=sys.stderr)
            return 1
    print("long-pole audit holds")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus-only", action="store_true")
    args = parser.parse_args()

    rc = check_corpus()
    if not args.corpus_only:
        rc = check_modes() or rc
        rc = check_jit_memo() or rc
        rc = check_certificates() or rc
        rc = check_store_sharing() or rc
        rc = check_longpole() or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
