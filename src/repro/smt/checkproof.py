"""Standalone proof-certificate checker — the trust anchor for shared
verdict stores.

``python -m repro.smt.checkproof cert.json [...]`` verifies individual
certificates; ``python -m repro.smt.checkproof --store DIR`` audits an
entire verdict store (every ``<digest>.json`` entry, flat or sharded
layout, with its ``<digest>.cert.json[.gz]`` sibling).

This module is deliberately self-contained: it imports **nothing** from
the solver stack (``repro.smt.sat``, ``repro.smt.solver``,
``repro.smt.terms``, ...), only the standard library.  A certificate
produced by a machine you do not control is checked by code that shares
no line with the code that produced it; the wire format is the contract
(docs/CERTIFICATES.md) and this file plus the format spec are the whole
trusted base.  Four mirrors of solver-side logic therefore live here
on purpose and must stay in semantic lockstep with their originals:

  * :func:`canonical_digest` mirrors ``terms.canonicalize_nodes`` (the
    alpha-blind query digest — the binding between a certificate and
    its store entry);
  * :func:`eval_nodes` mirrors ``evaluator.eval_term`` over the
    serialized ``[op, sort_tag, arg_idxs, payload]`` node schema
    (model replay for ``sat`` verdicts);
  * :class:`_Propagator` implements reverse unit propagation (clause
    proof checking for ``unsat`` verdicts: every proof line must be a
    RUP consequence of the clauses before it, and the assumptions must
    propagate to a conflict at the end);
  * :func:`piece_nodes` mirrors ``core.runner.piece_nodes`` (the query
    ``R ∧ ¬ci`` a ``split`` certificate's pieces must be, conjunct by
    conjunct).

Exit codes: 0 all certificates valid, 1 any invalid (including a
tampered digest), 2 usage/IO errors.  Missing certificates are
tolerated in ``--store`` mode (legacy cert-less entries are a supported
state) unless ``--require-certs`` is given.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import re
import sys

CERT_FORMAT = "repro-cert"
CERT_VERSION = 1

_DIGEST_RE = re.compile(r"^[0-9a-f]{16,64}$")

_COMMUTATIVE = frozenset(
    {"and", "or", "xor", "eq", "distinct", "bvadd", "bvmul", "bvand", "bvor", "bvxor"}
)


class CheckFailure(Exception):
    """A certificate failed verification (reason in ``str()``)."""


# ---------------------------------------------------------------------------
# Canonical digest (mirror of repro.smt.terms.canonicalize_nodes)


def canonical_digest(data: dict) -> str:
    """Alpha-blind canonical digest of a serialized query node list."""
    nodes = data["nodes"]

    shape: list[str] = []
    for op, sort_tag, arg_idxs, payload in nodes:
        child = [shape[j] for j in arg_idxs]
        if op in _COMMUTATIVE:
            child = sorted(child)
        tag = "VAR" if op == "var" else repr(payload)
        shape.append(hashlib.sha256(f"{op}|{sort_tag}|{tag}|{child}".encode()).hexdigest())

    def child_order(op: str, arg_idxs: list[int]) -> list[int]:
        if op in _COMMUTATIVE:
            return sorted(arg_idxs, key=lambda j: shape[j])
        return list(arg_idxs)

    var_map: dict[str, str] = {}
    visited: set[int] = set()
    for r in data["roots"]:
        stack = [r]
        while stack:
            i = stack.pop()
            if i in visited:
                continue
            visited.add(i)
            op, _sort_tag, arg_idxs, payload = nodes[i]
            if op == "var":
                name = str(payload)
                if name not in var_map:
                    var_map[name] = f"v{len(var_map)}"
            for j in reversed(child_order(op, arg_idxs)):
                stack.append(j)

    enc: list[str] = []
    for op, sort_tag, arg_idxs, payload in nodes:
        if op == "var":
            tag = var_map[str(payload)]
        else:
            tag = repr(payload)
        child = [enc[j] for j in child_order(op, arg_idxs)]
        enc.append(hashlib.sha256(f"{op}|{sort_tag}|{tag}|{child}".encode()).hexdigest())

    hasher = hashlib.sha256()
    for r in data["roots"]:
        hasher.update(enc[r].encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# Model replay (mirror of repro.smt.evaluator over the node schema)


def _to_signed(value: int, width: int) -> int:
    sign_bit = 1 << (width - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


def _to_unsigned(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def eval_nodes(data: dict, env: dict, funs: dict) -> list:
    """Evaluate every root of a serialized query under a model.

    ``env`` maps variable payload names to ints/bools; ``funs`` maps
    uninterpreted function names to ``{arg_tuple: value}`` tables.
    Variables or applications the model does not pin default to zero —
    the same default the solver-side evaluator uses for unconstrained
    symbols, and conservative here: a wrong default can only make a
    bogus certificate fail, never pass.

    The node list is post-order (arguments precede users), so a single
    forward sweep evaluates the whole DAG.
    """
    nodes = data["nodes"]
    vals: list = [None] * len(nodes)
    for i, (op, sort_tag, arg_idxs, payload) in enumerate(nodes):
        a = [vals[j] for j in arg_idxs]
        width = None if sort_tag == "b" else int(sort_tag)

        if op in ("boolconst", "bvconst"):
            v = payload
        elif op == "var":
            v = env.get(str(payload), 0)
            v = bool(v) if width is None else _to_unsigned(int(v), width)
        elif op == "apply":
            table = funs.get(str(payload), {})
            v = table.get(tuple(int(x) for x in a), 0)
            v = bool(v) if width is None else _to_unsigned(int(v), width)
        elif op == "not":
            v = not a[0]
        elif op == "and":
            v = all(a)
        elif op == "or":
            v = any(a)
        elif op == "xor":
            v = bool(a[0]) != bool(a[1])
        elif op == "ite":
            v = a[1] if a[0] else a[2]
        elif op == "eq":
            v = a[0] == a[1]
        elif op == "bvnot":
            v = _to_unsigned(~a[0], width)
        elif op == "bvneg":
            v = _to_unsigned(-a[0], width)
        elif op == "zext":
            v = a[0]
        elif op == "sext":
            src_w = int(nodes[arg_idxs[0]][1])
            v = _to_unsigned(_to_signed(a[0], src_w), width)
        elif op == "extract":
            hi, lo = payload
            v = (a[0] >> lo) & ((1 << (hi - lo + 1)) - 1)
        elif op == "concat":
            v = (a[0] << int(nodes[arg_idxs[1]][1])) | a[1]
        elif op in ("ult", "ule", "slt", "sle"):
            w = int(nodes[arg_idxs[0]][1])
            x, y = a
            if op[0] == "s":
                x, y = _to_signed(x, w), _to_signed(y, w)
            v = (x < y) if op.endswith("lt") else (x <= y)
        elif op in (
            "bvadd",
            "bvsub",
            "bvmul",
            "bvudiv",
            "bvurem",
            "bvsdiv",
            "bvsrem",
            "bvand",
            "bvor",
            "bvxor",
            "bvshl",
            "bvlshr",
            "bvashr",
        ):
            x, y = a
            if op == "bvadd":
                v = _to_unsigned(x + y, width)
            elif op == "bvsub":
                v = _to_unsigned(x - y, width)
            elif op == "bvmul":
                v = _to_unsigned(x * y, width)
            elif op == "bvudiv":
                v = (1 << width) - 1 if y == 0 else x // y
            elif op == "bvurem":
                v = x if y == 0 else x % y
            elif op == "bvsdiv":
                sx, sy = _to_signed(x, width), _to_signed(y, width)
                if sy == 0:
                    v = (1 << width) - 1 if sx >= 0 else 1
                else:
                    q = abs(sx) // abs(sy)
                    v = _to_unsigned(-q if (sx < 0) != (sy < 0) else q, width)
            elif op == "bvsrem":
                sx, sy = _to_signed(x, width), _to_signed(y, width)
                if sy == 0:
                    v = x
                else:
                    r = abs(sx) % abs(sy)
                    v = _to_unsigned(-r if sx < 0 else r, width)
            elif op == "bvand":
                v = x & y
            elif op == "bvor":
                v = x | y
            elif op == "bvxor":
                v = x ^ y
            elif op == "bvshl":
                v = 0 if y >= width else _to_unsigned(x << y, width)
            elif op == "bvlshr":
                v = 0 if y >= width else x >> y
            else:  # bvashr
                v = _to_unsigned(_to_signed(x, width) >> min(y, width - 1), width)
        else:
            raise CheckFailure(f"query uses unknown operator {op!r}")
        vals[i] = v
    return [vals[r] for r in data["roots"]]


# ---------------------------------------------------------------------------
# RUP clause-proof checking


class _Propagator:
    """Unit propagation over a growable clause database.

    Clauses are appended once (CNF manifest, then each accepted proof
    line); per-query state — the assignment and propagation queue of a
    single RUP check — is transient.  Occurrence lists index clauses by
    literal, so each check touches only clauses containing a literal it
    falsified.
    """

    def __init__(self) -> None:
        self.clauses: list[list[int]] = []
        self.occ: dict[int, list[int]] = {}
        self.units: list[int] = []

    def add(self, clause: list[int]) -> None:
        idx = len(self.clauses)
        self.clauses.append(clause)
        for lit in clause:
            self.occ.setdefault(lit, []).append(idx)
        if len(clause) == 1:
            self.units.append(clause[0])

    def propagates_to_conflict(self, units: list[int]) -> bool:
        """Assert the database's unit clauses plus ``units`` and run
        unit propagation; True on conflict."""
        assign: dict[int, bool] = {}
        queue: list[int] = []
        for lit in self.units + list(units):
            var, val = abs(lit), lit > 0
            prev = assign.get(var)
            if prev is None:
                assign[var] = val
                queue.append(lit)
            elif prev != val:
                return True
        head = 0
        clauses, occ = self.clauses, self.occ
        while head < len(queue):
            lit = queue[head]
            head += 1
            # Clauses containing -lit just lost a literal.
            for ci in occ.get(-lit, ()):  # noqa: B905 - plain iteration
                clause = clauses[ci]
                unassigned = 0
                satisfied = False
                for q in clause:
                    val = assign.get(abs(q))
                    if val is None:
                        if unassigned == 0:
                            unassigned = q
                        else:
                            unassigned = None  # two or more free literals
                            break
                    elif val == (q > 0):
                        satisfied = True
                        break
                if satisfied or unassigned is None:
                    continue
                if unassigned == 0:
                    return True  # every literal false
                var, val = abs(unassigned), unassigned > 0
                prev = assign.get(var)
                if prev is None:
                    assign[var] = val
                    queue.append(unassigned)
                elif prev != val:
                    return True
        return False

    def rup(self, clause: list[int]) -> bool:
        """Is ``clause`` a reverse-unit-propagation consequence?"""
        return self.propagates_to_conflict([-lit for lit in clause])


# ---------------------------------------------------------------------------
# Pieces (mirror of repro.core.runner.piece_nodes)


def goal_conjuncts(query: dict) -> list[int]:
    """Node indices of ``c1..cn`` when the query's last root is
    ``not(and(c1..cn))`` with n >= 2, else empty."""
    nodes = query["nodes"]
    op, _sort_tag, args, _payload = nodes[query["roots"][-1]]
    if op != "not":
        return []
    op, _sort_tag, args, _payload = nodes[args[0]]
    return list(args) if op == "and" and len(args) >= 2 else []


def piece_nodes(query: dict, conjunct: int) -> dict:
    """The piece of ``query`` for the conjunct at node ``conjunct``:
    its nodes plus ``["not", "b", [conjunct], None]``, rooted at the
    other roots and that node, pruned to what the roots reach with the
    stored order kept.  Syntactic by design: building ``¬ci`` with a
    folding constructor would turn ``¬¬x`` into ``x``, and the digest
    breaks ties between commutative operands by stored order, so any
    other construction can hash differently."""
    nodes = list(query["nodes"]) + [["not", "b", [conjunct], None]]
    roots = list(query["roots"][:-1]) + [len(nodes) - 1]
    reached: set[int] = set()
    stack = list(roots)
    while stack:
        i = stack.pop()
        if i not in reached:
            reached.add(i)
            stack.extend(nodes[i][2])
    kept = sorted(reached)
    index = {old: new for new, old in enumerate(kept)}
    return {
        "nodes": [
            [op, sort_tag, [index[j] for j in args], payload]
            for op, sort_tag, args, payload in (nodes[i] for i in kept)
        ],
        "roots": [index[r] for r in roots],
    }


# ---------------------------------------------------------------------------
# Certificate checks


def _check_common(cert: dict) -> None:
    if not isinstance(cert, dict):
        raise CheckFailure("certificate is not a JSON object")
    if cert.get("format") != CERT_FORMAT:
        raise CheckFailure(f"unknown format {cert.get('format')!r}")
    if cert.get("version") != CERT_VERSION:
        raise CheckFailure(f"unsupported version {cert.get('version')!r}")
    query = cert.get("query")
    if not isinstance(query, dict) or "nodes" not in query or "roots" not in query:
        raise CheckFailure("certificate carries no query payload")
    try:
        recomputed = canonical_digest(query)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckFailure(f"malformed query payload: {exc}") from None
    if recomputed != cert.get("digest"):
        raise CheckFailure(
            f"digest binding broken: certificate claims {cert.get('digest')!r}, "
            f"query hashes to {recomputed!r}"
        )


def check_drat(cert: dict) -> dict:
    """Verify an ``unsat`` certificate.  Returns summary counters."""
    _check_common(cert)
    if cert.get("kind") != "drat":
        raise CheckFailure(f"expected kind 'drat', got {cert.get('kind')!r}")
    cnf = cert.get("cnf")
    proof = cert.get("proof")
    assumptions = cert.get("assumptions", [])
    if not isinstance(cnf, list) or not isinstance(proof, list):
        raise CheckFailure("drat certificate needs 'cnf' and 'proof' arrays")

    prop = _Propagator()
    for clause in cnf:
        if not clause or not all(isinstance(q, int) and q != 0 for q in clause):
            raise CheckFailure(f"malformed CNF clause {clause!r}")
        prop.add(list(clause))
    for n, line in enumerate(proof):
        if not all(isinstance(q, int) and q != 0 for q in line):
            raise CheckFailure(f"malformed proof line {n}: {line!r}")
        if not prop.rup(list(line)):
            raise CheckFailure(f"proof line {n} ({line}) is not a RUP consequence")
        prop.add(list(line))
    if not prop.propagates_to_conflict(list(assumptions)):
        raise CheckFailure(
            "final check failed: assumptions + derived clauses do not "
            "propagate to a conflict"
        )
    return {"cnf_clauses": len(cnf), "proof_lines": len(proof)}


def check_model(cert: dict) -> dict:
    """Verify a ``sat`` certificate by replaying the model.  Returns
    summary counters."""
    _check_common(cert)
    if cert.get("kind") != "model":
        raise CheckFailure(f"expected kind 'model', got {cert.get('kind')!r}")
    model = cert.get("model")
    if not isinstance(model, dict):
        raise CheckFailure("model certificate needs a 'model' object")
    funs_raw = cert.get("funs", {})
    funs: dict[str, dict] = {}
    try:
        for name, rows in funs_raw.items():
            funs[name] = {tuple(int(x) for x in args): value for args, value in rows}
    except (TypeError, ValueError) as exc:
        raise CheckFailure(f"malformed 'funs' tables: {exc}") from None

    try:
        root_values = eval_nodes(cert["query"], model, funs)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckFailure(f"model replay crashed: {exc}") from None
    for k, value in enumerate(root_values):
        if not value:
            raise CheckFailure(f"model does not satisfy query root {k}")
    return {"roots": len(root_values), "model_vars": len(model), "funs": len(funs)}


def check_split(cert: dict) -> dict:
    """Verify a ``split`` certificate's own claims: its query's last root
    is ``not(and(c1..cn))`` with n >= 2, and ``pieces`` lists, for each
    conjunct in the ``and``'s operand order, the digest of that
    conjunct's piece as :func:`piece_nodes` derives it.  That the pieces
    are UNSAT is each piece's own ``drat`` certificate's claim, which
    only a store holds (:func:`audit_store` checks it).  Returns summary
    counters."""
    _check_common(cert)
    if cert.get("kind") != "split":
        raise CheckFailure(f"expected kind 'split', got {cert.get('kind')!r}")
    pieces = cert.get("pieces")
    if not isinstance(pieces, list) or not all(isinstance(d, str) for d in pieces):
        raise CheckFailure("split certificate needs a 'pieces' array of digests")
    query = cert["query"]
    try:
        conjuncts = goal_conjuncts(query)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckFailure(f"malformed query payload: {exc}") from None
    if not conjuncts:
        raise CheckFailure("split query's last root is not not(and(c1..cn)) with n >= 2")
    if len(pieces) != len(conjuncts):
        raise CheckFailure(
            f"split lists {len(pieces)} pieces for {len(conjuncts)} conjuncts"
        )
    for i, (conjunct, claimed) in enumerate(zip(conjuncts, pieces)):
        try:
            derived = canonical_digest(piece_nodes(query, conjunct))
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise CheckFailure(f"piece {i} cannot be derived: {exc}") from None
        if derived != claimed:
            raise CheckFailure(
                f"piece {i} is listed as {claimed!r}, but conjunct {i}'s piece "
                f"hashes to {derived!r}"
            )
    return {"conjuncts": len(conjuncts), "pieces": len(set(pieces))}


def check_certificate(cert: dict) -> dict:
    """Verify any kind.  Returns summary counters; raises
    :class:`CheckFailure` on any problem."""
    kind = cert.get("kind") if isinstance(cert, dict) else None
    if kind == "drat":
        return check_drat(cert)
    if kind == "model":
        return check_model(cert)
    if kind == "split":
        return check_split(cert)
    raise CheckFailure(f"unknown certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# Store audit


def _load_json(path: str):
    with open(path, "rb") as handle:
        raw = handle.read()
    if path.endswith(".gz"):
        raw = gzip.decompress(raw)
    return json.loads(raw.decode())


def iter_store_entries(store_dir: str):
    """Yield ``(digest, entry_path)`` for every verdict in a store,
    covering both the flat and the two-hex-shard layouts."""
    try:
        names = sorted(os.listdir(store_dir))
    except OSError as exc:
        raise CheckFailure(f"cannot list store {store_dir}: {exc}") from None
    for name in names:
        full = os.path.join(store_dir, name)
        if os.path.isdir(full) and len(name) == 2:
            for sub in sorted(os.listdir(full)):
                stem, ext = os.path.splitext(sub)
                if ext == ".json" and _DIGEST_RE.match(stem):
                    yield stem, os.path.join(full, sub)
        else:
            stem, ext = os.path.splitext(name)
            if ext == ".json" and _DIGEST_RE.match(stem):
                yield stem, full


def find_certificate(entry_path: str, digest: str) -> str | None:
    """Path of the certificate sibling of a verdict entry, if any."""
    base = os.path.join(os.path.dirname(entry_path), f"{digest}.cert.json")
    for candidate in (base, base + ".gz"):
        if os.path.exists(candidate):
            return candidate
    return None


def audit_store(store_dir: str, require_certs: bool = False, verbose: bool = False) -> dict:
    """Check every certificate in a verdict store.

    Returns a summary dict; ``summary['failures']`` lists
    ``(digest, reason)`` pairs.  An entry that is not a verdict
    (``unsat``, or ``sat`` with an integer model) fails, certificate or
    not.  A verdict whose certificate is absent counts in ``missing`` (a
    failure only under ``require_certs``); a certificate whose kind
    contradicts the stored verdict fails.  An ``unsat`` entry may carry
    a ``split`` certificate only when every piece it lists has an
    ``unsat`` entry in this store whose ``drat`` certificate checks.
    """
    checked = missing = 0
    failures: list[tuple[str, str]] = []
    kinds = {"drat": 0, "model": 0, "split": 0}
    statuses: dict[str, str] = {}  # every verdict entry's status
    verified: dict[str, str] = {}  # digest -> kind of its checked certificate
    splits: list[tuple[str, list]] = []
    for digest, entry_path in iter_store_entries(store_dir):
        try:
            entry = _load_json(entry_path)
        except (OSError, ValueError):
            # Torn verdict writes are tolerated by the cache; tolerate
            # them here too (there is no verdict to certify).
            continue
        # The solver reads anything but these two shapes as a miss; a
        # store that holds one anyway has been written by something else.
        status = entry.get("status") if isinstance(entry, dict) else None
        if status == "sat":
            model = entry.get("model")
            verdict = isinstance(model, dict) and all(isinstance(v, int) for v in model.values())
        else:
            verdict = status == "unsat"
        if not verdict:
            failures.append((digest, f"entry is not a verdict (status {status!r})"))
            continue
        statuses[digest] = status
        cert_path = find_certificate(entry_path, digest)
        if cert_path is None:
            missing += 1
            if require_certs:
                failures.append((digest, "no certificate stored"))
            continue
        try:
            cert = _load_json(cert_path)
        except (OSError, ValueError) as exc:
            failures.append((digest, f"unreadable certificate: {exc}"))
            continue
        expected_kinds = {"sat": ("model",), "unsat": ("drat", "split")}[status]
        try:
            if isinstance(cert, dict) and cert.get("digest") != digest:
                raise CheckFailure(
                    f"certificate is for digest {cert.get('digest')!r}, "
                    f"stored under {digest!r}"
                )
            kind = cert.get("kind") if isinstance(cert, dict) else None
            if kind not in expected_kinds:
                raise CheckFailure(
                    f"verdict {status!r} needs a {' or '.join(map(repr, expected_kinds))} "
                    f"certificate, found {kind!r}"
                )
            check_certificate(cert)
        except CheckFailure as exc:
            failures.append((digest, str(exc)))
            continue
        if kind == "split":
            splits.append((digest, cert["pieces"]))
            continue
        verified[digest] = kind
        checked += 1
        kinds[kind] += 1
        if verbose:
            print(f"ok {digest} ({kind})")
    # A split holds only through its pieces, so it is judged once every
    # entry's own certificate has been.
    for digest, pieces in splits:
        for piece in dict.fromkeys(pieces):
            if piece not in statuses:
                reason = "has no entry in the store"
            elif statuses[piece] != "unsat":
                reason = f"is {statuses[piece]!r}, not 'unsat'"
            elif verified.get(piece) != "drat":
                reason = "has no checked 'drat' certificate"
            else:
                continue
            failures.append((digest, f"split piece {piece} {reason}"))
            break
        else:
            checked += 1
            kinds["split"] += 1
            if verbose:
                print(f"ok {digest} (split)")
    return {
        "checked": checked,
        "missing": missing,
        "drat": kinds["drat"],
        "model": kinds["model"],
        "split": kinds["split"],
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# CLI


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.smt.checkproof",
        description="Verify proof certificates (DRAT refutations, model replays and splits).",
    )
    parser.add_argument("certs", nargs="*", help="certificate files (.cert.json[.gz])")
    parser.add_argument("--store", help="audit every verdict in this store directory")
    parser.add_argument(
        "--require-certs",
        action="store_true",
        help="with --store: a verdict without a certificate is a failure",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    if not args.store and not args.certs:
        parser.error("give certificate files or --store DIR")

    rc = 0
    for path in args.certs:
        try:
            cert = _load_json(path)
        except (OSError, ValueError) as exc:
            print(f"ERROR: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        try:
            info = check_certificate(cert)
        except CheckFailure as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            rc = 1
            continue
        detail = ", ".join(f"{k}={v}" for k, v in info.items())
        print(f"ok {path} ({cert.get('kind')}: {detail})")

    if args.store:
        try:
            summary = audit_store(args.store, require_certs=args.require_certs, verbose=args.verbose)
        except CheckFailure as exc:
            print(f"ERROR: {exc}", file=sys.stderr)
            return 2
        print(
            f"store {args.store}: {summary['checked']} certificates ok "
            f"({summary['drat']} drat, {summary['model']} model, {summary['split']} split), "
            f"{summary['missing']} verdicts without certificates, "
            f"{len(summary['failures'])} failures"
        )
        for digest, reason in summary["failures"]:
            print(f"FAIL {digest}: {reason}", file=sys.stderr)
        if summary["failures"]:
            rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
