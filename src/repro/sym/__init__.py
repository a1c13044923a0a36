"""Symbolic evaluation layer (the Rosette substitute, Figure 1).

Provides symbolic values with Python operator overloading, guarded
unions and state merging, an assertion store with path conditions,
verify/solve queries with counterexamples, and symbolic reflection.

Symbolic profiling (Bornholt & Torlak, OOPSLA'18; paper §3.2) is part
of ``repro.obs``: inside a ``tracing()`` session, each ``region(name)``
block (re-exported here) charges the terms, merges and path splits
created in it, and the largest guarded union it merged, to a row of
the session's region table, which ``repro.obs.render_regions`` ranks
by the §3.2 bottleneck score.  In the ToyRISC walkthrough this is what
flags ``fetch`` exploding under a symbolic pc.
"""

from ..obs import region
from .context import Context, VC, assert_prop, bug_on, current, new_context, path_condition
from .merge import Union, merge, merge_states
from .reflect import destruct_linear
from .solverapi import ProofResult, VerificationError, check_batch, prove, solve, verify_vcs
from .value import (
    SymBV,
    SymBool,
    SymbolicBranchError,
    bv,
    bv_val,
    fresh_bool,
    fresh_bv,
    ite,
    named_bool,
    named_bv,
    sym_and,
    sym_eq,
    sym_false,
    sym_implies,
    sym_not,
    sym_or,
    sym_true,
)

__all__ = [name for name in dir() if not name.startswith("_")]
