"""A functional specification for the Keystone security monitor (§7).

"Since Keystone was in active development and did not have a formal
specification, we wrote a functional specification based on our
understanding of its design."  Keystone isolates enclaves with a
dedicated PMP region per enclave (rather than paging, as in Komodo).

The spec models a host domain plus NENC enclaves; monitor calls:

  create(eid, region)  -- host creates an enclave over a free slot
  run(eid)             -- host enters a created enclave
  stop(eid)            -- host stops a running enclave
  destroy(eid)         -- host reclaims a stopped enclave
  exit()               -- the running enclave returns to the host

``allow_nested_create=True`` reproduces the interface flaw the paper
reported: Keystone "allowed an enclave to create more enclaves within
itself", which violates the proved safety property that an enclave's
state is not influenced by other enclaves.  Keystone adopted the fix
(creation from enclave context is now rejected).
"""

from __future__ import annotations

from ..core import select, spec_struct, update
from ..sym import SymBV, SymBool, bv_val, ite, sym_true

__all__ = [
    "KeystoneState",
    "NENC",
    "HOST",
    "ENC_FREE",
    "ENC_CREATED",
    "ENC_RUNNING",
    "ENC_STOPPED",
    "spec_create",
    "spec_run",
    "spec_stop",
    "spec_destroy",
    "spec_exit",
    "state_invariant",
]

W = 32
NENC = 3
HOST = NENC  # the host "domain id" (callers: 0..NENC-1 enclaves, NENC host)

ENC_FREE = 0
ENC_CREATED = 1
ENC_RUNNING = 2
ENC_STOPPED = 3

# status[i], region[i] (an opaque PMP region handle), measure[i] (a
# stand-in for the enclave's measured contents), cur (running enclave
# id, or HOST).
KeystoneState = spec_struct(
    "keystone",
    cur=W,
    status=(W, NENC),
    region=(W, NENC),
    measure=(W, NENC),
)


def state_invariant(s) -> SymBool:
    inv = (s.cur <= HOST)
    for i in range(NENC):
        inv = inv & (s.status[i] <= ENC_STOPPED)
        # only the current enclave can be RUNNING
        inv = inv & ((s.status[i] != ENC_RUNNING) | (s.cur == i))
    return inv


def spec_create(s, eid: SymBV, region: SymBV, payload: SymBV, allow_nested_create: bool = False):
    """Host creates enclave ``eid`` over PMP region ``region``.

    With ``allow_nested_create`` the caller check is skipped — the
    Keystone flaw: a running enclave may then rewrite another
    enclave's slot.
    """
    out = s.copy()
    caller_ok = sym_true() if allow_nested_create else (s.cur == HOST)
    ok = caller_ok & (eid < NENC) & (select(s.status, eid) == ENC_FREE)
    out.status = update(s.status, eid, bv_val(ENC_CREATED, W), ok)
    out.region = update(s.region, eid, region, ok)
    out.measure = update(s.measure, eid, payload, ok)
    return out


def spec_run(s, eid: SymBV):
    out = s.copy()
    ok = (s.cur == HOST) & (eid < NENC) & (select(s.status, eid) == ENC_CREATED)
    out.status = update(s.status, eid, bv_val(ENC_RUNNING, W), ok)
    out.cur = ite(ok, eid, s.cur)
    return out


def spec_stop(s, eid: SymBV):
    out = s.copy()
    # stop applies to an enclave that has exited (STOPPED after exit);
    # model: host may also forcibly stop a CREATED enclave.
    ok = (s.cur == HOST) & (eid < NENC) & (
        (select(s.status, eid) == ENC_CREATED)
        | (select(s.status, eid) == ENC_STOPPED)
    )
    out.status = update(s.status, eid, bv_val(ENC_STOPPED, W), ok)
    return out


def spec_destroy(s, eid: SymBV):
    """Reclaim a stopped enclave; its measured contents are erased
    (the litmus test of §6.3: memory of a finalized enclave must not
    be observable afterwards)."""
    out = s.copy()
    ok = (s.cur == HOST) & (eid < NENC) & (select(s.status, eid) == ENC_STOPPED)
    out.status = update(s.status, eid, bv_val(ENC_FREE, W), ok)
    out.measure = update(s.measure, eid, bv_val(0, W), ok)
    out.region = update(s.region, eid, bv_val(0, W), ok)
    return out


def spec_exit(s):
    """The running enclave exits back to the host."""
    out = s.copy()
    running = s.cur < NENC
    out.status = update(s.status, s.cur, bv_val(ENC_STOPPED, W), running)
    out.cur = ite(running, bv_val(HOST, W), s.cur)
    return out
