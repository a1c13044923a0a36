"""The Serval framework core (Figure 1, middle box).

Specification library, symbolic optimizations, and support for
verifying systems code: the lifting engine, the memory model, binary
images, refinement, safety, and noninterference.
"""

from .engine import EngineOptions, Interpreter, Paths, run_interpreter
from .errors import (
    EngineFuelExhausted,
    MemoryModelError,
    ServalError,
    SpecificationError,
    UnconstrainedPc,
)
from .image import Image, Symbol, build_memory
from .memory import MCell, MStruct, MUniform, Memory, MemoryOptions, Region
from .noninterference import (
    Action,
    NIPolicy,
    prove_local_respect,
    prove_nickel_ni,
    prove_step_consistency,
)
from .runner import (
    Obligation,
    ObligationResult,
    RunnerStats,
    obligations_from_context,
    parallel_map,
    reduce_results,
    run_obligations,
)
from .scheduler import (
    InlineScheduler,
    ObligationScheduler,
    get_scheduler,
    shutdown_scheduler,
)
from .safety import count_where, prove_invariant_step, reference_count_consistent
from .spec import Refinement, SpecStruct, select, set_bank, spec_struct, theorem, update
from .symopt import (
    SymOptConfig,
    concretize,
    rewrite_with_invariant,
    split_cases,
    split_cases_value,
)

__all__ = [name for name in dir() if not name.startswith("_")] + [
    "VerdictStore",
    "open_store",
]


def __getattr__(name):
    # Lazy so that ``python -m repro.core.store`` does not import the
    # module twice (runpy would warn about the sys.modules collision).
    if name == "VerdictStore":
        from .store import VerdictStore

        return VerdictStore
    if name == "open_store":
        from .store import open_store

        return open_store
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
