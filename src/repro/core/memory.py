"""The Serval memory model (§3.4).

Memory is a set of disjoint top-level *regions*, each holding a block
tree built from three block types (mirroring C types):

  * :class:`MCell`     -- a fixed-width value (like an integer field),
  * :class:`MUniform`  -- ``count`` elements of identical shape (array),
  * :class:`MStruct`   -- named fields of possibly different shapes.

Choosing a block shape that matches how the implementation accesses a
region keeps the number of generated constraints small, compared to a
naive flat array of bytes.

Symbolic addresses are handled with the §4 "symbolic memory address"
optimization: an in-block offset of the form ``idx*C0 + C1`` is
optimistically rewritten into (element ``idx``, field offset ``C1``),
emitting a bounds side condition that verification must discharge.
Disable ``concretize_offsets`` to get the naive behaviour (an ite
over every element) used by the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..smt import mk_bool
from ..sym import SymBV, SymBool, bug_on, bv, bv_val, ite, merge
from ..sym.reflect import destruct_linear
from .errors import MemoryModelError

__all__ = ["MCell", "MUniform", "MStruct", "Region", "Memory", "MemoryOptions"]


@dataclass
class MemoryOptions:
    """Knobs for the symbolic-address optimization (ablation: E5)."""

    concretize_offsets: bool = True
    # Upper bound on ite fan-out when concretization is disabled.
    max_fanout: int = 4096


DEFAULT_OPTIONS = MemoryOptions()


class Block:
    """Base class for memory blocks.  Sizes are in bytes."""

    def size(self) -> int:
        raise NotImplementedError

    def copy(self) -> "Block":
        raise NotImplementedError

    def load(self, offset: SymBV, nbytes: int, opts: MemoryOptions) -> SymBV:
        raise NotImplementedError

    def store(self, offset: SymBV, value: SymBV, opts: MemoryOptions) -> None:
        raise NotImplementedError

    def __sym_merge__(self, guard: SymBool, other: "Block") -> "Block":
        raise NotImplementedError


class MCell(Block):
    """A single fixed-width value; the leaf of a block tree.

    Byte-granularity loads and stores within the cell are supported
    via extract/splice, so byte-addressed code still verifies, just
    with more constraints than well-shaped access.
    """

    __slots__ = ("nbytes", "value")

    def __init__(self, nbytes: int, value: SymBV | int = 0):
        self.nbytes = nbytes
        self.value = bv(value, nbytes * 8) if not isinstance(value, SymBV) else value
        if self.value.width != nbytes * 8:
            raise MemoryModelError(f"cell value width {self.value.width} != {nbytes * 8}")

    def size(self) -> int:
        return self.nbytes

    def copy(self) -> "MCell":
        return MCell(self.nbytes, self.value)

    def load(self, offset: SymBV, nbytes: int, opts: MemoryOptions) -> SymBV:
        if nbytes == self.nbytes:
            if offset.is_concrete and offset.as_int() != 0:
                raise MemoryModelError(f"full-cell load at offset {offset.as_int()}")
            bug_on(offset != 0, "misaligned full-cell load")
            return self.value
        if not offset.is_concrete:
            raise MemoryModelError("symbolic sub-cell offsets are not supported")
        off = offset.as_int()
        if off + nbytes > self.nbytes:
            raise MemoryModelError(f"load of {nbytes}B at {off} exceeds cell of {self.nbytes}B")
        return self.value.extract(off * 8 + nbytes * 8 - 1, off * 8)

    def store(self, offset: SymBV, value: SymBV, opts: MemoryOptions) -> None:
        nbytes = value.width // 8
        if nbytes == self.nbytes:
            if offset.is_concrete and offset.as_int() != 0:
                raise MemoryModelError(f"full-cell store at offset {offset.as_int()}")
            bug_on(offset != 0, "misaligned full-cell store")
            self.value = value
            return
        if not offset.is_concrete:
            raise MemoryModelError("symbolic sub-cell offsets are not supported")
        off = offset.as_int()
        if off + nbytes > self.nbytes:
            raise MemoryModelError(f"store of {nbytes}B at {off} exceeds cell of {self.nbytes}B")
        pieces = []
        if off + nbytes < self.nbytes:
            pieces.append(self.value.extract(self.nbytes * 8 - 1, (off + nbytes) * 8))
        pieces.append(value)
        if off > 0:
            pieces.append(self.value.extract(off * 8 - 1, 0))
        out = pieces[0]
        for p in pieces[1:]:
            out = out.concat(p)
        self.value = out

    def __sym_merge__(self, guard: SymBool, other: "MCell") -> "MCell":
        return MCell(self.nbytes, merge(guard, self.value, other.value))

    def __repr__(self) -> str:
        return f"MCell({self.nbytes}B, {self.value!r})"


class MUniform(Block):
    """An array of ``count`` identically-shaped sub-blocks."""

    __slots__ = ("elems", "elem_size")

    def __init__(self, elems: list[Block]):
        if not elems:
            raise MemoryModelError("uniform block needs at least one element")
        self.elems = elems
        self.elem_size = elems[0].size()
        if any(e.size() != self.elem_size for e in elems):
            raise MemoryModelError("uniform block elements differ in size")

    @classmethod
    def of(cls, count: int, make: "callable") -> "MUniform":
        return cls([make() for _ in range(count)])

    def size(self) -> int:
        return self.elem_size * len(self.elems)

    def copy(self) -> "MUniform":
        return MUniform([e.copy() for e in self.elems])

    def _resolve(self, offset: SymBV, access_bytes: int, opts: MemoryOptions):
        """Split an offset into (element index, within-element offset).

        Concrete offsets resolve directly.  Symbolic offsets go through
        the §4 concretization: match ``idx*elem_size + C``, emit a
        bounds check, and descend into a single element shape with the
        symbolic ``idx`` pushed into element selection.
        """
        if offset.is_concrete:
            off = offset.as_int()
            index, within = divmod(off, self.elem_size)
            if index >= len(self.elems):
                raise MemoryModelError(f"offset {off} out of uniform block of {self.size()}B")
            return [(mk_bool(True), index)], bv_val(within, offset.width)
        if not opts.concretize_offsets:
            return None, None  # caller falls back to full fan-out
        idx_term, scale, const = destruct_linear(offset.term, offset.width)
        if idx_term is None or scale != self.elem_size or const >= self.elem_size:
            return None, None
        idx = SymBV(idx_term)
        # Optimistic rewrite's side condition (§4): the index stays in
        # bounds, so idx*size+C mod size == C and the rewrite is sound.
        bug_on(idx >= len(self.elems), "uniform-block index out of bounds")
        guards = [((idx == i), i) for i in range(len(self.elems))]
        return [(g.term, i) for g, i in guards], bv_val(const, offset.width)

    def load(self, offset: SymBV, nbytes: int, opts: MemoryOptions) -> SymBV:
        resolved, within = self._resolve(offset, nbytes, opts)
        if resolved is None:
            return self._fanout_load(offset, nbytes, opts)
        if len(resolved) == 1:
            (_, index), = resolved
            return self.elems[index].load(within, nbytes, opts)
        # Build the select with the same nesting order functional specs
        # use (last element innermost), so both intern identically.
        result = self.elems[resolved[-1][1]].load(within, nbytes, opts)
        for guard, index in reversed(resolved[:-1]):
            value = self.elems[index].load(within, nbytes, opts)
            result = ite(SymBool(guard), value, result)
        return result

    def store(self, offset: SymBV, value: SymBV, opts: MemoryOptions) -> None:
        resolved, within = self._resolve(offset, value.width // 8, opts)
        if resolved is None:
            self._fanout_store(offset, value, opts)
            return
        if len(resolved) == 1:
            (_, index), = resolved
            self.elems[index].store(within, value, opts)
            return
        for guard, index in resolved:
            elem = self.elems[index]
            old = elem.load(within, value.width // 8, opts)
            elem.store(within, ite(SymBool(guard), value, old), opts)

    # Naive path (ablation): try every element at every alignment.
    def _fanout_load(self, offset: SymBV, nbytes: int, opts: MemoryOptions) -> SymBV:
        candidates = self._fanout_offsets(nbytes, opts)
        result = bv_val(0, nbytes * 8)
        hit_any = None
        for off in candidates:
            guard = offset == off
            value = self.load(bv_val(off, offset.width), nbytes, opts)
            result = ite(guard, value, result)
            hit_any = guard if hit_any is None else (hit_any | guard)
        bug_on(~hit_any, "unresolvable symbolic load offset")
        return result

    def _fanout_store(self, offset: SymBV, value: SymBV, opts: MemoryOptions) -> None:
        candidates = self._fanout_offsets(value.width // 8, opts)
        hit_any = None
        for off in candidates:
            guard = offset == off
            concrete = bv_val(off, offset.width)
            old = self.load(concrete, value.width // 8, opts)
            self.store(concrete, ite(guard, value, old), opts)
            hit_any = guard if hit_any is None else (hit_any | guard)
        bug_on(~hit_any, "unresolvable symbolic store offset")

    def _fanout_offsets(self, nbytes: int, opts: MemoryOptions) -> list[int]:
        step = nbytes
        offsets = list(range(0, self.size() - nbytes + 1, step))
        if len(offsets) > opts.max_fanout:
            raise MemoryModelError(
                f"symbolic access fans out to {len(offsets)} cases (> {opts.max_fanout})"
            )
        return offsets

    def __sym_merge__(self, guard: SymBool, other: "MUniform") -> "MUniform":
        return MUniform([a.__sym_merge__(guard, b) for a, b in zip(self.elems, other.elems)])

    def __repr__(self) -> str:
        return f"MUniform({len(self.elems)} x {self.elem_size}B)"


class MStruct(Block):
    """Named fields at computed offsets (like a C struct)."""

    __slots__ = ("fields", "offsets", "_size")

    def __init__(self, fields: list[tuple[str, Block]]):
        self.fields = dict(fields)
        self.offsets: dict[str, int] = {}
        off = 0
        for name, block in fields:
            self.offsets[name] = off
            off += block.size()
        self._size = off

    def size(self) -> int:
        return self._size

    def copy(self) -> "MStruct":
        return MStruct([(n, b.copy()) for n, b in self.fields.items()])

    def field(self, name: str) -> Block:
        return self.fields[name]

    def field_offset(self, name: str) -> int:
        return self.offsets[name]

    def _locate(self, off: int) -> tuple[str, int]:
        for name, start in self.offsets.items():
            block = self.fields[name]
            if start <= off < start + block.size():
                return name, off - start
        raise MemoryModelError(f"offset {off} outside struct of {self._size}B")

    def load(self, offset: SymBV, nbytes: int, opts: MemoryOptions) -> SymBV:
        if offset.is_concrete:
            name, within = self._locate(offset.as_int())
            return self.fields[name].load(bv_val(within, offset.width), nbytes, opts)
        # A symbolic struct offset with concrete destructuring failed
        # upstream; fan out across matching fields.
        result = bv_val(0, nbytes * 8)
        hit_any = None
        for name, start in self.offsets.items():
            block = self.fields[name]
            for within in range(0, block.size() - nbytes + 1, nbytes):
                guard = offset == (start + within)
                value = block.load(bv_val(within, offset.width), nbytes, opts)
                result = ite(guard, value, result)
                hit_any = guard if hit_any is None else (hit_any | guard)
        if hit_any is None:
            raise MemoryModelError("no field can satisfy this access size")
        bug_on(~hit_any, "unresolvable symbolic struct offset")
        return result

    def store(self, offset: SymBV, value: SymBV, opts: MemoryOptions) -> None:
        if offset.is_concrete:
            name, within = self._locate(offset.as_int())
            self.fields[name].store(bv_val(within, offset.width), value, opts)
            return
        nbytes = value.width // 8
        hit_any = None
        for name, start in self.offsets.items():
            block = self.fields[name]
            for within in range(0, block.size() - nbytes + 1, nbytes):
                guard = offset == (start + within)
                concrete = bv_val(within, offset.width)
                old = block.load(concrete, nbytes, opts)
                block.store(concrete, ite(guard, value, old), opts)
                hit_any = guard if hit_any is None else (hit_any | guard)
        if hit_any is None:
            raise MemoryModelError("no field can satisfy this access size")
        bug_on(~hit_any, "unresolvable symbolic struct offset")

    def __sym_merge__(self, guard: SymBool, other: "MStruct") -> "MStruct":
        return MStruct(
            [(n, b.__sym_merge__(guard, other.fields[n])) for n, b in self.fields.items()]
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}@{o}" for n, o in self.offsets.items())
        return f"MStruct({inner})"


class Region:
    """A top-level block at a fixed physical address range."""

    __slots__ = ("name", "base", "block", "writable")

    def __init__(self, name: str, base: int, block: Block, writable: bool = True):
        self.name = name
        self.base = base
        self.block = block
        self.writable = writable

    @property
    def limit(self) -> int:
        return self.base + self.block.size()

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.limit

    def copy(self) -> "Region":
        return Region(self.name, self.base, self.block.copy(), self.writable)

    def __repr__(self) -> str:
        return f"Region({self.name}@{self.base:#x}+{self.block.size():#x})"


class Memory:
    """Disjoint regions with address-based dispatch.

    Address resolution extracts the concrete component of the address
    term to pick a region (validated with a bounds side condition),
    implementing the §4 optimization at the region level.
    """

    def __init__(self, regions: list[Region], opts: MemoryOptions | None = None, addr_width: int = 32):
        self.regions = sorted(regions, key=lambda r: r.base)
        self.opts = opts or DEFAULT_OPTIONS
        self.addr_width = addr_width
        self._check_disjoint()

    def _check_disjoint(self) -> None:
        for a, b in zip(self.regions, self.regions[1:]):
            if a.limit > b.base:
                raise MemoryModelError(f"regions overlap: {a!r} and {b!r}")

    def copy(self) -> "Memory":
        return Memory([r.copy() for r in self.regions], self.opts, self.addr_width)

    def region(self, name: str) -> Region:
        for r in self.regions:
            if r.name == name:
                return r
        raise KeyError(name)

    def locate(self, addr: SymBV) -> tuple[Region, SymBV]:
        """Resolve an address term to (region, in-region offset)."""
        if addr.is_concrete:
            a = addr.as_int()
            for r in self.regions:
                if r.contains(a):
                    return r, bv_val(a - r.base, addr.width)
            raise MemoryModelError(f"address {a:#x} outside all regions")
        # Symbolic address: use its constant component as the anchor.
        idx_term, scale, const = destruct_linear(addr.term, addr.width)
        for r in self.regions:
            if r.contains(const):
                offset = addr - r.base
                bug_on(offset >= r.block.size(), "memory access outside region")
                return r, offset
        raise MemoryModelError(
            f"cannot anchor symbolic address {addr.term!r} (constant part {const:#x}) "
            "to a region"
        )

    def load(self, addr: SymBV, nbytes: int) -> SymBV:
        region, offset = self.locate(addr)
        return region.block.load(offset, nbytes, self.opts)

    def store(self, addr: SymBV, value: SymBV) -> None:
        region, offset = self.locate(addr)
        if not region.writable:
            bug_on(True, "store to read-only region")
            return
        region.block.store(offset, value, self.opts)

    def __sym_merge__(self, guard: SymBool, other: "Memory") -> "Memory":
        merged = [
            Region(a.name, a.base, a.block.__sym_merge__(guard, b.block), a.writable)
            for a, b in zip(self.regions, other.regions)
        ]
        return Memory(merged, self.opts, self.addr_width)
