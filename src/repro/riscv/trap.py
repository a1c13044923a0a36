"""The trap-monitor skeleton both retrofitted monitors share (§6, Figure 6).

Execution model: a trap from S-mode arrives at ``entry`` with the
caller's registers live.  The monitor

  1. saves the caller's saved-register set into ``pcb[current]``,
  2. switches to its own stack,
  3. dispatches on a7 to a compiled handler; a7 outside the interface
     returns -1,
  4. writes the handler's return value into ``pcb[current].a0``, except
     after a call that switches context, which manages the saved
     register banks itself,
  5. restores the (possibly new) current context's registers, zeroes
     every other register, and ``mret``s.

Boot (§3.4) runs the monitor's own prologue, which builds its initial
state; then the epilogue zeroes every PCB, points mtvec at ``entry``,
sets mepc to the S-mode start, clears x1-x31 and ``mret``s, so AF of
the post-boot state is exactly the initial specification state.

The skeleton writes the PCB banks, so it also reads them back for the
monitors' AFs (:meth:`TrapMonitor.register_banks`).

:class:`TrapMonitor` emits all of this from what a monitor declares.
The handlers are mini-C, compiled at the requested optimization level,
which gives Figure 11 its -O0/-O1/-O2 axis.  This module is not
exported from ``repro.riscv``: it compiles with ``repro.cc``, whose
code generator imports ``repro.riscv.asm``.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
from typing import Callable, Collection, Sequence

from ..cc import Program, compile_program
from ..core.image import Image
from ..sym import SymBV, bv_val, ite
from .asm import Assembler
from .cpu import CpuState
from .insn import reg_num

__all__ = ["S_MODE_START", "TrapMonitor"]

# Where the (untrusted) S-mode loader starts after boot.
S_MODE_START = 0x0010_0000


@dataclass(eq=False)
class TrapMonitor:
    """One monitor on the skeleton: its declarations, and the binary
    built from them once per optimization level.

    The PCBs are the data symbol ``pcb``, one ``pcb_stride``-byte
    record (a power of two) per context, holding the ``saved_regs``
    words in order; ``pcb_index`` names the word holding the current
    context's index.  A call ``(number, name)`` runs the handler
    ``c_<name>`` when a7 is ``number``, with its arguments in a0.. as
    the trap left them.  The skeleton saves and restores words with
    ``sw``/``lw``, so it builds RV32 monitors.
    """

    text_base: int
    xlen: int
    data_symbols: Sequence[tuple]  # (name, addr, size, shape)
    saved_regs: Sequence[tuple[str, int]]  # (spec name, register number); includes a0
    pcb_stride: int
    stack_top: int
    pcb_index: str
    calls: Sequence[tuple[int, str]]  # in dispatch order
    switching: Collection[str]  # calls that restore without writing a0
    handlers: Program
    boot_prologue: Callable[[Assembler], None]

    @functools.cache
    def build_image(self, opt: int = 1) -> Image:
        """The monitor binary at ``opt``; its first instruction is the
        trap entry.  Built once per ``opt`` and process: nothing writes
        an image after assembly, so every verifier at one level shares
        it."""
        return self._assembly(opt).assemble()

    def boot_address(self, opt: int = 1) -> int:
        """Address of the boot code in the image at ``opt``."""
        return self._assembly(opt).addr_of("boot")

    def register_banks(self, cpu: CpuState, current: SymBV) -> list:
        """The AF's saved-register banks, one per PCB, flat (context c's
        register j at ``c * len(saved_regs) + j``): the live registers
        for the ``current`` context, which runs with them, and
        ``pcb[c]`` for every other context c."""
        word = self.xlen // 8
        pcb = cpu.mem.region("pcb").block
        banks = []
        for c in range(self._pcb_size // self.pcb_stride):
            for j, (_, num) in enumerate(self.saved_regs):
                live = cpu.reg(num)
                offset = bv_val(c * self.pcb_stride + word * j, self.xlen)
                saved = pcb.load(offset, word, cpu.mem.opts)
                banks.append(ite(current == c, live, saved))
        return banks

    @property
    def _pcb_size(self) -> int:
        return next(size for name, _, size, _ in self.data_symbols if name == "pcb")

    @functools.cache
    def _assembly(self, opt: int) -> Assembler:
        """The monitor's assembly at ``opt``, compiled once per level
        and process; the image and the boot address both read it, and
        nothing writes it."""
        asm = Assembler(base=self.text_base, xlen=self.xlen)
        for name, addr, size, shape in self.data_symbols:
            asm.data_symbol(name, addr, size, shape)
        word = self.xlen // 8
        saved = [num for _, num in self.saved_regs]

        asm.label("entry")
        # (1) save the caller's registers; t0 and t1 are the monitor's
        # scratch registers.
        self._pcb_addr(asm)
        for j, num in enumerate(saved):
            asm.sw(num, word * j, "t0")
        # (2) the monitor's own stack.
        asm.li("sp", self.stack_top)
        # (3) dispatch on a7.
        for number, name in self.calls:
            asm.li("t1", number)
            asm.beq("a7", "t1", f"do_{name}")
        asm.li("a0", -1)
        asm.j("save_ret")
        for _, name in self.calls:
            asm.label(f"do_{name}")
            asm.call(f"c_{name}")
            asm.j("restore" if name in self.switching else "save_ret")

        # (4) a0 -> pcb[current].a0.
        asm.label("save_ret")
        self._pcb_addr(asm)
        asm.sw("a0", word * saved.index(reg_num("a0")), "t0")

        # (5) restore the current context and clear everything else.
        asm.label("restore")
        self._pcb_addr(asm)
        for j, num in enumerate(saved):
            asm.lw(num, word * j, "t0")
        for num in range(1, 32):
            if num not in saved:
                asm.li(num, 0)
        asm.mret()

        compile_program(self.handlers, asm, opt)

        asm.label("boot")
        self.boot_prologue(asm)
        asm.la("t0", "pcb")
        for off in range(0, self._pcb_size, word):
            asm.sw("zero", off, "t0")
        asm.li("t0", asm.addr_of("entry"))
        asm.csrrw("zero", "mtvec", "t0")
        asm.li("t0", S_MODE_START)
        asm.csrrw("zero", "mepc", "t0")
        for num in range(1, 32):
            asm.li(num, 0)
        asm.mret()
        return asm

    def _pcb_addr(self, asm: Assembler) -> None:
        """t0 = &pcb[current], with t1 as scratch."""
        asm.la("t0", self.pcb_index)
        asm.lw("t1", 0, "t0")
        asm.slli("t1", "t1", self.pcb_stride.bit_length() - 1)
        asm.la("t0", "pcb")
        asm.add("t0", "t0", "t1")
