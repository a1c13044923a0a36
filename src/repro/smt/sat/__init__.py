"""CDCL SAT core: :class:`ArenaSolver` (flat clause arena, flat watch
lists, two-tier VSIDS order, cone-restricted search under assumptions)
plus the verdict constants and DIMACS export."""

from .arena import SAT, UNKNOWN, UNSAT, ArenaSolver, luby, to_dimacs

__all__ = ["ArenaSolver", "SAT", "UNSAT", "UNKNOWN", "luby", "to_dimacs"]
