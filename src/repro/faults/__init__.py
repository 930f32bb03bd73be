"""Stuck-at fault simulation on bit-parallel compiled code.

The paper stresses (§3, §6) that the PC-set method — unlike the
parallel technique — is "amenable to bit-parallel simulation" because
its generated code is purely bit-wise.  Historically that is exactly
what made bit-parallel compiled simulation matter: *parallel fault
simulation*.  Here the bit lanes carry test patterns and each fault is
pinned in every lane (parallel-pattern single-fault propagation,
PPSFP).  A stuck-at fault is detected on settled outputs, so the lanes
run the zero-delay LCC program, which is bit-wise too and settles
every net with one statement per gate.  This subpackage implements
that application end to end:

- :mod:`repro.faults.model` — stuck-at faults, fault-list generation,
  and circuit transformation for the serial reference simulator;
- :mod:`repro.faults.simulator` — pattern-parallel fault simulation by
  instrumenting the generated LCC program with a per-net pair of
  mask/value state words, graded on the C backend by one compiled
  ``screen`` call (or one per thread, ``workers=N``), plus the
  brute-force serial simulator it is validated against;
- :mod:`repro.faults.testgen` — test generation and compaction on top
  of the fault simulator.
"""

from repro.faults.model import Fault, full_fault_list, inject_stuck_at
from repro.faults.simulator import (
    FaultReport,
    ParallelFaultSimulator,
    serial_fault_simulation,
    run_fault_simulation,
)
from repro.faults.testgen import TestSet, compact_tests, generate_tests

__all__ = [
    "Fault",
    "full_fault_list",
    "inject_stuck_at",
    "FaultReport",
    "ParallelFaultSimulator",
    "serial_fault_simulation",
    "run_fault_simulation",
    "TestSet",
    "compact_tests",
    "generate_tests",
]
