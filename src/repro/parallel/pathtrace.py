"""The path-tracing shift-elimination algorithm (§4, Fig. 17).

Fig. 17 is a min-relaxation from the primary outputs up toward the
primary inputs: a net aligned at ``x`` pulls its driving gate to
``x``; a gate aligned at ``x`` pulls its inputs to ``x - 1``; only
strictly smaller values propagate.  Its fixpoint is computed here in
one sweep over the nets in descending level order, where every reader
of a net is settled before the net itself:

- a net with no fanout is aligned at its minlevel, and any other net
  at the minimum of its reader gates' alignments, minus 1;
- a gate takes its output net's alignment.

Fig. 17 also starts an output that fans out at its minlevel, but that
start never wins: every net ends at or below its minlevel, and a
reader's output net has a minlevel at most one above the net's.

The test suite keeps the worklist form of Fig. 17 as the reference and
checks that both give the same alignments.  Properties proved in the
paper and enforced here by tests:

- alignments only ever move *up* the network, so the bit-field never
  widens (and may shrink);
- every gate ends up aligned with its output and every net with at
  least one reader, so fanout-free regions simulate without shifts;
- all residual shifts are right shifts.
"""

from __future__ import annotations

from typing import Optional

from repro import telemetry
from repro.analysis.levelize import Levelization, levelize
from repro.netlist.circuit import Circuit
from repro.parallel.alignment import Alignment

__all__ = ["path_tracing_alignment"]


def path_tracing_alignment(
    circuit: Circuit, levels: Optional[Levelization] = None
) -> Alignment:
    """Compute alignments with the Fig. 17 path-tracing algorithm.

    Every sink net starts at its minimum PC-set value (= its
    minlevel), monitored or not, so the whole circuit gets aligned.
    """
    with telemetry.span("align", algorithm="pathtrace",
                        circuit=circuit.name):
        return _path_tracing_alignment(circuit, levels)


def _path_tracing_alignment(
    circuit: Circuit, levels: Optional[Levelization] = None
) -> Alignment:
    if levels is None:
        levels = levelize(circuit)
    minlevel = levels.net_minlevels
    gates = circuit.gates
    # A reader gate's output is at least one level above its input, so
    # every reader is aligned before the net it reads.
    order = sorted(circuit.nets.values(),
                   key=lambda net: levels.net_levels[net.name],
                   reverse=True)
    aligned: dict[str, int] = {}
    for net in order:
        if net.fanout:
            aligned[net.name] = min(
                aligned[gates[name].output] for name in net.fanout
            ) - 1
        else:
            aligned[net.name] = minlevel[net.name]
    net_align = {name: aligned[name] for name in circuit.nets}
    gate_align = {name: aligned[gate.output] for name, gate in gates.items()}

    alignment = Alignment(
        circuit, net_align, gate_align, "pathtrace", levels
    )
    alignment.normalize()
    alignment.validate()
    return alignment
