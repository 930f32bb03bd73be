"""Net/gate alignments for shift elimination (§4).

An *alignment* gives every net and every gate the time represented by
bit 0 of its bit-field.  Shifts vanish when conditions 1-4 of §4 hold
along an edge; where they cannot hold, a residual shift remains.  In
this implementation all residual shifts are realized *at gate inputs*
(Fig. 18): a net's stored field is aligned with its driving gate, and a
reader at gate ``g`` shifts the operand by ``(align(g) - 1) -
stored_align(net)`` — positive amounts are right shifts (the only kind
path-tracing produces), negative are left shifts (possible with
cycle-breaking).

:class:`Alignment` owns the numbers, the width formula
``level - alignment + 1`` (Fig. 22), retained-shift counting (Fig. 21),
and the §4 normalization pass that slides every alignment down by a
constant so no change is ever lost and left shifts can be fed from the
previous vector's value.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.levelize import Levelization, levelize
from repro.errors import AlignmentError
from repro.netlist.circuit import Circuit

__all__ = ["Alignment", "unoptimized_shift_count"]


def unoptimized_shift_count(circuit: Circuit) -> int:
    """Shifts the unoptimized parallel technique performs: one per gate.

    This is the first column of Fig. 21.
    """
    return circuit.num_gates


class Alignment:
    """Alignments produced by a shift-elimination algorithm.

    Attributes
    ----------
    net_align / gate_align:
        The raw assignments of the algorithm.
    algorithm:
        ``"pathtrace"`` or ``"cyclebreak"`` (for reports).
    """

    def __init__(
        self,
        circuit: Circuit,
        net_align: dict[str, int],
        gate_align: dict[str, int],
        algorithm: str,
        levels: Optional[Levelization] = None,
    ) -> None:
        self.circuit = circuit
        self.net_align = net_align
        self.gate_align = gate_align
        self.algorithm = algorithm
        self.levels = levels if levels is not None else levelize(circuit)

    # ------------------------------------------------------------------
    def stored_align(self, net_name: str) -> int:
        """Alignment of the net's *stored* field.

        Driven nets are stored exactly as their driver computes them
        (shifts happen at the readers), so their stored alignment is the
        driving gate's; primary inputs use their own.
        """
        driver = self.circuit.nets[net_name].driver
        if driver is None:
            return self.net_align[net_name]
        return self.gate_align[driver]

    def input_shift(self, gate_name: str, net_name: str) -> int:
        """Shift a reader applies: positive = right, negative = left."""
        return (self.gate_align[gate_name] - 1) - self.stored_align(net_name)

    def iter_input_shifts(self) -> Iterator[tuple[str, str, int]]:
        """Yield ``(gate, input_net, shift)`` for every input pin."""
        for gate in self.circuit.gates.values():
            for net_name in gate.inputs:
                yield gate.name, net_name, self.input_shift(
                    gate.name, net_name
                )

    def retained_shifts(self) -> int:
        """Number of input pins whose shift is non-zero (Fig. 21)."""
        return sum(
            1 for _g, _n, shift in self.iter_input_shifts() if shift != 0
        )

    # ------------------------------------------------------------------
    def width(self, net_name: str) -> int:
        """Required bit-field width: ``level - alignment + 1`` (§4)."""
        return (
            self.levels.net_levels[net_name]
            - self.stored_align(net_name)
            + 1
        )

    def max_width(self) -> int:
        """The widest field — the Fig. 22 quantity."""
        return max(self.width(n) for n in self.circuit.nets)

    def words(self, net_name: str, word_width: int = 32) -> int:
        return -(-self.width(net_name) // word_width)

    def max_words(self, word_width: int = 32) -> int:
        return max(self.words(n, word_width) for n in self.circuit.nets)

    # ------------------------------------------------------------------
    def normalize(self) -> int:
        """Slide all alignments down so previous-vector values line up.

        Ensures every net's stored alignment is <= its minlevel (no
        potential change falls below bit 0), strictly below it for nets
        read with a left shift (the shifted-in bits must hold the
        previous vector's value, §4).  Subtracting one constant from
        every net and gate alignment preserves all shift amounts.
        Returns the constant subtracted.
        """
        delta = 0
        minlevels = self.levels.net_minlevels
        left_shifted = {
            net_name
            for _g, net_name, shift in self.iter_input_shifts()
            if shift < 0
        }
        for net_name in self.circuit.nets:
            bound = minlevels[net_name]
            if net_name in left_shifted:
                bound -= 1
            excess = self.stored_align(net_name) - bound
            if excess > delta:
                delta = excess
        if delta:
            for net_name in self.net_align:
                self.net_align[net_name] -= delta
            for gate_name in self.gate_align:
                self.gate_align[gate_name] -= delta
        return delta

    def validate(self) -> None:
        """Check the invariants code generation relies on."""
        minlevels = self.levels.net_minlevels
        for net_name in self.circuit.nets:
            stored = self.stored_align(net_name)
            if stored > minlevels[net_name]:
                raise AlignmentError(
                    f"net {net_name!r}: stored alignment {stored} above "
                    f"minlevel {minlevels[net_name]} — changes would be "
                    f"lost"
                )
        for gate_name, net_name, shift in self.iter_input_shifts():
            if shift < 0:
                stored = self.stored_align(net_name)
                if stored > minlevels[net_name] - 1:
                    raise AlignmentError(
                        f"net {net_name!r} read with a left shift at "
                        f"{gate_name!r} but its alignment {stored} is not "
                        f"strictly below its minlevel "
                        f"{minlevels[net_name]}"
                    )

    def alignments_dict(self) -> dict[str, int]:
        """Stored alignment per net (what the field layout consumes)."""
        return {
            net_name: self.stored_align(net_name)
            for net_name in self.circuit.nets
        }

    def __repr__(self) -> str:
        return (
            f"Alignment({self.algorithm}, {self.circuit.name!r}: "
            f"{self.retained_shifts()} retained shifts, "
            f"max width {self.max_width()})"
        )
