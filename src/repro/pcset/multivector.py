"""Bit-parallel multi-vector simulation with the PC-set method.

§3 observes that "the PC-set method is amenable to bit-parallel
simulation of multiple input vectors, while the parallel technique is
not": the generated PC-set code contains only bit-wise operations (no
shifts), so bit ``j`` of every variable can carry an independent vector
*stream*.  This module implements that mode: the very same generated
program simulates up to ``word_width`` sequential streams at once.

A batch of N vectors is split round-robin into ``lanes`` streams; lane
``j`` simulates vectors ``j, j+lanes, j+2*lanes, ...`` in order, each
starting from the lane's own previous steady state — exactly what
``lanes`` independent scalar simulators would do, at roughly the cost
of one.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.pcset.codegen import generate_pcset_program
from repro.simbase import CompiledSimulator, monitored_nets

__all__ = ["MultiVectorPCSetSimulator", "pack_lanes", "unpack_lanes"]


def pack_lanes(rows: Sequence[Sequence[int]]) -> list[int]:
    """Pack per-lane vectors into words: bit ``j`` = lane ``j``.

    ``rows[j]`` is lane ``j``'s vector (one 0/1 value per primary
    input); the result has one word per primary input.
    """
    if not rows:
        return []
    width = len(rows[0])
    words = [0] * width
    for lane, row in enumerate(rows):
        if len(row) != width:
            raise SimulationError("ragged lane vectors")
        for k, value in enumerate(row):
            words[k] |= (value & 1) << lane
    return words


def unpack_lanes(words: Sequence[int], lanes: int) -> list[list[int]]:
    """Inverse of :func:`pack_lanes`: one row per lane."""
    return [
        [(word >> lane) & 1 for word in words] for lane in range(lanes)
    ]


class MultiVectorPCSetSimulator(CompiledSimulator):
    """PC-set simulation of ``lanes`` independent vector streams at once.

    Input values are lane words, one stream per bit (:func:`pack_lanes`);
    a batch of plain 0/1 vectors is one stream in lane 0.
    """

    _lane_words = True

    def __init__(
        self,
        circuit: Circuit,
        *,
        lanes: Optional[int] = None,
        backend: str = "python",
        word_width: int = 32,
        monitored: Optional[list[str]] = None,
        with_outputs: bool = True,
    ) -> None:
        if lanes is None:
            lanes = word_width
        if not 1 <= lanes <= word_width:
            raise SimulationError(
                f"lanes must be in 1..{word_width}, got {lanes}"
            )
        self.lanes = lanes
        self.monitored = monitored_nets(circuit, monitored)
        program, variables = generate_pcset_program(
            circuit,
            word_width=word_width,
            monitored=self.monitored,
            emit_outputs=with_outputs,
        )
        self.variables = variables
        self.pc_sets = variables.pc_sets
        super().__init__(
            circuit,
            program,
            backend=backend,
            with_outputs=with_outputs,
        )

    # ------------------------------------------------------------------
    def _encode_state(self, settled: Mapping[str, int]) -> list[int]:
        mask = self.program.word_mask
        return [
            (-(settled[net_name] & 1)) & mask
            for net_name, _time, _identifier in self.variables.ordered
        ]

    # ------------------------------------------------------------------
    def apply_packed(self, rows: Sequence[Sequence[int]]) -> list[int]:
        """Simulate one step of up to ``lanes`` streams.

        ``rows[j]`` is the next vector of stream ``j``.  Returns the raw
        packed output words.
        """
        if len(rows) > self.lanes:
            raise SimulationError(
                f"{len(rows)} rows exceed {self.lanes} lanes"
            )
        return self.apply_vector(pack_lanes(rows))

    def prepare_streams(self, vectors: Sequence[Sequence[int]]):
        """Pack a vector batch into lane words, outside any timed region.

        ``vectors[i]`` goes to lane ``i % lanes``; each lane sees its
        sub-sequence in order.  The tail step is padded by repeating
        the batch's last vector (padding lanes do not disturb the
        active ones).  Returns a prepared batch for
        :meth:`run_prepared` — on the C backend that is one contiguous
        native buffer driven entirely by the compiled loop.
        """
        lanes = self.lanes
        n = len(vectors)
        steps = (n + lanes - 1) // lanes
        packed: list[list[int]] = []
        for step_index in range(steps):
            rows = []
            for lane in range(lanes):
                i = step_index * lanes + lane
                rows.append(vectors[i if i < n else n - 1])
            packed.append(pack_lanes(rows))
        return self.prepare_batch(packed)

    def run_streams(
        self, vectors: Sequence[Sequence[int]]
    ) -> None:
        """Simulate a batch of vectors, round-robin across the lanes."""
        self.run_prepared(self.prepare_streams(vectors))

    def final_values_per_lane(self) -> list[dict[str, int]]:
        """Settled monitored values of every lane after the last step."""
        state = dict(zip(
            (identifier for _n, _t, identifier in self.variables.ordered),
            self.machine.dump_state(),
        ))
        result = []
        for lane in range(self.lanes):
            result.append({
                net_name: (state[self.variables.final_var(net_name)]
                           >> lane) & 1
                for net_name in self.monitored
            })
        return result
