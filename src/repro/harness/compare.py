"""Equivalence checking between simulators.

The correctness contract (DESIGN.md §4): for the same initial steady
state and vector sequence, the event-driven simulator, the PC-set
method, and every parallel-technique variant must produce identical
per-net change histories.  These helpers make that a one-call check,
used by the integration tests, the fuzzing campaign
(:mod:`repro.fuzz`), and users validating their own circuits.

Three execution shapes are checked against the same reference:

- ``execution="scalar"`` — per-vector stepping, full per-net change
  histories (the original, strictest comparison).
- ``execution="batched"`` — the ``apply_vectors`` fast path, driven in
  chunks: raw output words and the final machine state must be
  bit-identical to a scalar loop, whose settled values are in turn
  anchored to the reference.
- ``execution="packed"`` — the pattern-lane path (auto-packed
  ``apply_vectors`` on the LCC program), compared against the
  reference's settled values.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.errors import SimulationError
from repro.eventsim.simulator import EventDrivenSimulator
from repro.netlist.circuit import Circuit

__all__ = [
    "compare_histories",
    "value_at",
    "cross_validate",
    "Mismatch",
    "PACKED_TECHNIQUES",
]

History = dict[str, list[tuple[int, int]]]

#: Techniques with a genuinely pattern-packed observation path.
PACKED_TECHNIQUES = ("zero-lcc",)


def value_at(changes: Sequence[tuple[int, int]], time: int) -> int:
    """Value of a net at ``time`` given its change list."""
    value = changes[0][1]
    for t, v in changes:
        if t > time:
            break
        value = v
    return value


def compare_histories(
    a: History, b: History, nets: Optional[Sequence[str]] = None
) -> list[str]:
    """Net names whose histories differ (empty list = equivalent)."""
    names = nets if nets is not None else sorted(set(a) | set(b))
    return [n for n in names if a.get(n) != b.get(n)]


class Mismatch(AssertionError):
    """Raised by :func:`cross_validate` with full context."""

    def __init__(self, technique: str, vector_index: int,
                 nets: list[str], detail: str) -> None:
        super().__init__(
            f"{technique}: vector #{vector_index} disagrees on nets "
            f"{nets[:5]}{'...' if len(nets) > 5 else ''}\n{detail}"
        )
        self.technique = technique
        self.vector_index = vector_index
        self.nets = nets


def _chunks(
    vectors: Sequence[Sequence[int]], batch_size: Optional[int]
) -> Iterator[Sequence[Sequence[int]]]:
    if not batch_size or batch_size <= 0 or batch_size >= len(vectors):
        yield vectors
        return
    for start in range(0, len(vectors), batch_size):
        yield vectors[start:start + batch_size]


def _settled_reference(histories: Sequence[History]) -> list[dict[str, int]]:
    """Per-vector settled value of every net, from recorded histories."""
    return [
        {net: changes[-1][1] for net, changes in history.items()}
        for history in histories
    ]


def cross_validate(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    techniques: Sequence[str] = ("pcset", "parallel", "parallel-trim",
                                 "parallel-pathtrace",
                                 "parallel-cyclebreak", "parallel-best"),
    *,
    initial: Optional[Sequence[int]] = None,
    backend: str = "python",
    word_width: int = 32,
    execution: str = "scalar",
    batch_size: Optional[int] = None,
) -> int:
    """Check every technique against the event-driven reference.

    Simulates all ``vectors`` with the two-valued event-driven
    simulator and with each compiled technique.  ``execution`` selects
    the compiled path under test: ``"scalar"`` steps per vector and
    compares full per-net change histories; ``"batched"`` drives the
    ``apply_vectors`` block path in ``batch_size`` chunks and requires
    bit-identical raw output words and final machine state versus a
    scalar loop whose settled values match the reference;
    ``"packed"`` drives the pattern-lane observation path
    (:data:`PACKED_TECHNIQUES`) and compares settled values against
    the reference.  Returns the number of per-vector comparisons
    performed; raises :class:`Mismatch` on the first disagreement.
    """
    if execution not in ("scalar", "batched", "packed"):
        raise SimulationError(
            f"execution must be 'scalar', 'batched' or 'packed': "
            f"{execution!r}"
        )
    zeros = list(initial) if initial is not None else [0] * len(
        circuit.inputs
    )
    reference = EventDrivenSimulator(circuit, logic="two")
    reference_histories: list[History] = []
    reference.reset(zeros)
    for vector in vectors:
        reference_histories.append(
            reference.apply_vector(vector, record=True)
        )

    checks = 0
    for technique in techniques:
        if execution == "scalar":
            checks += _validate_scalar(
                circuit, technique, vectors, zeros,
                reference_histories, backend, word_width,
            )
        elif execution == "batched":
            checks += _validate_batched(
                circuit, technique, vectors, zeros,
                reference_histories, backend, word_width, batch_size,
            )
        else:
            checks += _validate_packed(
                circuit, technique, vectors,
                reference_histories, backend, word_width, batch_size,
            )
    return checks


def _validate_scalar(
    circuit: Circuit,
    technique: str,
    vectors: Sequence[Sequence[int]],
    zeros: Sequence[int],
    reference_histories: Sequence[History],
    backend: str,
    word_width: int,
) -> int:
    from repro.harness.runner import build_simulator

    sim = build_simulator(
        circuit, technique, backend=backend, word_width=word_width,
    )
    sim.reset(zeros)
    checks = 0
    for index, vector in enumerate(vectors):
        got = sim.apply_vector_history(vector)
        bad = compare_histories(reference_histories[index], got)
        if bad:
            net = bad[0]
            detail = (
                f"  net {net!r}: reference "
                f"{reference_histories[index][net]} vs {got[net]}"
            )
            raise Mismatch(technique, index, bad, detail)
        checks += 1
    return checks


def _validate_batched(
    circuit: Circuit,
    technique: str,
    vectors: Sequence[Sequence[int]],
    zeros: Sequence[int],
    reference_histories: Sequence[History],
    backend: str,
    word_width: int,
    batch_size: Optional[int],
) -> int:
    """The ``apply_vectors`` path: chunked batches vs. a scalar loop.

    The scalar loop is itself anchored to the reference — after every
    vector its decoded settled values must match the event-driven
    settled state — and the batched run must then reproduce the scalar
    loop's raw output words and final machine state bit for bit.
    """
    from repro.harness.runner import build_simulator

    settled_ref = _settled_reference(reference_histories)

    def fresh():
        sim = build_simulator(
            circuit, technique, backend=backend, word_width=word_width,
        )
        if not hasattr(sim, "apply_vectors") or not hasattr(
            sim, "final_values"
        ):
            raise SimulationError(
                f"{technique!r} has no batched execution path"
            )
        sim.reset(zeros)
        return sim

    scalar = fresh()
    checks = 0
    expected: list[list[int]] = []
    for index, vector in enumerate(vectors):
        expected.append(scalar.apply_vector(vector))
        finals = scalar.final_values()
        bad = [
            net for net, value in finals.items()
            if value != settled_ref[index][net]
        ]
        if bad:
            net = bad[0]
            detail = (
                f"  settled net {net!r}: reference "
                f"{settled_ref[index][net]} vs {finals[net]}"
            )
            raise Mismatch(f"{technique}[scalar]", index, bad, detail)
        checks += 1

    batched = fresh()
    got: list[list[int]] = []
    for chunk in _chunks(vectors, batch_size):
        got.extend(batched.apply_vectors(chunk))
    for index, (want, out) in enumerate(zip(expected, got)):
        if want != out:
            detail = f"  raw output words: scalar {want} vs batched {out}"
            raise Mismatch(f"{technique}[batched]", index, [], detail)
        checks += 1
    if batched.machine.dump_state() != scalar.machine.dump_state():
        raise Mismatch(
            f"{technique}[batched]", len(vectors) - 1, [],
            "  final machine state diverged from the scalar loop",
        )
    return checks


def _validate_packed(
    circuit: Circuit,
    technique: str,
    vectors: Sequence[Sequence[int]],
    reference_histories: Sequence[History],
    backend: str,
    word_width: int,
    batch_size: Optional[int],
) -> int:
    """The pattern-lane observation path vs. reference settled values.

    ``zero-lcc`` auto-packs ``apply_vectors``, and its bit-0 outputs
    are the settled values of the monitored nets (zero-delay settled
    == unit-delay settled in an acyclic circuit).  The high bits of
    those words come from the packed path's fill group, which no
    settled value shows, so the full raw words must also equal those
    of the same simulator built with ``packed=False`` on the same
    backend.
    """
    from repro.harness.runner import build_simulator

    settled_ref = _settled_reference(reference_histories)
    if technique not in PACKED_TECHNIQUES:
        raise SimulationError(
            f"{technique!r} has no packed observation path; choose "
            f"from {PACKED_TECHNIQUES}"
        )
    sim = build_simulator(
        circuit, technique, backend=backend, word_width=word_width,
    )
    scalar = build_simulator(
        circuit, technique, backend=backend, word_width=word_width,
        packed=False,
    )
    checks = 0
    index = 0
    for chunk in _chunks(vectors, batch_size):
        raw = sim.apply_vectors(chunk)
        expected = scalar.apply_vectors(chunk)
        rows = [
            {net: value & 1 for net, value in zip(circuit.outputs, out)}
            for out in raw
        ]
        for offset, row in enumerate(rows):
            bad = [
                net for net, value in row.items()
                if value != settled_ref[index][net]
            ]
            if bad:
                net = bad[0]
                detail = (
                    f"  settled net {net!r}: reference "
                    f"{settled_ref[index][net]} vs {row[net]}"
                )
                raise Mismatch(f"{technique}[packed]", index, bad, detail)
            checks += 1
            if raw[offset] != expected[offset]:
                detail = (
                    f"  raw output words: scalar {expected[offset]} vs "
                    f"packed {raw[offset]}"
                )
                raise Mismatch(f"{technique}[packed]", index, [], detail)
            index += 1
    return checks
