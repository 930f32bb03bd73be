"""Full cross-technique agreement matrix on structured circuits.

Beyond random DAGs, the compiled techniques must agree on circuits
with the structures the paper's benchmarks contain: deep carry chains
(c6288-like), XOR trees (c499/c1355-like), wide control logic
(c2670-like), and mixed datapaths.  Each case runs the full technique
matrix against the event-driven reference over a shared vector tape,
through all three execution shapes: scalar per-vector histories,
chunked ``apply_vectors`` batches, and the pattern-packed lanes.
"""

import zlib

import pytest

from repro.harness.compare import PACKED_TECHNIQUES, cross_validate
from repro.harness.vectors import vectors_for
from repro.netlist.builder import CircuitBuilder
from repro.netlist.generators import (
    array_multiplier,
    equality_comparator,
    hamming_encoder,
    mux_tree,
    parity_tree,
    ripple_carry_adder,
)

ALL_TECHNIQUES = (
    "pcset",
    "parallel",
    "parallel-trim",
    "parallel-pathtrace",
    "parallel-cyclebreak",
    "parallel-best",
)


def _wide_control(width=6):
    """Decoder-driven AND-OR control block (c2670-ish flavour)."""
    b = CircuitBuilder("control")
    selects = b.inputs(*[f"S{i}" for i in range(3)])
    data = b.inputs(*[f"D{i}" for i in range(width)])
    inverted = [b.not_(f"N{i}", s) for i, s in enumerate(selects)]
    terms = []
    for code in range(width):
        picks = [
            selects[i] if (code >> i) & 1 else inverted[i]
            for i in range(3)
        ]
        terms.append(b.and_(None, data[code], *picks))
    b.outputs(b.or_("Y", *terms))
    return b.build()


CASES = [
    ("ripple-adder", lambda: ripple_carry_adder(5)),
    ("multiplier", lambda: array_multiplier(3)),
    ("parity-tree", lambda: parity_tree(9)),
    ("hamming", lambda: hamming_encoder(11)),
    ("comparator", lambda: equality_comparator(4)),
    ("mux", lambda: mux_tree(3)),
    ("control", _wide_control),
]


def _case_seed(label):
    # crc32, not hash(): str hashing is salted per interpreter run and
    # the tape must be the same on every rerun.
    return zlib.crc32(label.encode()) % 1000


def _case_tape(factory, label, count=6):
    circuit = factory()
    return circuit, vectors_for(circuit, count, seed=_case_seed(label))


@pytest.mark.parametrize("label,factory", CASES,
                         ids=[c[0] for c in CASES])
def test_all_techniques_agree(label, factory):
    circuit, vectors = _case_tape(factory, label)
    checks = cross_validate(
        circuit, vectors, techniques=ALL_TECHNIQUES, word_width=32
    )
    assert checks == len(ALL_TECHNIQUES) * len(vectors)


@pytest.mark.parametrize("batch_size", [1, 2, 0])
@pytest.mark.parametrize("label,factory", CASES,
                         ids=[c[0] for c in CASES])
def test_batched_execution_agrees(label, factory, batch_size):
    # Same circuits, same shared tape as the scalar matrix, driven
    # through the apply_vectors block path in chunks (0 = one block).
    circuit, vectors = _case_tape(factory, label)
    checks = cross_validate(
        circuit, vectors, techniques=ALL_TECHNIQUES, word_width=32,
        execution="batched", batch_size=batch_size,
    )
    # Each technique is checked twice per vector: the anchoring scalar
    # loop and the raw-word comparison of the batched run against it.
    assert checks == 2 * len(ALL_TECHNIQUES) * len(vectors)


@pytest.mark.parametrize("word_width", [8, 64])
@pytest.mark.parametrize("label,factory", CASES,
                         ids=[c[0] for c in CASES])
def test_packed_execution_agrees(label, factory, word_width):
    # The pattern-lane observation paths over the same shared tape:
    # pcset's settled_outputs and zero-lcc's auto-packed apply_vectors.
    circuit, vectors = _case_tape(factory, label)
    checks = cross_validate(
        circuit, vectors, techniques=PACKED_TECHNIQUES,
        word_width=word_width, execution="packed", batch_size=3,
    )
    assert checks == len(PACKED_TECHNIQUES) * len(vectors)


@pytest.mark.parametrize("label,factory", CASES[:3],
                         ids=[c[0] for c in CASES[:3]])
def test_all_techniques_agree_narrow_words(label, factory):
    # 8-bit words force multi-word fields even on shallow circuits.
    circuit = factory()
    vectors = vectors_for(circuit, 4, seed=7)
    cross_validate(
        circuit, vectors, techniques=ALL_TECHNIQUES, word_width=8
    )
