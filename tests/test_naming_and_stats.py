"""Tests for identifier allocation and the static circuit report."""

import pytest

from repro.analysis.stats import circuit_report
from repro.codegen.naming import _RESERVED, NameAllocator, sanitize_identifier
from repro.codegen.runtime import have_c_compiler
from repro.eventsim.zerodelay import steady_state
from repro.harness.compare import cross_validate
from repro.harness.vectors import vectors_for
from repro.lcc.zerodelay import LCCSimulator
from repro.netlist.bench import parse_bench
from repro.netlist.builder import CircuitBuilder
from repro.pcset.simulator import PCSetSimulator

BACKENDS = ["python"] + (["c"] if have_c_compiler() else [])


class TestSanitize:
    def test_plain_names_pass_through(self):
        assert sanitize_identifier("G17") == "G17"
        assert sanitize_identifier("net_4") == "net_4"

    def test_invalid_characters_replaced(self):
        assert sanitize_identifier("I<3>") == "I_3_"
        assert sanitize_identifier("a.b/c") == "a_b_c"

    def test_leading_digit_prefixed(self):
        assert sanitize_identifier("118gat") == "n118gat"

    def test_reserved_words_suffixed(self):
        assert sanitize_identifier("V") == "V_"
        assert sanitize_identifier("while") == "while_"
        assert sanitize_identifier("word") == "word_"

    def test_empty_name(self):
        assert sanitize_identifier("") == "n"


class TestNameAllocator:
    def test_stable_per_key(self):
        names = NameAllocator()
        assert names.get("x") == names.get("x")

    def test_collisions_get_suffixes(self):
        names = NameAllocator()
        first = names.get("a.b")
        second = names.get("a/b")
        assert first == "a_b"
        assert second == "a_b_1"
        assert "a.b" in names
        assert "zzz" not in names

    def test_suggestion_used(self):
        names = NameAllocator()
        assert names.get("net@3", "net_3") == "net_3"


class TestAwkwardNetNames:
    def test_pcset_handles_hostile_names(self):
        b = CircuitBuilder("hostile")
        b._circuit.add_net("1in", is_input=True)
        b._circuit.add_net("V", is_input=True)
        b._circuit.add_gate(
            __import__("repro.logic", fromlist=["GateType"]).GateType.AND,
            "out<0>", ["1in", "V"],
        )
        b._circuit.add_net("out<0>", is_output=True)
        circuit = b.build()
        sim = PCSetSimulator(circuit)
        sim.reset([0, 0])
        sim.apply_vector([1, 1])
        assert sim.final_values() == {"out<0>": 1}


#: Names the generated code uses for itself: the Python coroutine's
#: locals, and the C library's macros, types and functions.
EMITTER_NAMES = {
    "V", "OUT", "S", "MASK", "OUTMASK", "HBIT", "cmd", "machine", "op",
    "VS", "_append", "_s", "_popcount", "NOINLINE", "word", "sword",
    "step", "run_block", "run_packed_block", "pack_lanes",
    "unpack_lanes", "screen", "popcount_w", "ctz_w", "fold_rows",
}


def _reserved_netlist(rename=lambda word: word) -> str:
    """``.bench`` text with one net named after each reserved word.

    The first three words are inputs; each later one is a gate over
    the net just before it and one further back, and every third gate
    (the last one too) drives an output.
    """
    words = [rename(word) for word in sorted(_RESERVED | EMITTER_NAMES)]
    gates = ("NAND", "XOR", "OR", "AND", "NOR", "XNOR")
    outputs = words[3::3] + ([] if len(words) % 3 == 1 else words[-1:])
    lines = [f"INPUT({word})" for word in words[:3]]
    lines += [f"OUTPUT({word})" for word in outputs]
    lines += [
        f"{words[k]} = {gates[k % len(gates)]}({words[k - 1]}, "
        f"{words[k // 2]})"
        for k in range(3, len(words))
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("backend", BACKENDS)
def test_reserved_words_as_net_names(backend):
    """Nets may carry any name the emitters use for themselves.

    PC-set and the five parallel optimizations match the event-driven
    reference; zero-delay LCC, plain and probed, matches the settled
    reference and its twin with every net renamed, toggle for toggle.
    """
    circuit = parse_bench(_reserved_netlist(), "reserved")
    twin = parse_bench(
        _reserved_netlist(lambda word: f"net_{word}"), "reserved"
    )
    vectors = vectors_for(circuit, 8, seed=5)
    assert cross_validate(
        circuit, vectors, backend=backend, word_width=8
    ) == 6 * len(vectors)
    settled = [
        {o: steady_state(circuit, v)[o] for o in circuit.outputs}
        for v in vectors
    ]
    for probes in (None, True):
        sims = [
            LCCSimulator(c, backend=backend, word_width=8, probes=probes)
            for c in (circuit, twin)
        ]
        for sim in sims:
            sim.reset()
        assert sims[0].apply_vectors(vectors) == \
            sims[1].apply_vectors(vectors)
        if probes:
            toggles = sims[0].activity_report().toggles
            assert {f"net_{n}": t for n, t in toggles.items()} == \
                sims[1].activity_report().toggles
        assert [sims[0].evaluate(v) for v in vectors] == settled


class TestCircuitReport:
    def test_full_report(self, fig4_circuit):
        report = circuit_report(fig4_circuit, word_width=8)
        assert report["gates"] == 2
        assert report["depth"] == 2
        assert report["levels"] == 3
        assert report["words"] == 1
        assert report["pc_elements"] == 6
        assert report["shifts_unoptimized"] == 2
        assert report["shifts_pathtrace"] == 0
        assert report["width_unoptimized"] == 3
        assert report["width_pathtrace"] == 2

    def test_fast_report_skips_alignments(self, fig4_circuit):
        report = circuit_report(fig4_circuit, include_alignments=False)
        assert "shifts_pathtrace" not in report
        assert report["nets"] == 5
