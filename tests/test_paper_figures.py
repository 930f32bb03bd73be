"""One test per mechanism figure of the paper (Figs. 1-18).

Each test builds the figure's example network and checks that this
implementation reproduces what the figure shows: generated code, PC
sets, bit-field contents, alignments, or retained shifts.
"""

import pytest

from repro.analysis.graph import UndirectedNetworkGraph, fundamental_cycles, cycle_weight
from repro.analysis.pcsets import compute_pc_sets
from repro.eventsim.simulator import EventDrivenSimulator
from repro.lcc.zerodelay import generate_lcc_program
from repro.netlist.builder import CircuitBuilder
from repro.parallel.aligned_codegen import generate_aligned_program
from repro.parallel.alignment import unoptimized_shift_count
from repro.parallel.codegen import generate_parallel_program
from repro.parallel.cyclebreak import cycle_breaking_alignment
from repro.parallel.pathtrace import path_tracing_alignment
from repro.parallel.simulator import ParallelSimulator
from repro.pcset.codegen import generate_pcset_program
from repro.pcset.simulator import PCSetSimulator


def test_fig1_lcc_code(fig1_circuit):
    """Fig. 1: levelized compiled code `D = A & B; E = C & D;`."""
    source = generate_lcc_program(fig1_circuit).python_source()
    assert "D = A & B" in source
    assert "E = C & D" in source
    assert source.index("D = A & B") < source.index("E = C & D")


def test_fig2_gate_pc_sets():
    """Fig. 2: inputs {2,3}, {3}, {2,4} -> gate PC-set {3,4,5}."""
    b = CircuitBuilder("fig2")
    a = b.input("A")
    d1 = b.buf(None, a)
    d2 = b.buf(None, d1)
    d3 = b.buf(None, d2)
    in1 = b.or_("IN1", d1, d2)
    in2 = b.buf("IN2", d2)
    in3 = b.or_("IN3", d1, d3)
    g = b.and_("G", in1, in2, in3)
    b.outputs(g)
    pc = compute_pc_sets(b.build())
    assert pc.net_pc_set("IN1") == (2, 3)
    assert pc.net_pc_set("IN2") == (3,)
    assert pc.net_pc_set("IN3") == (2, 4)
    assert pc.gate_pc_set("G") == (3, 4, 5)


def test_fig3_zero_added_to_non_minimal_inputs():
    """Fig. 3: inputs whose minlevel is not minimal get a zero."""
    b = CircuitBuilder("fig3")
    a = b.input("A")
    d1 = b.buf(None, a)
    d2 = b.buf(None, d1)
    d3 = b.buf(None, d2)
    in1 = b.or_("IN1", d1, d2)   # minlevel 2
    in2 = b.buf("IN2", d2)       # minlevel 3
    in3 = b.or_("IN3", d1, d3)   # minlevel 2
    g = b.and_("G", in1, in2, in3)
    b.outputs(g)
    pc = compute_pc_sets(b.build())
    added = pc.apply_zero_insertion()
    assert "IN2" in added
    assert "IN1" not in added and "IN3" not in added
    assert pc.net_pc_set("IN2") == (0, 3)


def test_fig4_pcset_code(fig4_circuit):
    """Fig. 4: the PC-set method's generated code, verbatim."""
    program, _ = generate_pcset_program(fig4_circuit)
    expected = ["D_0 = D_1", "A_0 = V[0]", "B_0 = V[1]", "C_0 = V[2]",
                "D_1 = A_0 & B_0", "E_1 = D_0 & C_0", "E_2 = D_1 & C_0"]
    source = program.python_source()
    positions = [source.index(line) for line in expected]
    assert positions == sorted(positions)


def test_fig5_and_fig7_bitfield_contents(fig4_circuit):
    """Figs. 5/7: the bit-fields computed for the Fig. 2 network.

    Start from steady state A=B=C=0 (so D=E=0) and apply A=B=C=1.
    D's field must read 0 at t=0 and 1 from t=1 on; E's field 0 at
    t<=1 (E(1) = D(0)&C(0) = 0) and 1 from t=2.
    """
    sim = ParallelSimulator(fig4_circuit, word_width=8)
    sim.reset([0, 0, 0])
    sim.apply_vector([1, 1, 1])
    fields = sim._state_words()
    assert fields["A"][0] == 0xFF  # PI: new value in every bit
    assert fields["D"][0] & 0b111 == 0b110
    assert fields["E"][0] & 0b111 == 0b100


def test_fig6_parallel_code(fig4_circuit):
    """Fig. 6: one-word simulation code for the Fig. 2 network."""
    program, _ = generate_parallel_program(fig4_circuit, word_width=8)
    source = program.c_source()
    assert "S->D = (uint8_t)(S->D >> 7U);" in source
    assert "S->E = (uint8_t)(S->E >> 7U);" in source
    assert "S->D = S->D | ((uint8_t)((S->A & S->B) << 1U));" in source
    assert "S->E = S->E | ((uint8_t)((S->D & S->C) << 1U));" in source


def test_fig8_two_word_simulation():
    """Fig. 8: two-word gate simulation uses temps + carry + ORs."""
    b = CircuitBuilder("fig8")
    a, bb = b.inputs("A", "B")
    net = a
    # Depth > 8 so that 8-bit words split the field in two.
    for i in range(11):
        net = b.not_(f"N{i}", net)
    c = b.and_("C", net, bb)
    b.outputs(c)
    program, layout = generate_parallel_program(b.build(), word_width=8)
    assert layout.field("C").num_words == 2
    source = program.c_source()
    assert "tmp0 = S->C" not in source  # temps hold the unshifted result
    assert "tmp0 =" in source and "tmp1 =" in source
    assert "(tmp0 >> 7U)" in source
    assert "(tmp0 << 1U)" in source and "(tmp1 << 1U)" in source


def test_fig9_trimming_operations():
    """Fig. 9: low-final words filled at init, gap words propagated."""
    b = CircuitBuilder("fig9")
    a = b.input("A")
    net = a
    for i in range(20):
        net = b.not_(f"N{i}", net)
    b.outputs(net)
    program, layout = generate_parallel_program(
        b.build(), word_width=8, trimming=True
    )
    from repro.parallel.bitfields import WordClass

    spec = layout.field("N19")  # PC-set {20}
    assert spec.classes == [WordClass.LOW_FINAL, WordClass.LOW_FINAL,
                            WordClass.ACTIVE]
    spec2 = layout.field("N2")  # PC-set {3}
    assert spec2.classes == [WordClass.ACTIVE, WordClass.GAP,
                             WordClass.GAP]
    source = program.c_source()
    # Gap propagation uses the arithmetic-shift replication idiom.
    assert "(sword)" in source


def test_fig10_shift_free_code(fig4_circuit):
    """Fig. 10: alignments {A,B:-1, C,D:0, E:1}; code with no shifts."""
    alignment = path_tracing_alignment(fig4_circuit)
    assert alignment.net_align == {"A": -1, "B": -1, "C": 0, "D": 0,
                                   "E": 1}
    program, _ = generate_aligned_program(
        fig4_circuit, alignment, word_width=8
    )
    source = program.c_source()
    assert "S->D = S->A & S->B;" in source
    assert "S->E = S->D & S->C;" in source
    assert alignment.max_width() == 2  # "reduce ... from 3 to 2"


def test_fig11_one_retained_shift(fig11_circuit):
    """Fig. 11: reconvergent fanout keeps exactly one shift."""
    assert unoptimized_shift_count(fig11_circuit) == 2
    path = path_tracing_alignment(fig11_circuit)
    assert path.retained_shifts() == 1
    cycle = cycle_breaking_alignment(fig11_circuit)
    assert cycle.retained_shifts() == 1


def test_fig12_weight_three_without_reconvergence(fig12_circuit):
    """Fig. 12: no reconvergent fanout, cycle weight 3, shifts remain."""
    graph = UndirectedNetworkGraph(fig12_circuit)
    cycles = fundamental_cycles(graph)
    assert len(cycles) == 1
    assert abs(cycle_weight(cycles[0])) == 3
    assert path_tracing_alignment(fig12_circuit).retained_shifts() >= 1


def test_fig13_undirected_network_graph(fig11_circuit):
    """Fig. 13: the graph of Fig. 11 is cyclic and bipartite."""
    graph = UndirectedNetworkGraph(fig11_circuit)
    assert not graph.is_acyclic()
    for edge in graph.edges:
        assert edge.gate_vertex[0] == "gate"
        assert edge.net_vertex[0] == "net"


def test_fig14_cycle_breaking_can_expand_field():
    """Fig. 14's moral: cycle breaking may widen fields beyond
    path tracing (which never widens them)."""
    # A circuit with rich unequal-depth reconvergence.
    from repro.netlist.random_circuits import random_dag_circuit

    widened = 0
    for seed in range(10):
        circuit = random_dag_circuit(seed, num_inputs=4, num_gates=25)
        depth = circuit.stats().depth
        path = path_tracing_alignment(circuit)
        cycle = cycle_breaking_alignment(circuit)
        assert path.max_width() <= depth + 1
        if cycle.max_width() > depth + 1:
            widened += 1
    assert widened > 0  # expansion does occur in practice


def test_fig15_alignment_rules(fig4_circuit):
    """Fig. 15: output nets share the gate's alignment; inputs sit one
    earlier (checked over the cycle-breaking tree)."""
    from repro.parallel.cyclebreak import spanning_forest

    graph = UndirectedNetworkGraph(fig4_circuit)
    tree, removed = spanning_forest(graph)
    assert not removed  # Fig. 4's network graph is acyclic
    alignment = cycle_breaking_alignment(fig4_circuit)
    for edges in tree.values():
        for edge in edges:
            gate_value = alignment.gate_align[edge.gate]
            net_value = alignment.net_align[edge.net]
            if edge.role == "output":
                assert net_value == gate_value
            else:
                assert net_value == gate_value - 1


def test_fig16_edge_choice_affects_retained_shifts():
    """Fig. 16: which edges are removed changes the retained-shift
    count — cycle breaking is sensitive, path tracing is the baseline."""
    b = CircuitBuilder("fig16ish")
    i1, i2 = b.inputs("I1", "I2")
    n1 = b.not_("N1", i1)
    n2 = b.not_("N2", n1)
    g5 = b.and_("G5", i2, n2)
    g6 = b.and_("G6", n1, g5)
    b.outputs(b.and_("G7", g5, g6))
    circuit = b.build()
    path = path_tracing_alignment(circuit)
    cycle = cycle_breaking_alignment(circuit)
    # Both must simulate correctly regardless of counts:
    reference = EventDrivenSimulator(circuit)
    for algo in ("pathtrace", "cyclebreak"):
        sim = ParallelSimulator(circuit, optimization=algo, word_width=8)
        reference.reset([0, 0])
        sim.reset([0, 0])
        for vector in ([1, 1], [0, 1], [1, 0], [0, 0]):
            assert reference.apply_vector(vector, record=True) == \
                sim.apply_vector_history(vector), algo
    assert path.retained_shifts() >= 1
    assert cycle.retained_shifts() >= 1


def test_fig17_pseudo_code_semantics(fig4_circuit):
    """Fig. 17: alignments initialize high and only relax downward."""
    alignment = path_tracing_alignment(fig4_circuit)
    # E starts at its minlevel (1) as the only primary output.
    assert alignment.net_align["E"] == 1
    # Gates align with their outputs; inputs one earlier.
    assert alignment.gate_align["E"] == 1
    assert alignment.net_align["D"] == 0
    assert alignment.gate_align["D"] == 0


def test_fig18_shifts_move_to_gate_inputs():
    """Fig. 18: a net fanning out to differently-aligned gates is
    shifted per reader, not at its producer."""
    b = CircuitBuilder("fig18")
    a, c = b.inputs("A", "C")
    n = b.not_("N", a)
    fast = b.and_("FAST", n, c)          # short path
    slow1 = b.not_("S1", n)
    slow2 = b.not_("S2", slow1)
    slow = b.and_("SLOW", slow2, c)      # long path
    b.outputs(fast, slow)
    circuit = b.build()
    alignment = path_tracing_alignment(circuit)
    shifts = {
        (g, net): s for g, net, s in alignment.iter_input_shifts()
    }
    # N is read by FAST and S1 at different alignments: the shift
    # amounts differ per reader.
    assert shifts[("FAST", "N")] != shifts[("S1", "N")] or \
        alignment.retained_shifts() >= 1
    # Correctness under those per-reader shifts:
    reference = EventDrivenSimulator(circuit)
    sim = ParallelSimulator(circuit, optimization="pathtrace",
                            word_width=8)
    reference.reset([0, 0])
    sim.reset([0, 0])
    for vector in ([1, 1], [0, 1], [1, 0]):
        assert reference.apply_vector(vector, record=True) == \
            sim.apply_vector_history(vector)
