"""Tests for shift elimination: alignments, path tracing, cycle breaking."""

import pytest

import random

from repro.analysis.levelize import levelize
from repro.errors import AlignmentError
from repro.netlist.builder import CircuitBuilder
from repro.netlist.iscas85 import ISCAS85_SPECS, make_circuit
from repro.netlist.random_circuits import layered_circuit, random_dag_circuit
from repro.parallel.alignment import Alignment, unoptimized_shift_count
from repro.parallel.cyclebreak import cycle_breaking_alignment, spanning_forest
from repro.parallel.pathtrace import path_tracing_alignment
from repro.analysis.graph import UndirectedNetworkGraph


class TestFig10PathTracing:
    """Fig. 10: the optimized Fig. 4 network needs zero shifts."""

    def test_alignments_match_paper(self, fig4_circuit):
        alignment = path_tracing_alignment(fig4_circuit)
        # "the alignment of net E must be ... set to 1, the alignment of
        # nets C and D can be set to zero ... A and B to minus one."
        assert alignment.net_align["E"] == 1
        assert alignment.net_align["D"] == 0
        assert alignment.net_align["C"] == 0
        assert alignment.net_align["A"] == -1
        assert alignment.net_align["B"] == -1

    def test_all_shifts_eliminated(self, fig4_circuit):
        alignment = path_tracing_alignment(fig4_circuit)
        assert alignment.retained_shifts() == 0

    def test_width_reduced_to_two(self, fig4_circuit):
        # "it is also possible to reduce the width of the bit-fields
        # from 3 to 2."
        alignment = path_tracing_alignment(fig4_circuit)
        assert alignment.max_width() == 2


class TestFig11:
    """Fig. 11: reconvergent fanout along unequal paths keeps 1 shift."""

    def test_one_shift_retained(self, fig11_circuit):
        for build in (path_tracing_alignment, cycle_breaking_alignment):
            alignment = build(fig11_circuit)
            assert alignment.retained_shifts() == 1, build.__name__


class TestFig12:
    """Fig. 12: a weight-3 cycle without reconvergent fanout."""

    def test_shifts_retained(self, fig12_circuit):
        path = path_tracing_alignment(fig12_circuit)
        cycle = cycle_breaking_alignment(fig12_circuit)
        # Some shift(s) must survive in both algorithms.
        assert path.retained_shifts() >= 1
        assert cycle.retained_shifts() >= 1
        # Cycle breaking concentrates the mismatch in one place: the
        # total shifted *bits* can differ between the algorithms, but
        # the magnitude-3 imbalance appears somewhere.
        path_total = sum(
            abs(s) for _g, _n, s in path.iter_input_shifts() if s
        )
        assert path_total >= 3


class TestPathTracingProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_right_shifts_only(self, seed):
        circuit = random_dag_circuit(seed, num_inputs=4, num_gates=22)
        alignment = path_tracing_alignment(circuit)
        for _gate, _net, shift in alignment.iter_input_shifts():
            assert shift >= 0

    @pytest.mark.parametrize("seed", range(8))
    def test_never_expands_bit_field(self, seed):
        circuit = random_dag_circuit(seed, num_inputs=4, num_gates=22)
        depth = levelize(circuit).depth
        alignment = path_tracing_alignment(circuit)
        assert alignment.max_width() <= depth + 1

    @pytest.mark.parametrize("seed", range(8))
    def test_alignment_below_minlevel(self, seed):
        circuit = random_dag_circuit(seed, num_inputs=4, num_gates=22)
        levels = levelize(circuit)
        alignment = path_tracing_alignment(circuit)
        for net_name in circuit.nets:
            assert alignment.stored_align(net_name) <= \
                levels.net_minlevels[net_name]

    def test_fanout_free_region_shiftless(self):
        # "any fanout-free region of the circuit will be simulated
        # without shifts" — a pure tree has no fanout at all.
        b = CircuitBuilder("tree")
        leaves = b.inputs(*[f"I{i}" for i in range(8)])
        layer = list(leaves)
        while len(layer) > 1:
            layer = [
                b.and_(None, layer[i], layer[i + 1])
                for i in range(0, len(layer), 2)
            ]
        b.outputs(layer[0])
        alignment = path_tracing_alignment(b.build())
        assert alignment.retained_shifts() == 0

    def test_gate_aligned_with_its_output(self, small_random_circuit):
        alignment = path_tracing_alignment(small_random_circuit)
        for gate in small_random_circuit.gates.values():
            assert alignment.gate_align[gate.name] == \
                alignment.stored_align(gate.output)


def _worklist_alignment(circuit):
    """Fig. 17 as its worklist of mutually recursive relaxations, the
    reference the one-sweep path tracing must match: a net aligned at
    ``x`` pulls its driver to ``x``, a gate aligned at ``x`` pulls its
    inputs to ``x - 1``, and only strictly smaller values propagate."""
    levels = levelize(circuit)
    minlevel = levels.net_minlevels
    infinity = 10**9
    net_align = dict.fromkeys(circuit.nets, infinity)
    gate_align = dict.fromkeys(circuit.gates, infinity)
    stack = []

    def relax_net(name, value):
        if value < net_align[name]:
            net_align[name] = value
            driver = circuit.nets[name].driver
            if driver is not None:
                stack.append((relax_gate, driver, value))

    def relax_gate(name, value):
        if value < gate_align[name]:
            gate_align[name] = value
            for net_name in circuit.gates[name].inputs:
                stack.append((relax_net, net_name, value - 1))

    outputs = set(circuit.outputs)
    starts = list(circuit.outputs) + [
        name for name, net in circuit.nets.items()
        if not net.fanout and name not in outputs
    ]
    for start in starts:
        relax_net(start, minlevel[start])
        while stack:
            relax, name, value = stack.pop()
            relax(name, value)
    # Every net of an acyclic circuit reaches a sink.
    assert infinity not in net_align.values()
    assert infinity not in gate_align.values()
    alignment = Alignment(circuit, net_align, gate_align, "pathtrace",
                          levels)
    alignment.normalize()
    return alignment


def _random_sweep_circuits():
    """120 random circuits.  Half are random DAGs, some with extra
    outputs that fan out; half are layered circuits whose outputs leave
    some sinks unmonitored or take nets with fanout."""
    rng = random.Random(1990)
    for seed in range(60):
        circuit = random_dag_circuit(
            seed, num_inputs=rng.randint(1, 8),
            num_gates=rng.randint(1, 80), max_fan_in=rng.randint(2, 4),
        )
        if seed % 2:
            driven = sorted(n for n, net in circuit.nets.items()
                            if net.fanout and net.driver is not None)
            for name in rng.sample(driven, min(3, len(driven))):
                circuit.add_net(name, is_output=True)
        yield circuit
    for seed in range(60):
        gates = rng.randint(10, 120)
        yield layered_circuit(
            seed, num_inputs=rng.randint(2, 10), num_gates=gates,
            depth=rng.randint(2, min(gates, 20)),
            num_outputs=rng.randint(1, 12),
        )


class TestPathTracingSweep:
    """The one-sweep fixpoint equals Fig. 17's worklist."""

    @staticmethod
    def _check(circuit):
        sweep = path_tracing_alignment(circuit)
        reference = _worklist_alignment(circuit)
        assert sweep.net_align == reference.net_align, circuit.name
        assert sweep.gate_align == reference.gate_align, circuit.name

    @pytest.mark.parametrize("name", sorted(ISCAS85_SPECS))
    def test_matches_worklist_on_analogs(self, name):
        self._check(make_circuit(name, seed=1990))

    def test_matches_worklist_on_paper_figures(
        self, fig1_circuit, fig4_circuit, fig11_circuit, fig12_circuit
    ):
        for circuit in (fig1_circuit, fig4_circuit, fig11_circuit,
                        fig12_circuit):
            self._check(circuit)

    def test_matches_worklist_on_random_circuits(self):
        circuits = list(_random_sweep_circuits())
        assert len(circuits) >= 100
        # Both start kinds occur: unmonitored sinks and outputs that
        # fan out.
        assert any(
            not net.fanout and name not in c.outputs
            for c in circuits for name, net in c.nets.items()
        )
        assert any(c.nets[o].fanout for c in circuits for o in c.outputs)
        for circuit in circuits:
            self._check(circuit)


class TestCycleBreaking:
    def test_spanning_forest_counts(self, fig11_circuit):
        graph = UndirectedNetworkGraph(fig11_circuit)
        tree, removed = spanning_forest(graph)
        kept = sum(len(edges) for edges in tree.values()) // 2
        assert kept + len(removed) == graph.num_edges
        assert len(removed) == graph.cycle_rank()

    @pytest.mark.parametrize("seed", range(8))
    def test_tree_edges_consistent(self, seed):
        # Along every kept (tree) edge, conditions 2-4 hold exactly.
        circuit = random_dag_circuit(seed, num_inputs=4, num_gates=22)
        graph = UndirectedNetworkGraph(circuit)
        tree, _removed = spanning_forest(graph)
        alignment = cycle_breaking_alignment(circuit)
        seen = set()
        for edges in tree.values():
            for edge in edges:
                if edge.key in seen:
                    continue
                seen.add(edge.key)
                gate_value = alignment.gate_align[edge.gate]
                net_value = alignment.net_align[edge.net]
                if edge.role == "output":
                    assert net_value == gate_value
                else:
                    assert net_value == gate_value - 1

    @pytest.mark.parametrize("seed", range(8))
    def test_validates_after_normalization(self, seed):
        circuit = random_dag_circuit(seed, num_inputs=4, num_gates=22)
        alignment = cycle_breaking_alignment(circuit)
        alignment.validate()  # raises on violation

    def test_left_shifts_possible(self):
        # The Fig. 11 network traversed from C assigns B = a(AND)-1,
        # and the removed NOT edge shows up as a shift of either sign.
        b = CircuitBuilder("f11")
        a = b.input("A")
        bn = b.not_("B", a)
        c = b.and_("C", a, bn)
        b.outputs(c)
        alignment = cycle_breaking_alignment(b.build())
        shifts = [s for _g, _n, s in alignment.iter_input_shifts() if s]
        assert len(shifts) == 1


class TestAlignmentContainer:
    def test_unoptimized_shift_count(self, fig4_circuit):
        assert unoptimized_shift_count(fig4_circuit) == 2

    def test_width_formula(self, fig4_circuit):
        levels = levelize(fig4_circuit)
        alignment = Alignment(
            fig4_circuit,
            {n: 0 for n in fig4_circuit.nets},
            {g: 0 for g in fig4_circuit.gates},
            "manual",
            levels,
        )
        # width = level - alignment + 1
        assert alignment.width("E") == 3
        assert alignment.width("A") == 1
        assert alignment.max_width() == 3

    def test_validate_catches_lost_changes(self, fig4_circuit):
        levels = levelize(fig4_circuit)
        alignment = Alignment(
            fig4_circuit,
            {n: 5 for n in fig4_circuit.nets},
            {g: 5 for g in fig4_circuit.gates},
            "manual",
            levels,
        )
        with pytest.raises(AlignmentError, match="changes would be lost"):
            alignment.validate()

    def test_normalize_slides_to_legality(self, fig4_circuit):
        levels = levelize(fig4_circuit)
        alignment = Alignment(
            fig4_circuit,
            {n: 5 for n in fig4_circuit.nets},
            {g: 5 for g in fig4_circuit.gates},
            "manual",
            levels,
        )
        # Every pin shift is (5-1) - 5 = -1 (left), so the binding net
        # is A: bound = minlevel - 1 = -1, excess = 5 - (-1) = 6.
        delta = alignment.normalize()
        assert delta == 6
        alignment.validate()

    def test_left_shift_needs_strict_margin(self):
        # B read with a left shift must sit strictly below its minlevel.
        b = CircuitBuilder("strict")
        a = b.input("A")
        n1 = b.buf("N1", a)
        n2 = b.buf("N2", n1)
        out = b.and_("OUT", n1, n2)
        b.outputs(out)
        circuit = b.build()
        levels = levelize(circuit)
        # Force a left shift: align N2's reader below N2's storage.
        alignment = Alignment(
            circuit,
            {"A": 0, "N1": 1, "N2": 2, "OUT": 2},
            {"N1": 1, "N2": 2, "OUT": 2},
            "manual",
            levels,
        )
        # OUT reads N2 with shift (2-1) - 2 = -1 (left); stored align
        # of N2 is 2 = minlevel -> must fail strict check.
        with pytest.raises(AlignmentError, match="left shift"):
            alignment.validate()

    def test_repr(self, fig4_circuit):
        alignment = path_tracing_alignment(fig4_circuit)
        assert "pathtrace" in repr(alignment)
