"""Property-based tests (hypothesis) on the core invariants.

The central contract: for any acyclic circuit, any initial vector and
any vector sequence, every compiled technique produces exactly the
event-driven unit-delay history (DESIGN.md §4).  Circuits are drawn
from a hypothesis strategy that builds arbitrary DAGs with repeated
inputs, constants, unary gates and deep chains.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.analysis.levelize import levelize
from repro.analysis.pcsets import compute_pc_sets
from repro.eventsim.simulator import EventDrivenSimulator
from repro.hazards import classify_changes, classify_field
from repro.logic import GateType
from repro.netlist.bench import parse_bench, write_bench
from repro.netlist.circuit import Circuit
from repro.parallel.cyclebreak import cycle_breaking_alignment
from repro.parallel.pathtrace import path_tracing_alignment
from repro.parallel.simulator import ParallelSimulator
from repro.pcset.multivector import pack_lanes, unpack_lanes
from repro.pcset.simulator import PCSetSimulator

BINARY = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
          GateType.XOR, GateType.XNOR]
UNARY = [GateType.NOT, GateType.BUF]


@st.composite
def circuits(draw, max_inputs=4, max_gates=14):
    """An arbitrary acyclic circuit."""
    num_inputs = draw(st.integers(1, max_inputs))
    num_gates = draw(st.integers(1, max_gates))
    circuit = Circuit("hyp")
    nets = []
    for i in range(num_inputs):
        circuit.add_net(f"I{i}", is_input=True)
        nets.append(f"I{i}")
    for g in range(num_gates):
        kind = draw(st.integers(0, 9))
        out = f"N{g}"
        if kind == 0:
            circuit.add_gate(
                draw(st.sampled_from([GateType.CONST0, GateType.CONST1])),
                out, [],
            )
        elif kind <= 3:
            gate_type = draw(st.sampled_from(UNARY))
            src = nets[draw(st.integers(0, len(nets) - 1))]
            circuit.add_gate(gate_type, out, [src])
        else:
            gate_type = draw(st.sampled_from(BINARY))
            fan_in = draw(st.integers(2, 3))
            inputs = [
                nets[draw(st.integers(0, len(nets) - 1))]
                for _ in range(fan_in)
            ]
            circuit.add_gate(gate_type, out, inputs)
        nets.append(out)
    for net_name, net in circuit.nets.items():
        if net.driver is not None and not net.fanout:
            circuit.add_net(net_name, is_output=True)
    if not circuit.outputs:
        circuit.add_net(nets[-1], is_output=True)
    circuit.validate()
    return circuit


def vectors_strategy(circuit, count):
    width = len(circuit.inputs)
    return st.lists(
        st.lists(st.integers(0, 1), min_size=width, max_size=width),
        min_size=count, max_size=count,
    )


@st.composite
def circuit_with_vectors(draw, num_vectors=4):
    circuit = draw(circuits())
    vectors = draw(vectors_strategy(circuit, num_vectors))
    initial = draw(vectors_strategy(circuit, 1))[0]
    return circuit, initial, vectors


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(max_examples=40, **COMMON)
@given(data=circuit_with_vectors())
def test_pcset_equals_event_driven(data):
    circuit, initial, vectors = data
    reference = EventDrivenSimulator(circuit)
    sim = PCSetSimulator(circuit)
    reference.reset(initial)
    sim.reset(initial)
    for vector in vectors:
        assert reference.apply_vector(vector, record=True) == \
            sim.apply_vector_history(vector)


@settings(max_examples=25, **COMMON)
@given(data=circuit_with_vectors(),
       optimization=st.sampled_from(
           ["none", "trim", "pathtrace", "cyclebreak", "pathtrace+trim"]),
       word_width=st.sampled_from([8, 32]))
def test_parallel_equals_event_driven(data, optimization, word_width):
    circuit, initial, vectors = data
    reference = EventDrivenSimulator(circuit)
    sim = ParallelSimulator(
        circuit, optimization=optimization, word_width=word_width
    )
    reference.reset(initial)
    sim.reset(initial)
    for vector in vectors:
        assert reference.apply_vector(vector, record=True) == \
            sim.apply_vector_history(vector)


@settings(max_examples=60, **COMMON)
@given(circuit=circuits())
def test_pc_sets_are_path_length_sets(circuit):
    from tests.test_pcsets import brute_force_path_lengths

    pc = compute_pc_sets(circuit)
    for net_name in circuit.nets:
        assert set(pc.net_pc_set(net_name)) == \
            brute_force_path_lengths(circuit, net_name)


@settings(max_examples=60, **COMMON)
@given(circuit=circuits())
def test_levelization_bounds(circuit):
    levels = levelize(circuit)
    pc = compute_pc_sets(circuit, levels)
    for net_name in circuit.nets:
        pcset = pc.net_pc_set(net_name)
        assert pcset[0] == levels.net_minlevels[net_name]
        assert pcset[-1] == levels.net_levels[net_name]


@settings(max_examples=40, **COMMON)
@given(circuit=circuits())
def test_pathtrace_invariants(circuit):
    levels = levelize(circuit)
    alignment = path_tracing_alignment(circuit, levels)
    # Right shifts only; no width expansion; alignment <= minlevel.
    for _g, _n, shift in alignment.iter_input_shifts():
        assert shift >= 0
    assert alignment.max_width() <= levels.depth + 1
    for net_name in circuit.nets:
        assert alignment.stored_align(net_name) <= \
            levels.net_minlevels[net_name]


@settings(max_examples=40, **COMMON)
@given(circuit=circuits())
def test_cyclebreak_validates(circuit):
    alignment = cycle_breaking_alignment(circuit)
    alignment.validate()
    # Retained shifts bounded by the graph's cycle rank is NOT a paper
    # claim; but retained shifts never exceed total pins.
    pins = sum(g.fan_in for g in circuit.gates.values())
    assert 0 <= alignment.retained_shifts() <= pins


@settings(max_examples=60, **COMMON)
@given(circuit=circuits())
def test_bench_roundtrip(circuit):
    text = write_bench(circuit)
    back = parse_bench(text, circuit.name)
    assert back.inputs == circuit.inputs
    assert set(back.outputs) == set(circuit.outputs)
    assert len(back.gates) == len(circuit.gates)
    assert write_bench(back) == text


@settings(max_examples=100, deadline=None)
@given(field=st.integers(0, (1 << 12) - 1))
def test_field_classification_matches_change_list(field):
    width = 12
    bits = [(field >> t) & 1 for t in range(width)]
    changes = [(0, bits[0])]
    for t, value in enumerate(bits):
        if value != changes[-1][1]:
            changes.append((t, value))
    assert classify_field(field, width) is classify_changes(changes)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
    min_size=1, max_size=8,
))
def test_pack_unpack_roundtrip(rows):
    words = pack_lanes(rows)
    assert unpack_lanes(words, len(rows)) == rows


@settings(max_examples=25, **COMMON)
@given(data=circuit_with_vectors(num_vectors=3))
def test_parallel_field_bits_satisfy_recurrence(data):
    """Bit t of every field equals f(input bits t-1) — the §3 semantics."""
    from repro.logic import eval_gate

    circuit, initial, vectors = data
    sim = ParallelSimulator(circuit, word_width=32)
    sim.reset(initial)
    depth = sim.depth
    for vector in vectors:
        sim.apply_vector(vector)
        fields = sim._state_words()
        for gate in circuit.gates.values():
            if gate.fan_in == 0:
                continue
            out_bits = fields[gate.output][0]
            for t in range(1, depth + 1):
                inputs_prev = [
                    (fields[i][0] >> (t - 1)) & 1 for i in gate.inputs
                ]
                expected = eval_gate(gate.gate_type, inputs_prev) & 1
                assert (out_bits >> t) & 1 == expected


@settings(max_examples=30, **COMMON)
@given(circuit=circuits())
def test_prune_preserves_outputs(circuit):
    from repro.eventsim.zerodelay import steady_state
    from repro.netlist.transform import prune_dead_logic

    pruned = prune_dead_logic(circuit)
    vector = [1] * len(circuit.inputs)
    full = steady_state(circuit, vector)
    slim = steady_state(pruned, vector)
    for net_name in circuit.outputs:
        assert slim[net_name] == full[net_name]


@settings(max_examples=30, **COMMON)
@given(data=circuit_with_vectors(num_vectors=3))
def test_multidelay_unit_case_matches(data):
    from repro.eventsim.multidelay import MultiDelaySimulator

    circuit, initial, vectors = data
    reference = EventDrivenSimulator(circuit)
    multi = MultiDelaySimulator(circuit, delays=1)
    reference.reset(initial)
    multi.reset(initial)
    for vector in vectors:
        assert reference.apply_vector(vector, record=True) == \
            multi.apply_vector(vector, record=True)


@settings(max_examples=30, **COMMON)
@given(data=circuit_with_vectors(num_vectors=3))
def test_activity_identical_across_engines(data):
    from repro.activity import collect_activity

    circuit, initial, vectors = data
    reports = []
    for simulator in (
        EventDrivenSimulator(circuit),
        PCSetSimulator(circuit),
        ParallelSimulator(circuit, word_width=32),
    ):
        report = collect_activity(simulator, vectors, initial=initial)
        reports.append((report.toggles, report.functional))
    assert reports[0] == reports[1] == reports[2]


@settings(max_examples=15, **COMMON)
@given(data=circuit_with_vectors(num_vectors=4))
def test_parallel_fault_sim_matches_serial(data):
    from repro.faults.model import full_fault_list
    from repro.faults.simulator import (
        run_fault_simulation,
        serial_fault_simulation,
    )

    circuit, initial, vectors = data
    if not circuit.outputs:
        return
    faults = full_fault_list(circuit)[:14]  # bound the work
    # Detection compares settled values: the serial reference run from
    # any initial state grades like the compiled screen, which has none.
    serial = serial_fault_simulation(
        circuit, vectors, faults, initial=initial
    )
    parallel = run_fault_simulation(circuit, vectors, faults, word_width=16)
    assert serial.detected == parallel.detected
    assert set(serial.undetected) == set(parallel.undetected)
