"""Tests for compiled clocked simulation of sequential circuits."""

import random

import pytest

from repro.codegen.runtime import have_c_compiler
from repro.errors import SimulationError
from repro.netlist.bench import parse_bench_sequential
from repro.netlist.seqgen import binary_counter, lfsr
from repro.seqsim import CompiledSequentialSimulator

COUNTER = """
INPUT(EN)
OUTPUT(B0)
OUTPUT(B1)
OUTPUT(B2)
Q0 = DFF(D0)
Q1 = DFF(D1)
Q2 = DFF(D2)
D0 = XOR(Q0, EN)
T1 = AND(Q0, EN)
D1 = XOR(Q1, T1)
T2 = AND(Q1, T1)
D2 = XOR(Q2, T2)
B0 = BUF(Q0)
B1 = BUF(Q1)
B2 = BUF(Q2)
"""


def counter():
    return parse_bench_sequential(COUNTER, "counter3")


def decode(outputs):
    return outputs["B0"] | (outputs["B1"] << 1) | (outputs["B2"] << 2)


@pytest.mark.parametrize("engine", ["lcc", "parallel", "pcset"])
def test_counter_counts(engine):
    sim = CompiledSequentialSimulator(counter(), engine=engine)
    values = [decode(sim.step({"EN": 1})) for _ in range(10)]
    assert values == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]


@pytest.mark.parametrize("engine", ["lcc", "parallel"])
def test_enable_gates_counting(engine):
    sim = CompiledSequentialSimulator(counter(), engine=engine)
    sequence = [{"EN": 1}] * 3 + [{"EN": 0}] * 2 + [{"EN": 1}] * 2
    values = [decode(out) for out in sim.run(sequence)]
    assert values == [0, 1, 2, 3, 3, 3, 4]


def test_engines_agree_cycle_for_cycle():
    sims = [
        CompiledSequentialSimulator(counter(), engine=e)
        for e in ("lcc", "parallel", "pcset")
    ]
    rng = random.Random(3)
    for _ in range(25):
        inputs = {"EN": rng.randint(0, 1)}
        outs = [sim.step(inputs) for sim in sims]
        assert outs[0] == outs[1] == outs[2]
        assert sims[0].state == sims[1].state == sims[2].state


def test_intra_cycle_history_shows_carry_ripple():
    sim = CompiledSequentialSimulator(counter(), engine="parallel")
    # Count to 3 so the next edge ripples through T1/T2.
    for _ in range(3):
        sim.step({"EN": 1})
    assert sim.state == {"Q0": 1, "Q1": 1, "Q2": 0}
    outputs, history = sim.step({"EN": 1}, record=True)
    # D2 settles later than D0: the carry chain is visible.
    assert history["D0"][-1][1] == 0
    assert history["D2"][-1][1] == 1
    assert history["D2"][-1][0] >= history["D0"][-1][0]


@pytest.mark.parametrize("engine", ["parallel", "pcset"])
@pytest.mark.parametrize("make", [binary_counter, lfsr])
def test_restore_resumes_intra_cycle_history(make, engine):
    # Regression: the snapshot kept only state and cycle, so the first
    # restored cycle settled from its own inputs and recorded a flat
    # history instead of the ripple the uninterrupted run shows.
    rng = random.Random(8)
    rows = [[rng.randint(0, 1)] for _ in range(8)]
    whole = CompiledSequentialSimulator(make(3), engine=engine)
    histories = [whole.step(row, record=True) for row in rows]
    for split in range(1, 7):
        first = CompiledSequentialSimulator(make(3), engine=engine)
        first.apply_vectors(rows[:split])
        resumed = CompiledSequentialSimulator(make(3), engine=engine)
        resumed.restore(first.snapshot())
        assert [
            resumed.step(row, record=True) for row in rows[split:]
        ] == histories[split:]


def test_snapshot_previous_only_after_a_unit_delay_cycle():
    lcc = CompiledSequentialSimulator(counter(), engine="lcc")
    lcc.step({"EN": 1})
    assert set(lcc.snapshot()) == {"state", "cycle"}
    sim = CompiledSequentialSimulator(counter(), engine="parallel")
    assert set(sim.snapshot()) == {"state", "cycle"}
    sim.step({"EN": 1})
    assert sim.snapshot()["previous"] == [1, 0, 0, 0]
    # A replay checkpoint carries no "previous": the next cycle then
    # settles from its own inputs, with the same outputs.
    fresh = CompiledSequentialSimulator(counter(), engine="parallel")
    fresh.restore({"state": sim.state, "cycle": sim.cycle})
    assert fresh.step({"EN": 1}) == sim.step({"EN": 1})


def test_reset_and_state_injection():
    sim = CompiledSequentialSimulator(counter(), engine="lcc")
    sim.step({"EN": 1})
    sim.reset({"Q0": 1, "Q1": 0, "Q2": 1})
    assert decode(sim.step({"EN": 0})) == 5
    sim.reset()
    assert sim.cycle == 0
    assert decode(sim.step({"EN": 0})) == 0


def test_guards():
    with pytest.raises(SimulationError, match="unknown engine"):
        CompiledSequentialSimulator(counter(), engine="steam")
    sim = CompiledSequentialSimulator(counter(), engine="lcc")
    with pytest.raises(SimulationError, match="unit-delay"):
        sim.step({"EN": 1}, record=True)
    with pytest.raises(SimulationError, match="missing"):
        sim.step({})
    with pytest.raises(SimulationError, match="flip-flops"):
        sim.reset({"Q0": 1})


def test_initial_state_masks_value():
    # Regression: initial_state(1) used to store the raw value, so
    # initial_state(2) or initial_state(True+True) leaked multi-bit
    # words into the single-bit state dict.
    seq = counter()
    assert set(seq.initial_state(3).values()) == {1}
    assert set(seq.initial_state(-1).values()) == {1}
    assert set(seq.initial_state(2).values()) == {0}
    sim = CompiledSequentialSimulator(seq, engine="lcc")
    sim.reset(seq.initial_state(3))
    assert decode(sim.step({"EN": 0})) == 7


def test_unknown_keys_rejected():
    # Regression: unknown keys in step() inputs and reset() state used
    # to be silently dropped (or silently override flip-flop state).
    sim = CompiledSequentialSimulator(counter(), engine="lcc")
    with pytest.raises(SimulationError, match=r"unknown inputs.*TYPO"):
        sim.step({"EN": 1, "TYPO": 0})
    # Q0 is a flip-flop output, not an external input: driving it from
    # the input map would shadow the state register.
    with pytest.raises(SimulationError, match=r"unknown inputs.*Q0"):
        sim.step({"EN": 1, "Q0": 1})
    with pytest.raises(SimulationError, match=r"unknown flip-flops.*NOPE"):
        sim.reset({"Q0": 0, "Q1": 0, "Q2": 0, "NOPE": 1})


@pytest.mark.parametrize("engine", ["lcc", "parallel", "pcset"])
def test_apply_vectors_matches_step(engine):
    stepped = CompiledSequentialSimulator(counter(), engine=engine)
    batched = CompiledSequentialSimulator(counter(), engine=engine)
    tape = [{"EN": i % 3 != 0} for i in range(20)]
    tape = [{"EN": int(v["EN"])} for v in tape]
    expected = [stepped.step(v) for v in tape]
    assert batched.apply_vectors(tape) == expected
    assert batched.state == stepped.state
    assert batched.cycle == stepped.cycle == 20


def test_apply_vectors_partial_progress():
    # Documented contract: a mid-batch failure leaves every completed
    # cycle committed; state and cycle reflect the last good cycle.
    sim = CompiledSequentialSimulator(counter(), engine="lcc")
    good = CompiledSequentialSimulator(counter(), engine="lcc")
    good.apply_vectors([{"EN": 1}, {"EN": 1}])
    with pytest.raises(SimulationError, match="unknown inputs"):
        sim.apply_vectors([{"EN": 1}, {"EN": 1}, {"BAD": 1}])
    assert sim.cycle == 2
    assert sim.state == good.state
    assert sim.counters.vectors == 2


def test_apply_vectors_records_telemetry():
    from repro import telemetry

    prior = telemetry.enabled()
    telemetry.enable(reset_state=True)
    try:
        sim = CompiledSequentialSimulator(counter(), engine="lcc")
        sim.apply_vectors([{"EN": 1}] * 7)
        snap = telemetry.snapshot()
        assert any(name.endswith("seq.run") for name in snap["phases"])
        assert snap["counters"]["seq.cycles"] == 7
        assert snap["counters"]["seq.batches"] == 1
        assert snap["seq"]["cycles"] == 7
    finally:
        telemetry.disable() if not prior else None
        telemetry.reset()
    # The clocked machine's batch counters see the cycles too, so
    # `repro-sim` throughput reporting counts clocked work.
    assert sim.counters.vectors == 7
    assert sim.machine.counters.vectors >= 7


BACKENDS = ["python"] + (["c"] if have_c_compiler() else [])


@pytest.mark.parametrize(
    "bad", ["1", 1.0, None], ids=["str", "float", "none"]
)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ["lcc", "parallel", "pcset"])
def test_non_integer_values_raise_simulation_error(engine, backend, bad):
    sim = CompiledSequentialSimulator(
        counter(), engine=engine, backend=backend
    )
    with pytest.raises(SimulationError, match="cycle 0, input 'EN'"):
        sim.step({"EN": bad})
    with pytest.raises(SimulationError, match="cycle 0, input 'EN'"):
        sim.step([bad])
    # Partial progress: the good cycles before the bad one are run.
    with pytest.raises(SimulationError, match="cycle 2, input 'EN'"):
        sim.apply_vectors([[1], {"EN": 1}, [bad], [1]])
    assert sim.cycle == 2
    assert sim.state == {"Q0": 0, "Q1": 1, "Q2": 0}
    with pytest.raises(SimulationError, match="flip-flop 'Q1'"):
        sim.reset({"Q0": 0, "Q1": bad, "Q2": 0})


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ["lcc", "parallel", "pcset"])
def test_integer_values_masked_to_bit_zero(engine, backend):
    wide = CompiledSequentialSimulator(
        counter(), engine=engine, backend=backend
    )
    bits = CompiledSequentialSimulator(
        counter(), engine=engine, backend=backend
    )
    values = [3, 2, True, -1, 256, 257, False, 7]
    assert wide.apply_vectors([[v] for v in values]) == bits.apply_vectors(
        [[v & 1] for v in values]
    )
    wide.reset({"Q0": 3, "Q1": 2, "Q2": -1})
    assert wide.state == {"Q0": 1, "Q1": 0, "Q2": 1}


@pytest.mark.parametrize("backend", BACKENDS)
def test_clocked_program_clocks_a_batch_in_one_call(backend):
    sim = CompiledSequentialSimulator(counter(), backend=backend)
    program = sim.machine.program
    # The flip-flops are state, not inputs; the output section emits
    # the external outputs, then moves D to Q through temporaries.
    assert program.inputs == ["EN"]
    assert program.output_labels() == [("B0",), ("B1",), ("B2",)]
    assert len(program.output) == 3 + 2 * 3
    sim.apply_vectors([{"EN": 1}] * 11)
    assert sim.machine.counters.batches == 1
    assert decode(sim.step({"EN": 0})) == 3
    # The count reads 3, then 4 twice (EN=0 holds it); each cycle
    # gives one byte per output, B0 first.
    assert sim.apply_bits(b"\x01\x00\x01", 3) == bytes(
        [1, 1, 0, 0, 0, 1, 0, 0, 1]
    )
    with pytest.raises(SimulationError, match="bit block"):
        sim.apply_bits(b"\x01", 2)
