"""Batched execution: cross-backend equivalence and the speed contract.

The batching API's correctness contract is exact: ``step_many`` /
``apply_vectors`` must be bit-identical to an equivalent per-vector
``step()`` loop, on both backends, and machine state must round-trip
between backends.  The performance contract — the whole point of
moving the vector loop inside the generated code — rests on one batch
entering the generated code once, which the bottom of this module
checks; ``benchmarks/bench_batch_dispatch.py`` measures the time.
"""

import pytest

from repro import telemetry
from repro.codegen.runtime import have_c_compiler
from repro.faults.simulator import (
    ParallelFaultSimulator,
    serial_fault_simulation,
)
from repro.harness.runner import simulate_outputs
from repro.harness.vectors import vectors_for
from repro.lcc.zerodelay import LCCSimulator
from repro.netlist.generators import ripple_carry_adder
from repro.netlist.random_circuits import random_dag_circuit
from repro.parallel.simulator import ParallelSimulator
from repro.pcset.simulator import PCSetSimulator

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)

BACKENDS = ["python"] + (["c"] if have_c_compiler() else [])


def _fresh(sim_cls, circuit, backend, **kw):
    sim = sim_cls(circuit, backend=backend, **kw)
    sim.reset([0] * len(circuit.inputs))
    return sim


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sim_cls", [PCSetSimulator, ParallelSimulator])
def test_apply_vectors_matches_scalar_loop(
    small_random_circuit, sim_cls, backend
):
    vectors = vectors_for(small_random_circuit, 24, seed=9)
    batched = _fresh(sim_cls, small_random_circuit, backend)
    scalar = _fresh(sim_cls, small_random_circuit, backend)
    expected = [scalar.apply_vector(v) for v in vectors]
    assert batched.apply_vectors(vectors) == expected
    # The persistent state evolved identically too.
    assert batched.machine.dump_state() == scalar.machine.dump_state()


@pytest.mark.parametrize("backend", BACKENDS)
def test_lcc_apply_vectors_matches_scalar_loop(
    small_random_circuit, backend
):
    vectors = vectors_for(small_random_circuit, 16, seed=3)
    sim = LCCSimulator(small_random_circuit, backend=backend)
    expected = [sim.machine.step(list(v)) for v in vectors]
    assert sim.apply_vectors(vectors) == expected


@NEED_CC
@pytest.mark.parametrize("sim_cls", [PCSetSimulator, ParallelSimulator])
def test_state_round_trips_across_backends(small_random_circuit, sim_cls):
    vectors = vectors_for(small_random_circuit, 10, seed=4)
    py = _fresh(sim_cls, small_random_circuit, "python")
    cc = _fresh(sim_cls, small_random_circuit, "c")
    py.apply_vectors(vectors)
    # Python machine state -> C machine; both must continue identically.
    state = py.machine.dump_state()
    cc.machine.load_state(state)
    assert cc.machine.dump_state() == state
    follow_up = vectors_for(small_random_circuit, 6, seed=5)
    assert py.apply_vectors(follow_up) == cc.apply_vectors(follow_up)
    # And back: C state loads into a fresh Python machine.
    back = _fresh(sim_cls, small_random_circuit, "python")
    back.machine.load_state(cc.machine.dump_state())
    assert back.machine.dump_state() == cc.machine.dump_state()


@NEED_CC
def test_batched_outputs_identical_across_backends():
    circuit = random_dag_circuit(17, num_inputs=6, num_gates=40)
    vectors = vectors_for(circuit, 32, seed=8)
    py = simulate_outputs(circuit, "parallel-best", vectors,
                          backend="python")
    cc = simulate_outputs(circuit, "parallel-best", vectors, backend="c")
    assert py == cc


@pytest.mark.parametrize("backend", BACKENDS)
def test_oversized_inputs_do_not_diverge(backend):
    # Unmasked Python ints used to sail through while ctypes truncated:
    # feed out-of-range words straight to the machines and compare.
    circuit = random_dag_circuit(3, num_inputs=4, num_gates=12)
    sim = _fresh(PCSetSimulator, circuit, backend, word_width=16)
    machine = sim.machine
    huge = [0x1_0001, 0x2_0000, 0xFFFF_0001, 7]
    reference = _fresh(PCSetSimulator, circuit, backend, word_width=16)
    masked = [value & 0xFFFF for value in huge]
    assert machine.step(huge) == reference.machine.step(masked)


# ----------------------------------------------------------------------
# the scalar byte path (Machine.step_bits)
# ----------------------------------------------------------------------
WIDTHS = (8, 16, 32, 64)

#: The facades whose 0/1 scalar batches run through ``step_bits``.
BYTE_PATH_FACADES = {
    "parallel": (ParallelSimulator, {}),
    "pcset": (PCSetSimulator, {}),
    "lcc-scalar": (LCCSimulator, {"packed": False}),
}


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("facade", sorted(BYTE_PATH_FACADES))
def test_byte_path_matches_apply_vector_loop(facade, backend, width):
    """Batches of 0, 1, W-1, W and W+1 vectors, one simulator each.

    rca4 is 11 levels deep, so at 8 bits every parallel bit-field
    takes two words.
    """
    sim_cls, kw = BYTE_PATH_FACADES[facade]
    circuit = ripple_carry_adder(4)
    batched = _fresh(sim_cls, circuit, backend, word_width=width, **kw)
    scalar = _fresh(sim_cls, circuit, backend, word_width=width, **kw)
    if facade == "parallel" and width == 8:
        assert batched.machine.num_outputs == 2 * len(circuit.outputs)
    for count in (0, 1, width - 1, width, width + 1):
        vectors = vectors_for(circuit, count, seed=count)
        expected = [scalar.apply_vector(v) for v in vectors]
        assert batched.apply_vectors(vectors) == expected
        assert batched.machine.dump_state() == scalar.machine.dump_state()


def _odd_values(vectors):
    """``vectors`` with each 1 written as 3, 255 or ``True`` and some
    0s as 2: values that are not 0/1 but keep the same bit 0."""
    ones, zeros = (3, 255, True), (0, 2)
    return [
        [
            ones[(i + k) % 3] if value else zeros[(i * k) % 2]
            for k, value in enumerate(vector)
        ]
        for i, vector in enumerate(vectors)
    ]


def _counted(call, vectors):
    """``call(vectors)`` with telemetry on: the result and ``packing``."""
    prior = telemetry.enabled()
    telemetry.enable(reset_state=True)
    try:
        out = call(vectors)
        return out, telemetry.snapshot()["packing"]
    finally:
        telemetry.enable() if prior else telemetry.disable()
        telemetry.reset()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", [
    "parallel.apply_vectors", "pcset.apply_vectors",
])
def test_masked_batch_runs_like_the_premasked_batch(method, backend):
    """A batch that is not 0/1 is masked to bit 0 and gets the block
    of its masked rows: outputs, end state and ``packing.*`` counters
    equal those of the same batch masked by the caller."""
    facade, name = method.split(".")
    sim_cls = BYTE_PATH_FACADES[facade][0]
    circuit = ripple_carry_adder(4)
    vectors = vectors_for(circuit, 21, seed=6)
    odd = _odd_values(vectors)
    assert {value for row in odd for value in row} == {0, 2, 3, 255, True}
    masked = _fresh(sim_cls, circuit, backend, word_width=8)
    premasked = _fresh(sim_cls, circuit, backend, word_width=8)
    got = _counted(getattr(masked, name), odd)
    expected = _counted(getattr(premasked, name), vectors)
    assert got == expected
    assert masked.machine.dump_state() == premasked.machine.dump_state()
    # Neither unit-delay program packs.
    assert got[1]["packed_batches"] == 0


def test_seqsim_apply_vectors_matches_per_cycle_step():
    from repro.seqsim import CompiledSequentialSimulator

    seq = _small_sequential()
    stimulus = _sequential_stimulus(seq, cycles=12)
    for engine in ("lcc", "pcset"):
        batched = CompiledSequentialSimulator(seq, engine=engine)
        scalar = CompiledSequentialSimulator(seq, engine=engine)
        expected = [scalar.step(inputs) for inputs in stimulus]
        assert batched.apply_vectors(stimulus) == expected
        assert batched.state == scalar.state
        assert batched.cycle == scalar.cycle


def _small_sequential():
    """A small SequentialCircuit for the clocked-batching test."""
    from repro.netlist.bench import parse_bench_sequential

    text = """
# 2-bit toggle/shift register
INPUT(EN)
OUTPUT(Q1)
Q0 = DFF(D0)
Q1 = DFF(D1)
N0 = NAND(Q0, EN)
D0 = NAND(N0, N0)
D1 = AND(Q0, EN)
"""
    return parse_bench_sequential(text, name="toggle2")


def _sequential_stimulus(seq, cycles):
    import random

    rng = random.Random(11)
    return [
        {name: rng.randint(0, 1) for name in seq.external_inputs}
        for _ in range(cycles)
    ]


def test_fault_simulation_batched_path_unchanged():
    circuit = random_dag_circuit(5, num_inputs=5, num_gates=20)
    vectors = vectors_for(circuit, 40, seed=13)
    parallel = ParallelFaultSimulator(circuit, word_width=8)
    report = parallel.run(vectors)
    reference = serial_fault_simulation(circuit, vectors)
    assert report.detected == reference.detected
    assert set(report.undetected) == set(reference.undetected)
    # A second run over the same vectors reuses the memoized good
    # words; the report must not change.
    assert parallel.run(vectors) == report


# ----------------------------------------------------------------------
# the mechanism behind the speed contract
# ----------------------------------------------------------------------
class _CountingCoroutine:
    """Wraps a Python machine's generated coroutine; counts resumes."""

    def __init__(self, coroutine) -> None:
        self.coroutine = coroutine
        self.resumes = 0

    def send(self, request):
        self.resumes += 1
        return self.coroutine.send(request)


def test_python_run_block_enters_generated_code_once_per_batch():
    """``run_block`` resumes the generated coroutine once per batch.

    That single entry is why a batch outruns the per-vector ``step()``
    loop on the Python backend: the loop pays the resume, the request
    tuple and the output list once per vector.  The wall-clock
    comparison itself is measured by ``benchmarks/bench_batch_dispatch.py``
    rather than asserted here, where host noise decides a race.
    """
    circuit = random_dag_circuit(21, num_inputs=6, num_gates=40)
    sim = _fresh(ParallelSimulator, circuit, "python")
    machine = sim.machine
    vectors = vectors_for(circuit, 48, seed=2)
    words = [[v & 1 for v in vector] for vector in vectors]
    start = machine.dump_state()
    counter = machine._gen = _CountingCoroutine(machine._gen)

    batched: list[int] = []
    machine.run_block(words, batched, masked=True)
    assert counter.resumes == 1
    machine.load_state(start)
    counter.resumes = 0
    looped = [word for vector in words for word in machine.step(vector)]
    assert counter.resumes == len(words)
    assert looped == batched
