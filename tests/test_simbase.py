"""Tests for the shared compiled-simulator facade behaviour."""

import tracemalloc

import pytest

from repro import telemetry
from repro.codegen.packing import pack_patterns, packing_mode
from repro.codegen.runtime import have_c_compiler
from repro.errors import BackendError, SimulationError
from repro.eventsim.simulator import EventDrivenSimulator
from repro.harness.runner import PROBE_TECHNIQUES, build_simulator
from repro.harness.vectors import vectors_for
from repro.lcc.zerodelay import LCCSimulator, generate_lcc_program
from repro.netlist.bench import parse_bench
from repro.netlist.generators import parity_tree
from repro.netlist.random_circuits import pin_input
from repro.parallel.simulator import ParallelSimulator
from repro.pcset.multivector import MultiVectorPCSetSimulator, pack_lanes
from repro.pcset.simulator import PCSetSimulator


BACKENDS = ("python",) + (("c",) if have_c_compiler() else ())
NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)


class TestReset:
    def test_default_reset_is_all_zeros(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        sim.reset()
        # Steady state of A=B=C=0 has D=E=0.
        assert sim.final_values() == {"E": 0}

    def test_reset_with_vector(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        sim.reset([1, 1, 1])
        assert sim.final_values() == {"E": 1}

    def test_reset_matches_reference_after_reset(self, fig4_circuit):
        from repro.eventsim.simulator import EventDrivenSimulator

        reference = EventDrivenSimulator(fig4_circuit)
        sim = ParallelSimulator(fig4_circuit, word_width=8)
        reference.reset([1, 0, 1])
        sim.reset([1, 0, 1])
        assert reference.apply_vector([1, 1, 1], record=True) == \
            sim.apply_vector_history([1, 1, 1])


class TestVectorHandling:
    def test_mapping_vectors(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        sim.reset()
        sim.apply_vector({"A": 1, "B": 1, "C": 1})
        assert sim.final_values() == {"E": 1}

    def test_mapping_missing_input(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        sim.reset()
        with pytest.raises(SimulationError, match="missing"):
            sim.apply_vector({"A": 1, "B": 1})

    def test_run_batch_requires_reset(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        with pytest.raises(SimulationError, match="reset"):
            sim.run_prepared(sim.prepare_batch([[1, 1, 1]]))

    @pytest.mark.parametrize("facade", [ParallelSimulator, PCSetSimulator])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", ["1", 1.0, None])
    def test_non_integer_value_named(self, fig4_circuit, facade, backend,
                                     bad):
        sim = facade(fig4_circuit, backend=backend, word_width=8)
        sim.reset()
        with pytest.raises(
            SimulationError,
            match=rf"vector 0, input 1: value {bad!r} is not an integer",
        ):
            sim.apply_vector([1, bad, 0])
        vectors = [[0, 0, 0], [1, 1, 1], [1, bad, 0]]
        with pytest.raises(
            SimulationError,
            match=rf"vector 2, input 1: value {bad!r} is not an integer",
        ):
            sim.apply_vectors(vectors)
        named = [dict(zip("ABC", vector)) for vector in vectors]
        with pytest.raises(SimulationError, match=r"vector 2, input 1"):
            sim.apply_vectors(named)


class TestChecksums:
    def test_checksum_stable(self, fig4_circuit):
        vectors = vectors_for(fig4_circuit, 12, seed=6)
        a = PCSetSimulator(fig4_circuit)
        b = PCSetSimulator(fig4_circuit)
        a.reset()
        b.reset()
        assert a.apply_vectors(vectors) == b.apply_vectors(vectors)

    def test_source_accessor(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        assert "def machine():" in sim.source()
        assert sim.output_labels()


def _run_lcc(circuit, vectors, **pinned):
    return LCCSimulator(circuit, **pinned).apply_vectors(vectors)


def _run_parallel(circuit, vectors, **pinned):
    sim = ParallelSimulator(circuit, word_width=8, **pinned)
    sim.reset()
    return sim.apply_vectors(vectors)


def _run_fault_simulator(circuit, vectors, **pinned):
    from repro.faults.simulator import ParallelFaultSimulator

    return ParallelFaultSimulator(circuit, **pinned).run(vectors)


def _run_fault_simulation(circuit, vectors, **pinned):
    from repro.faults.simulator import run_fault_simulation

    # The empty fault list returns before any simulator is built, so
    # the keyword must be checked at the entry point itself.
    return run_fault_simulation(circuit, vectors, [], **pinned)


def _run_sequential(circuit, vectors, **pinned):
    from repro.netlist.sequential import break_at_flipflops
    from repro.seqsim import CompiledSequentialSimulator

    sim = CompiledSequentialSimulator(
        break_at_flipflops(circuit, {}), **pinned
    )
    return sim.apply_vectors(vectors)


PINNED_ENTRY_POINTS = pytest.mark.parametrize("run", [
    _run_lcc, _run_parallel, _run_fault_simulator, _run_fault_simulation,
    _run_sequential,
], ids=["LCCSimulator", "ParallelSimulator", "ParallelFaultSimulator",
        "run_fault_simulation", "CompiledSequentialSimulator"])


@PINNED_ENTRY_POINTS
@pytest.mark.parametrize("partitions", [0, 1, 2])
def test_partitions_accepts_only_one(fig4_circuit, run, partitions):
    # Partitioned execution was removed; the keyword survives only as
    # a pinned 1, and anything else must fail loudly instead of
    # quietly running monolithic.
    vectors = vectors_for(fig4_circuit, 3, seed=0)
    if partitions == 1:
        assert run(fig4_circuit, vectors, partitions=partitions) is not None
        return
    with pytest.raises(SimulationError, match="partitioned execution"):
        run(fig4_circuit, vectors, partitions=partitions)


@PINNED_ENTRY_POINTS
@pytest.mark.parametrize("tiles", [0, 1, 2, "auto"])
def test_tiles_accepts_only_one(fig4_circuit, run, tiles):
    # Tiled and laned execution were removed the same way: every net
    # is one word, and any tile count but 1 is an error, probes or not.
    vectors = vectors_for(fig4_circuit, 3, seed=0)
    if tiles == 1:
        assert run(fig4_circuit, vectors, tiles=tiles) is not None
        return
    with pytest.raises(SimulationError, match="tiles must be 1"):
        run(fig4_circuit, vectors, tiles=tiles)
    if run is _run_lcc:
        with pytest.raises(SimulationError, match="tiles must be 1"):
            run(fig4_circuit, vectors, tiles=tiles, probes=True)


# ----------------------------------------------------------------------
# each facade takes only its own keywords
# ----------------------------------------------------------------------
#: Facade -> the generators it may call, as ``module.name``.
FACADE_GENERATORS = {
    LCCSimulator: ["repro.lcc.zerodelay.generate_lcc_program"],
    ParallelSimulator: [
        "repro.parallel.simulator.generate_parallel_program",
        "repro.parallel.aligned_codegen.generate_aligned_program",
    ],
    PCSetSimulator: ["repro.pcset.simulator.generate_pcset_program"],
    MultiVectorPCSetSimulator: [
        "repro.pcset.multivector.generate_pcset_program",
    ],
}


def _refuse_generation(monkeypatch, facade):
    def generate(*args, **kwargs):
        raise AssertionError(f"{facade.__name__} generated a program")

    for target in FACADE_GENERATORS[facade]:
        monkeypatch.setattr(target, generate)


#: Keywords no facade takes: an unknown one, the executor's and the
#: machine's private knobs, and the generators' ``comments``.
FOREIGN_KEYWORDS = [
    "no_such_keyword", "packing_override", "checksum_mask", "comments",
    "opt_level", "probe_plan",
]


@pytest.mark.parametrize("facade, keyword", [
    pytest.param(facade, keyword, id=f"{facade.__name__}-{keyword}")
    for facade in FACADE_GENERATORS
    for keyword in FOREIGN_KEYWORDS + (
        ["probes"] if facade in (PCSetSimulator, MultiVectorPCSetSimulator)
        else []
    )
])
def test_foreign_keyword_refused_before_generating(monkeypatch,
                                                   fig4_circuit, facade,
                                                   keyword):
    # No keyword reaches the executor or the machine: the facade's own
    # signature refuses it, before any program is generated.
    _refuse_generation(monkeypatch, facade)
    with pytest.raises(TypeError, match=(
        rf"^{facade.__name__}\.__init__\(\) got an unexpected keyword "
        rf"argument '{keyword}'$"
    )):
        facade(fig4_circuit, **{keyword: 1})


@pytest.mark.parametrize("facade", [LCCSimulator, ParallelSimulator],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("pinned", [{"partitions": 2}, {"tiles": 2}],
                         ids=["partitions", "tiles"])
def test_pinned_keywords_checked_before_generating(monkeypatch,
                                                   fig4_circuit, facade,
                                                   pinned):
    _refuse_generation(monkeypatch, facade)
    with pytest.raises(SimulationError, match="must be 1"):
        facade(fig4_circuit, **pinned)


def test_lcc_declared_packing_mode_holds(small_random_circuit):
    # LCC declares "full" instead of classifying its program; the
    # classification of the uninstrumented program must agree, on
    # constant drivers too.
    pinned = pin_input(
        small_random_circuit, small_random_circuit.inputs[0], 1
    )
    for circuit in (small_random_circuit, pinned, parity_tree(8)):
        program = generate_lcc_program(circuit, word_width=8)
        assert packing_mode(program) == LCCSimulator._packing_mode
        for probes in (None, True):
            sim = LCCSimulator(circuit, word_width=8, probes=probes)
            assert sim.packing_mode == "full"
    assert PCSetSimulator._packing_mode is None
    assert ParallelSimulator(
        small_random_circuit, word_width=8
    ).packing_mode == "none"


@NEED_CC
def test_packed_batch_block_is_not_copied():
    """A packed batch hands ``memoryview`` slices of its block to the
    packed part and the scalar last vector: a warm run allocates
    nothing near the block's size, only the lane words and the output
    rows (a few tens of KB here against a 512 KB block)."""
    inputs, count = 512, 1024
    sim = LCCSimulator(parity_tree(inputs), backend="c", word_width=64)
    vectors = vectors_for(sim.circuit, count, seed=23)
    rows, block = sim._batch(vectors)
    assert sim._packs(block) and len(block) == inputs * count
    first = sim._run(rows, block, True)
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        again = sim._run(rows, block, True)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < len(block) // 2
    assert again == first == [
        [sum(vector) & 1] for vector in vectors
    ]


# ----------------------------------------------------------------------
# the one batch executor
# ----------------------------------------------------------------------
#: Technique -> does it accept ``probes=``.
EXECUTOR_TECHNIQUES = {
    "zero-lcc": True,
    "pcset": False,
    "parallel-trim": True,
    "parallel-best": False,
    "pcset-mv": False,
}

EXECUTOR_CASES = [
    pytest.param(technique, backend, probes,
                 id=f"{technique}-{backend}-{'probed' if probes else 'plain'}")
    for technique, probed in EXECUTOR_TECHNIQUES.items()
    for backend in BACKENDS
    for probes in ((False, True) if probed else (False,))
]


def _seeded(circuit, technique, backend, probes):
    options = {"backend": backend, "word_width": 8}
    if probes:
        options["probes"] = True
    sim = build_simulator(circuit, technique, **options)
    sim.reset()
    return sim


def _activity(sim):
    if sim.probe_runtime is None:
        return None
    return vars(sim.activity_report())


#: Fig. 4, whose PC-set program reads the previous vector's finals, so
#: it runs scalar (the case id keeps the name of the retired
#: ``"settled"`` packing mode).
FIG4_BENCH = (
    "INPUT(A)\nINPUT(B)\nINPUT(C)\nOUTPUT(E)\n"
    "D = AND(A, B)\nE = AND(D, C)\n"
)


@pytest.mark.parametrize("technique,backend,probes", EXECUTOR_CASES)
@pytest.mark.parametrize(
    "circuit", [parity_tree(8), parse_bench(FIG4_BENCH, "fig4")],
    ids=["full-mode", "settled-mode"],
)
def test_executor_conformance(technique, backend, probes, circuit):
    """Every facade's batch path equals its per-vector loop.

    300 vectors at word width 8 split probed batches into several
    wrap-free chunks; the parity tree's PC-set program is "full"-mode,
    so the PC-set facades pack it.  Probe counters count on
    ``apply_vectors`` only, so only an unprobed facade prepares.
    """
    vectors = vectors_for(circuit, 300, seed=11)
    loop = _seeded(circuit, technique, backend, probes)
    want = [loop.apply_vector(vector) for vector in vectors]
    batched = _seeded(circuit, technique, backend, probes)
    assert batched.apply_vectors(vectors) == want
    assert batched.machine.dump_state() == loop.machine.dump_state()
    assert _activity(batched) == _activity(loop)
    if probes:
        return
    prepared = _seeded(circuit, technique, backend, probes)
    prepared.run_prepared(prepared.prepare_batch(vectors))
    assert (prepared.machine.counters.vectors
            == batched.machine.counters.vectors == len(vectors))


def test_executor_probe_column_is_the_runner_list():
    probed = {name for name, takes in EXECUTOR_TECHNIQUES.items() if takes}
    assert probed == set(EXECUTOR_TECHNIQUES) & set(PROBE_TECHNIQUES)


def _packing_counters(call, vectors):
    """The ``packing`` telemetry section one ``call(vectors)`` moves,
    and what the call returned."""
    prior = telemetry.enabled()
    telemetry.enable(reset_state=True)
    try:
        out = call(vectors)
        return telemetry.snapshot()["packing"], out
    finally:
        telemetry.enable() if prior else telemetry.disable()
        telemetry.reset()


@pytest.mark.parametrize("technique", list(EXECUTOR_TECHNIQUES))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bits", ["bits", "words"])
def test_prepare_batch_packs_when_apply_vectors_packs(technique, backend,
                                                      bits):
    # The parity tree's PC-set program is "full"-mode, so a 0/1 batch
    # packs on every facade but the parallel one; multi-bit values are
    # masked to bit 0, except on the lane-word facades (LCC and
    # multi-vector), which run them scalar.
    circuit = parity_tree(8)
    vectors = vectors_for(circuit, 21, seed=12)
    if bits == "words":
        vectors = [[3 * value for value in row] for row in vectors]
    applied = _seeded(circuit, technique, backend, False)
    prepared = _seeded(circuit, technique, backend, False)
    want, _out = _packing_counters(applied.apply_vectors, vectors)
    got, batch = _packing_counters(prepared.prepare_batch, vectors)
    assert got == want
    prepared.run_prepared(batch)
    assert prepared.counters.vectors == len(vectors)


@pytest.mark.parametrize("backend", BACKENDS)
def test_required_packing_refuses_words_from_both(backend):
    sim = LCCSimulator(parity_tree(8), backend=backend, word_width=8,
                       packed=True)
    words = [[3] * 8, [1] * 8]
    with pytest.raises(SimulationError, match="plain 0/1 vectors"):
        sim.apply_vectors(words)
    with pytest.raises(SimulationError, match="plain 0/1 vectors"):
        sim.prepare_batch(words)


@NEED_CC
@pytest.mark.parametrize("technique", ["zero-lcc", "pcset", "pcset-mv"])
@pytest.mark.parametrize("count", [0, 1, 8, 21])
def test_packed_c_payload_is_the_pattern_groups(technique, count):
    circuit = parity_tree(8)
    vectors = vectors_for(circuit, count, seed=13)
    sim = _seeded(circuit, technique, "c", False)
    payload, passes, carried = sim.prepare_batch(vectors)
    groups, _lane_counts = pack_patterns(vectors, 8)
    assert (passes, carried) == (len(groups), count)
    assert list(payload) == [word for group in groups for word in group]
    sim.run_prepared((payload, passes, carried))
    assert sim.counters.vectors == count


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_prepared_refuses_passes_past_the_payload(backend):
    """A pass count the payload does not hold raises ``BackendError``
    before any pass runs (the C loop used to read past the buffer and
    crash the process); fewer passes run the payload's first rows."""
    circuit = parity_tree(8)
    vectors = vectors_for(circuit, 4, seed=14)
    sim = LCCSimulator(circuit, backend=backend, packed=False)
    sim.reset()
    payload, passes, count = sim.prepare_batch(vectors)
    assert (passes, count) == (4, 4)
    state = sim.machine.dump_state()
    for bad in (10_000_000, 5, -1):
        with pytest.raises(BackendError, match="over a payload of 4 rows"):
            sim.run_prepared((payload, bad, count))
    assert sim.machine.dump_state() == state
    assert sim.counters.vectors == 0
    sim.run_prepared((payload, 3, 3))
    head = LCCSimulator(circuit, backend=backend, packed=False)
    head.reset()
    head.apply_vectors(vectors[:3])
    assert sim.machine.dump_state() == head.machine.dump_state()


class TestPackedEndState:
    """A packed batch leaves the machine where the scalar loop does."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_mode_pcset_final_values(self, backend):
        circuit = parse_bench(
            "INPUT(A)\nINPUT(B)\nOUTPUT(Y)\nY = AND(A, B)\n", "and2"
        )
        sim = PCSetSimulator(circuit, backend=backend)
        assert sim.packing_mode == "full"
        sim.reset([0, 0])
        assert sim.apply_vectors([[1, 1]]) == [[1]]
        assert sim.final_values() == {"Y": 1}
        assert sim.apply_vector_history([1, 1])["Y"] == [(0, 1)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_mode_pcset_next_history(self, backend):
        circuit = parity_tree(16)
        vectors = vectors_for(circuit, 11, seed=13)
        sim = PCSetSimulator(circuit, backend=backend)
        assert sim.packing_mode == "full"
        sim.reset()
        sim.apply_vectors(vectors[:10])
        reference = EventDrivenSimulator(circuit)
        reference.reset([0] * len(circuit.inputs))
        for vector in vectors[:10]:
            reference.apply_vector(vector)
        assert sim.apply_vector_history(vectors[10]) == (
            reference.apply_vector(vectors[10], record=True)
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_multivector_full_mode_takes_lane_words(backend):
    # Multi-bit lane words are not a 0/1 batch, so they run scalar,
    # as given, even on a "full"-mode program.
    circuit = parity_tree(16)
    rows = vectors_for(circuit, 24, seed=15)
    words = [pack_lanes(rows[i:i + 4]) for i in range(0, len(rows), 4)]
    sim = MultiVectorPCSetSimulator(circuit, backend=backend, lanes=4)
    loop = MultiVectorPCSetSimulator(circuit, backend=backend, lanes=4)
    assert sim.packing_mode == "full"
    sim.reset()
    loop.reset()
    assert sim.apply_vectors(words) == [loop.apply_vector(w) for w in words]
    assert sim.final_values_per_lane() == loop.final_values_per_lane()


class TestLCCInheritedMethods:
    """What LCC inherits from the executor works or raises cleanly."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_and_accessor_methods(self, fig1_circuit, backend):
        vectors = vectors_for(fig1_circuit, 21, seed=16)
        sim = LCCSimulator(fig1_circuit, backend=backend, word_width=8)
        scalar = LCCSimulator(fig1_circuit, backend=backend, word_width=8,
                              packed=False)
        want = scalar.apply_vectors(vectors)
        sim.reset([1, 1, 1])
        assert sim.evaluate_all_nets([1, 1, 1])["D"] == 1
        assert [sim.apply_vector(v) for v in vectors] == want
        assert sim.apply_vectors(vectors) == want
        before = sim.counters.vectors
        sim.run_prepared(sim.prepare_batch(vectors))
        assert sim.counters.vectors == before + len(vectors)
        assert sim.counters is sim.machine.counters
        assert sim.output_labels() == [("E",)]
        assert sim.source()
        assert sim.probe_runtime is None

    def test_history_methods_raise(self, fig1_circuit):
        sim = LCCSimulator(fig1_circuit)
        with pytest.raises(SimulationError, match="settling histories"):
            sim.apply_vector_history([1, 1, 1])
        with pytest.raises(SimulationError, match="settling histories"):
            sim.capture_trace([[1, 1, 1]], writer=None)
        with pytest.raises(SimulationError, match="without probes"):
            sim.activity_report()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_probed_reset_seeds_the_toggle_baseline(self, fig1_circuit,
                                                    backend):
        # reset(v) counts the next toggles against v's settled values,
        # as probe_reset(v) does.
        vectors = vectors_for(fig1_circuit, 30, seed=17)
        seeded = LCCSimulator(fig1_circuit, backend=backend, word_width=8,
                              probes=True)
        seeded.probe_reset([1, 1, 1])
        seeded.apply_vectors(vectors)
        reset = LCCSimulator(fig1_circuit, backend=backend, word_width=8,
                             probes=True)
        reset.reset([1, 1, 1])
        reset.apply_vectors(vectors)
        assert vars(reset.activity_report()) == vars(
            seeded.activity_report()
        )


@pytest.mark.parametrize("facade", [
    PCSetSimulator, ParallelSimulator, MultiVectorPCSetSimulator,
    "ParallelFaultSimulator",
])
def test_unknown_monitored_net_named_at_construction(fig4_circuit, facade):
    # One check, before any program is generated, for every facade
    # that takes ``monitored=``: not a bare KeyError from deep inside
    # code generation, and not a name accepted until the first run.
    if facade == "ParallelFaultSimulator":
        from repro.faults.simulator import ParallelFaultSimulator

        facade = ParallelFaultSimulator
    with pytest.raises(SimulationError, match="'GHOST'"):
        facade(fig4_circuit, monitored=[fig4_circuit.outputs[0], "GHOST"])
