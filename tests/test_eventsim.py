"""Tests for the interpreted event-driven unit-delay baseline."""

import pytest

from repro.errors import SimulationError, VectorError
from repro.eventsim.events import TimeWheel
from repro.eventsim.indexed import IndexedCircuit
from repro.eventsim.simulator import EventDrivenSimulator
from repro.logic import X
from repro.netlist.builder import CircuitBuilder


class TestTimeWheel:
    def test_schedule_and_advance(self):
        wheel = TimeWheel(4)
        wheel.schedule(2)
        wheel.schedule(0)
        assert wheel.has_events
        assert sorted(wheel.advance()) == [0, 2]
        assert wheel.time == 1
        assert not wheel.has_events

    def test_deduplication(self):
        wheel = TimeWheel(4)
        wheel.schedule(1)
        wheel.schedule(1)
        assert wheel.advance() == [1]

    def test_clear(self):
        wheel = TimeWheel(4)
        wheel.schedule(3)
        wheel.clear()
        assert not wheel.has_events
        assert wheel.advance() == []
        wheel.clear()
        wheel.schedule(3)
        assert wheel.advance() == [3]


class TestIndexedCircuit:
    def test_indexing(self, fig4_circuit):
        idx = IndexedCircuit(fig4_circuit)
        assert idx.num_nets == 5
        assert idx.num_gates == 2
        assert [idx.net_names[i] for i in idx.input_ids] == ["A", "B", "C"]
        assert [idx.net_names[i] for i in idx.output_ids] == ["E"]

    def test_fanout_deduplicated(self):
        b = CircuitBuilder("dup")
        a = b.input("A")
        b.outputs(b.and_("OUT", a, a))
        idx = IndexedCircuit(b.build())
        # A gate is evaluated once however many pins the net feeds.
        assert idx.net_fanout[idx.net_ids["A"]] == (0,)

    def test_vector_normalization(self, fig4_circuit):
        idx = IndexedCircuit(fig4_circuit)
        assert idx.input_values({"A": 1, "B": 0, "C": 1}) == [1, 0, 1]
        assert idx.input_values([1, 0, 1]) == [1, 0, 1]
        with pytest.raises(VectorError, match="missing"):
            idx.input_values({"A": 1})
        with pytest.raises(VectorError, match="3 primary inputs"):
            idx.input_values([1, 0])


class TestEventDrivenSimulator:
    def test_requires_reset(self, fig4_circuit):
        sim = EventDrivenSimulator(fig4_circuit)
        with pytest.raises(SimulationError, match="reset"):
            sim.apply_vector([1, 1, 1])

    def test_two_phase_unit_delay(self, fig4_circuit):
        sim = EventDrivenSimulator(fig4_circuit)
        sim.reset([0, 0, 0])
        history = sim.apply_vector([1, 1, 1], record=True)
        # E(1) = AND(D(0), C(0)) = AND(0, 1) = 0, so E changes at 2 only.
        assert history["D"] == [(0, 0), (1, 1)]
        assert history["E"] == [(0, 0), (2, 1)]

    def test_no_change_means_no_events(self, fig4_circuit):
        sim = EventDrivenSimulator(fig4_circuit)
        sim.reset([1, 1, 1])
        before = sim.stats.events
        sim.apply_vector([1, 1, 1])
        assert sim.stats.events == before

    def test_state_carries_between_vectors(self, fig4_circuit):
        sim = EventDrivenSimulator(fig4_circuit)
        sim.reset([1, 1, 1])
        history = sim.apply_vector([1, 1, 0], record=True)
        # Only C falls; E follows one gate delay later.
        assert history["E"] == [(0, 1), (1, 0)]
        assert history["D"] == [(0, 1)]

    def test_unknown_logic_model(self, fig4_circuit):
        with pytest.raises(SimulationError):
            EventDrivenSimulator(fig4_circuit, logic="four")

    def test_three_valued_reset_to_x(self, fig4_circuit):
        sim = EventDrivenSimulator(fig4_circuit, logic="three")
        sim.reset()
        assert sim.value_of("E") == X

    def test_three_valued_controlling_resolution(self, fig4_circuit):
        sim = EventDrivenSimulator(fig4_circuit, logic="three")
        sim.reset()
        # A=0 controls D=AND(A,B)=0 even though B is X; then E=0.
        sim.apply_vector([0, X, 1])
        assert sim.value_of("D") == 0
        assert sim.value_of("E") == 0

    def test_default_reset_settles(self):
        # All-zero state is not a fixed point when NOT gates exist.
        b = CircuitBuilder("inv")
        a = b.input("A")
        b.outputs(b.not_("Z", a))
        sim = EventDrivenSimulator(b.build())
        sim.reset()
        assert sim.value_of("Z") == 1

    def test_max_time_bounded_by_depth(self, small_random_circuit):
        from repro.analysis.levelize import levelize

        sim = EventDrivenSimulator(small_random_circuit)
        sim.reset([0] * len(small_random_circuit.inputs))
        sim.apply_vector([1] * len(small_random_circuit.inputs))
        assert sim.stats.max_time <= levelize(small_random_circuit).depth

    def test_output_values_and_run_batch(self, fig4_circuit):
        sim = EventDrivenSimulator(fig4_circuit)
        sim.reset([0, 0, 0])
        checksum = sim.run_batch([[1, 1, 1], [1, 1, 0]])
        assert isinstance(checksum, int)
        assert sim.output_values() == {"E": 0}
        assert sim.stats.vectors == 2
        assert "vectors=2" in repr(sim.stats)
