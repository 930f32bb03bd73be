"""Tests for the differential fuzzing subsystem.

The fuzzer is itself the test of record for the simulator, so these
tests hold it to both halves of its contract: a healthy tree must fuzz
clean, and an intentionally corrupted code emitter
(:func:`repro.fuzz.inject_emitter_bug`) must be caught, shrunk to a
few gates, persisted, and replayable.
"""

import random
from pathlib import Path

import pytest

import repro.simbase as simbase
from repro.codegen.runtime import have_c_compiler
from repro.errors import SimulationError
from repro.fuzz import (
    CHECKS,
    CONFIG_SCHEMA,
    INJECTIONS,
    MUTATIONS,
    SURFACES,
    FuzzConfig,
    coverage_configs,
    distill_corpus,
    entry_from_failure,
    inject_emitter_bug,
    load_corpus,
    load_entry,
    replay_entry,
    run_campaign,
    run_check,
    sample_configs,
    save_entry,
    shrink,
)
from repro.harness.compare import Mismatch
from repro.harness.vectors import vectors_for
from repro.netlist.bench import parse_bench
from repro.netlist.generators import (
    equality_comparator,
    ripple_carry_adder,
)
from repro.netlist.random_circuits import random_dag_circuit

REPO_ROOT = Path(__file__).resolve().parent.parent
BACKENDS = ("python",) + (("c",) if have_c_compiler() else ())

class TestFuzzConfig:
    def test_round_trip(self):
        config = FuzzConfig(check="batched", technique="parallel-trim",
                            backend="python", word_width=8,
                            batch_size=5)
        assert FuzzConfig.from_dict(config.as_dict()) == config

    def test_label_is_readable(self):
        config = FuzzConfig(check="faults", workers=2)
        label = config.label()
        assert "faults" in label and "j2" in label

    def test_rejects_unknown_check(self):
        with pytest.raises(SimulationError):
            FuzzConfig(check="quantum")

    def test_rejects_packed_history_technique(self):
        with pytest.raises(SimulationError):
            FuzzConfig(check="packed", technique="parallel-best")

    def test_sampling_is_deterministic(self):
        a = sample_configs(random.Random(42), 20)
        b = sample_configs(random.Random(42), 20)
        assert a == b
        assert {c.check for c in a} <= set(CHECKS)

    def test_from_dict_upgrades_pre_schema_dicts(self):
        # Corpus entries written before the schema field carry no
        # ``schema`` key; those load as schema 1 through the upgrade
        # shims and refill defaults.
        old = {"check": "packed", "technique": "zero-lcc",
               "backend": "python", "word_width": 16,
               "batch_size": 0, "workers": 1}
        config = FuzzConfig.from_dict(old)
        assert config.as_dict()["schema"] == CONFIG_SCHEMA
        assert FuzzConfig.from_dict(config.as_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        # Silently ignoring unknown keys made corpus replay fragile: a
        # drifted entry would replay the wrong lattice point and pass.
        old = {"check": "packed", "technique": "zero-lcc",
               "backend": "python", "word_width": 16,
               "batch_size": 0, "workers": 1}
        with pytest.raises(SimulationError, match="unknown"):
            FuzzConfig.from_dict(dict(old, future_knob=7))

    def test_from_dict_rejects_newer_schema(self):
        data = FuzzConfig(check="history",
                          technique="parallel-best").as_dict()
        data["schema"] = CONFIG_SCHEMA + 1
        with pytest.raises(SimulationError, match="newer"):
            FuzzConfig.from_dict(data)
        data["schema"] = 0
        with pytest.raises(SimulationError, match="positive"):
            FuzzConfig.from_dict(data)

    def test_schema_field_does_not_change_entry_ids(self):
        # Committed corpus filenames are content hashes; the schema
        # marker is metadata and must stay out of the identity.
        circuit = random_dag_circuit(5, num_inputs=2, num_gates=4)
        config = FuzzConfig(check="history", technique="parallel-best")
        entry = entry_from_failure(
            circuit, [[0, 1]], config, error="x"
        )
        assert "schema" in entry.as_dict()["config"]
        stripped = {k: v for k, v in config.as_dict().items()
                    if k != "schema"}
        import hashlib
        import json as json_mod
        payload = json_mod.dumps(
            [entry.bench, ["01"], stripped], sort_keys=True
        )
        expected = hashlib.sha256(payload.encode()).hexdigest()[:16]
        assert entry.entry_id == expected

    def test_surfaces_projection(self):
        assert FuzzConfig(
            check="history", technique="parallel-best"
        ).surfaces() == {"scalar"}
        assert FuzzConfig(
            check="packed", technique="zero-lcc"
        ).surfaces() == {"packed"}
        assert FuzzConfig(
            check="batched", technique="parallel"
        ).surfaces() == {"batched"}
        assert FuzzConfig(
            check="sequential", technique="lcc"
        ).surfaces() == {"replay-restore"}
        assert FuzzConfig(
            check="history", technique="pcset", probes=True
        ).surfaces() == {"scalar", "probed"}

    def test_coverage_configs_span_every_surface(self):
        covered = set()
        for config in coverage_configs(("python",)):
            covered |= config.surfaces()
        assert covered == set(SURFACES)


class TestRunCheck:
    @pytest.fixture(scope="class")
    def triple(self):
        circuit = random_dag_circuit(11, num_inputs=4, num_gates=14)
        return circuit, vectors_for(circuit, 5, seed=3)

    @pytest.mark.parametrize("config", [
        FuzzConfig(check="history", technique="pcset"),
        FuzzConfig(check="history", technique="parallel-best",
                   word_width=8),
        FuzzConfig(check="batched", technique="parallel-cyclebreak",
                   batch_size=2),
        FuzzConfig(check="packed", technique="zero-lcc"),
        FuzzConfig(check="packed", technique="pcset", batch_size=3),
        FuzzConfig(check="faults", technique="parallel-best",
                   workers=2),
    ], ids=lambda c: c.label())
    def test_healthy_tree_passes(self, triple, config):
        circuit, vectors = triple
        assert run_check(circuit, vectors, config) > 0

    def test_structured_circuit_passes(self):
        circuit = ripple_carry_adder(3)
        vectors = vectors_for(circuit, 4, seed=1)
        config = FuzzConfig(check="history", technique="parallel-best")
        assert run_check(circuit, vectors, config) == len(vectors)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_packed_high_bits_checked(self, monkeypatch, backend):
        # An unpack that keeps each lane bit but drops the fill group's
        # high bits passes every settled (bit-0) comparison; only the
        # raw words of packed=False can expose it.
        circuit = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", "nand"
        )
        vectors = vectors_for(circuit, 5, seed=3)
        config = FuzzConfig(check="packed", technique="zero-lcc",
                            backend=backend, word_width=64)
        assert run_check(circuit, vectors, config) > 0
        real = simbase.packed_apply

        def dropped_fill(machine, rows, *, block=None):
            return [
                [word & 1 for word in row]
                for row in real(machine, rows, block=block)
            ]

        monkeypatch.setattr(simbase, "packed_apply", dropped_fill)
        with pytest.raises(Mismatch, match="raw output words"):
            run_check(circuit, vectors, config)


class TestMutationIsCaught:
    """The acceptance gate: an injected emitter bug must be caught,
    shrunk to a handful of gates, and replay deterministically."""

    def test_unknown_mutation_rejected(self):
        with pytest.raises(SimulationError, match="unknown mutation"):
            with inject_emitter_bug("off-by-one"):
                pass

    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    def test_mutation_flips_a_direct_check(self, kind):
        # A parity tree of NOTs/XORs etc. won't cover every gate type,
        # so drive the exact corrupted gate type through run_check.
        from repro.netlist.builder import CircuitBuilder

        gate_type, _ = MUTATIONS[kind]
        b = CircuitBuilder("probe")
        a, c = b.inputs("A", "B")
        kind_name = gate_type.name.lower()
        method = {"not": "not_"}.get(kind_name, kind_name)
        if gate_type.min_inputs == 1:
            b.outputs(getattr(b, method)("Z", a))
        else:
            b.outputs(getattr(b, method)("Z", a, c))
        circuit = b.build()
        vectors = [[0, 0], [0, 1], [1, 0], [1, 1]]
        config = FuzzConfig(check="history", technique="parallel-best")
        assert run_check(circuit, vectors, config) == 4
        with inject_emitter_bug(kind):
            with pytest.raises(AssertionError):
                run_check(circuit, vectors, config)
        # Restored on exit: the same check passes again.
        assert run_check(circuit, vectors, config) == 4

    def test_campaign_catches_and_shrinks(self, tmp_path):
        corpus = tmp_path / "corpus"
        with inject_emitter_bug("nor-as-or"):
            result = run_campaign(
                seed=7, iterations=8, backends=("python",),
                include_faults=False, corpus_dir=str(corpus),
            )
        assert not result.ok
        assert result.failures
        for failure in result.failures:
            assert failure.num_gates <= 8
            assert failure.corpus_path is not None
        # Every reproducer replays: clean on healthy code, failing
        # again under the same injection.
        entries = load_corpus(corpus)
        assert len(entries) == len(result.failures)
        for _, entry in entries:
            assert replay_entry(entry) > 0
        with inject_emitter_bug("nor-as-or"):
            for _, entry in entries:
                with pytest.raises(AssertionError):
                    replay_entry(entry)

    def test_campaign_preamble_covers_every_surface(self):
        result = run_campaign(
            seed=3, iterations=1, backends=("python",),
        )
        assert set(result.surface_coverage) == set(SURFACES)
        assert all(
            count > 0 for count in result.surface_coverage.values()
        )
        assert result.ok

    def test_campaign_is_deterministic(self):
        kwargs = dict(seed=19, iterations=5, backends=("python",),
                      include_faults=False)
        a = run_campaign(**kwargs)
        b = run_campaign(**kwargs)
        assert (a.circuits, a.configs_checked, a.comparisons) == \
               (b.circuits, b.configs_checked, b.comparisons)
        assert a.ok and b.ok

    def test_shrink_reaches_minimal_comparator_core(self):
        # Shrinking a corrupted XNOR inside an equality comparator must
        # strip the circuit to (at most) a few gates around one XNOR.
        circuit = equality_comparator(4)
        vectors = vectors_for(circuit, 6, seed=2)
        config = FuzzConfig(check="history", technique="parallel-best")
        with inject_emitter_bug("xnor-as-xor"):
            with pytest.raises(AssertionError) as exc_info:
                run_check(circuit, vectors, config)
            reduced = shrink(circuit, vectors, config,
                             failure=exc_info.value)
        # Pinned inputs survive as CONST gates, so the floor is a few
        # constants plus the corrupted XNOR — well under the 8-gate
        # acceptance bar either way.
        assert reduced.circuit.num_gates <= 8
        assert len(reduced.circuit.inputs) == 1
        assert len(reduced.vectors) == 1
        assert reduced.num_steps > 0


class TestCorpus:
    def _entry(self):
        circuit = random_dag_circuit(5, num_inputs=3, num_gates=6)
        vectors = vectors_for(circuit, 2, seed=0)
        config = FuzzConfig(check="history", technique="pcset")
        return entry_from_failure(
            circuit, vectors, config, seed=5,
            error="Mismatch: synthetic", shrink_steps=["tape[:2]"],
        )

    def test_save_load_round_trip(self, tmp_path):
        entry = self._entry()
        path = save_entry(entry, tmp_path)
        assert path.name == f"{entry.entry_id}.json"
        loaded = load_entry(path)
        assert loaded.config == entry.config
        assert loaded.vectors == entry.vectors
        assert loaded.bench == entry.bench
        assert loaded.entry_id == entry.entry_id

    def test_entry_id_is_content_addressed(self, tmp_path):
        entry = self._entry()
        # Saving twice is idempotent: same content, same file.
        save_entry(entry, tmp_path)
        save_entry(entry, tmp_path)
        assert len(load_corpus(tmp_path)) == 1

    def test_future_version_rejected(self):
        data = self._entry().as_dict()
        data["version"] = 99
        from repro.fuzz.corpus import CorpusEntry
        with pytest.raises(SimulationError, match="version"):
            CorpusEntry.from_dict(data)

    def test_replay_runs_the_stored_triple(self):
        assert replay_entry(self._entry()) > 0

    def test_missing_corpus_dir_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []


class TestFuzzCLI:
    def test_clean_run_exits_zero(self, capsys):
        from repro.cli import main

        status = main([
            "fuzz", "--seed", "3", "-n", "4",
            "--backends", "python", "--no-faults",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_injected_bug_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "corpus"
        status = main([
            "fuzz", "--seed", "3", "-n", "4",
            "--backends", "python", "--no-faults",
            "--inject-bug", "nor-as-or", "--corpus", str(corpus),
        ])
        assert status == 1
        out = capsys.readouterr().out
        assert "injected bug" in out
        assert list(corpus.glob("*.json"))

    def test_unknown_injection_is_a_usage_error(self, capsys):
        from repro.cli import main

        # One list feeds both the help text and argparse's choices, so
        # an unknown name exits 2 before any campaign starts.
        with pytest.raises(SystemExit) as exc_info:
            main(["fuzz", "campaign", "--inject-bug", "partition-exchange"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert all(name in err for name in INJECTIONS)
        with pytest.raises(SystemExit):
            main(["fuzz", "campaign", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert ", ".join(INJECTIONS) in help_text

    def test_unknown_verb_names_the_choices(self, capsys):
        from repro.cli import main

        # A typo is rejected as a verb, not rewritten into campaign
        # arguments.
        with pytest.raises(SystemExit) as exc_info:
            main(["fuzz", "distil"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "campaign" in err and "distill" in err


def _healthy_entry(num_gates, config, seed):
    circuit = random_dag_circuit(seed, num_inputs=3,
                                 num_gates=num_gates)
    vectors = vectors_for(circuit, 3, seed=seed)
    return entry_from_failure(circuit, vectors, config, error="test")


class TestDistill:
    SCALAR = FuzzConfig(check="history", technique="parallel-best")
    BATCHED = FuzzConfig(check="batched", technique="parallel",
                         batch_size=2)

    def test_subsumed_entry_dropped(self, tmp_path):
        small = _healthy_entry(4, self.SCALAR, seed=1)
        large = _healthy_entry(12, self.SCALAR, seed=2)
        save_entry(small, tmp_path)
        save_entry(large, tmp_path)
        result = distill_corpus(tmp_path)
        assert result.lossless
        assert len(result.kept) == 1
        assert result.kept[0][1].entry_id == small.entry_id
        assert result.dropped[0][1].entry_id == large.entry_id

    def test_sole_witness_never_dropped(self, tmp_path):
        # The large entry is the only witness for the batched lattice
        # point: no matter how big, it must survive.
        small = _healthy_entry(4, self.SCALAR, seed=1)
        large = _healthy_entry(12, self.BATCHED, seed=2)
        save_entry(small, tmp_path)
        save_entry(large, tmp_path)
        result = distill_corpus(tmp_path)
        assert result.lossless
        assert len(result.kept) == 2
        assert not result.dropped

    def test_dry_run_deletes_nothing(self, tmp_path):
        for seed in (1, 2):
            save_entry(_healthy_entry(4 + 8 * seed, self.SCALAR,
                                      seed=seed), tmp_path)
        before = sorted(tmp_path.glob("*.json"))
        result = distill_corpus(tmp_path)
        assert result.dropped
        assert sorted(tmp_path.glob("*.json")) == before

    def test_apply_deletes_subsumed_files(self, tmp_path):
        small = _healthy_entry(4, self.SCALAR, seed=1)
        large = _healthy_entry(12, self.SCALAR, seed=2)
        save_entry(small, tmp_path)
        large_path = save_entry(large, tmp_path)
        result = distill_corpus(tmp_path, apply=True)
        assert result.applied
        assert not large_path.exists()
        assert len(list(tmp_path.glob("*.json"))) == 1
        # Idempotent: a second pass keeps everything.
        again = distill_corpus(tmp_path, apply=True)
        assert not again.dropped

    def test_committed_corpus_distills_lossless(self):
        # The acceptance criterion: distilling the committed corpus
        # preserves every covered lattice point.  Dry run, no replay —
        # tests/test_fuzz_corpus.py already replays each entry.
        result = distill_corpus(REPO_ROOT / "fuzz-corpus",
                                check=False)
        assert result.lossless
        assert result.points_after == result.points_before
        assert result.kept

    def test_empty_corpus(self, tmp_path):
        result = distill_corpus(tmp_path / "nothing")
        assert result.lossless
        assert not result.kept and not result.dropped


class TestSequentialAxis:
    """The clocked lattice axis: sequentialized circuits are checked
    against a reference step loop, across all three engines."""

    @pytest.fixture(scope="class")
    def seq_triple(self):
        from repro.netlist.random_circuits import sequentialize

        base = random_dag_circuit(21, num_inputs=5, num_gates=16)
        circuit = sequentialize(base, 2, seed=77)
        return circuit, vectors_for(circuit, 6, seed=5)

    def test_sequentialize_convention(self):
        from repro.netlist.random_circuits import (
            derive_flipflops,
            sequentialize,
        )

        base = random_dag_circuit(21, num_inputs=5, num_gates=16)
        circuit = sequentialize(base, 2, seed=77)
        ffs = derive_flipflops(circuit)
        assert len(ffs) == 2
        for q, d in ffs.items():
            assert q.startswith("FQ") and d == "FD" + q[len("FQ"):]
            assert q in circuit.inputs
            assert circuit.net(d).is_output
        # Deterministic for a seed, and a no-op when it can't apply.
        from repro.netlist.bench import write_bench

        again = sequentialize(base, 2, seed=77)
        assert write_bench(again) == write_bench(circuit)
        assert sequentialize(base, 0) is base

    def test_convention_survives_bench_round_trip(self, seq_triple):
        from repro.netlist.bench import parse_bench, write_bench
        from repro.netlist.random_circuits import derive_flipflops

        circuit, _ = seq_triple
        reparsed = parse_bench(write_bench(circuit), circuit.name)
        assert derive_flipflops(reparsed) == derive_flipflops(circuit)

    def test_config_validation(self):
        from repro.fuzz.lattice import SEQUENTIAL_ENGINES

        config = FuzzConfig(check="sequential", technique="pcset",
                            batch_size=3)
        assert "sequential" in config.label()
        assert FuzzConfig.from_dict(config.as_dict()) == config
        with pytest.raises(SimulationError):
            FuzzConfig(check="sequential", technique="parallel-best")
        assert set(SEQUENTIAL_ENGINES) == {"lcc", "parallel", "pcset"}

    def test_sampling_draws_sequential_points(self):
        configs = sample_configs(random.Random(5), 80)
        seq = [c for c in configs if c.check == "sequential"]
        assert seq
        assert {c.technique for c in seq} <= {"lcc", "parallel", "pcset"}

    @pytest.mark.parametrize("technique", ["lcc", "parallel", "pcset"])
    def test_healthy_sequential_passes(self, seq_triple, technique):
        circuit, vectors = seq_triple
        config = FuzzConfig(check="sequential", technique=technique)
        assert run_check(circuit, vectors, config) > 0

    def test_combinational_circuit_trivially_passes(self):
        # No FQ/FD pairs: the check degenerates to a clocked run with
        # zero flip-flops, which must still agree with the reference.
        circuit = ripple_carry_adder(2)
        vectors = vectors_for(circuit, 3, seed=2)
        config = FuzzConfig(check="sequential", technique="lcc")
        assert run_check(circuit, vectors, config) > 0

    def test_injected_bug_caught(self, seq_triple):
        circuit, vectors = seq_triple
        config = FuzzConfig(check="sequential", technique="lcc")
        with inject_emitter_bug("nand-as-and"):
            with pytest.raises(Exception):
                run_check(circuit, vectors, config)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_losing_previous_row_caught(self, monkeypatch, backend):
        # An output that toggles every cycle: a resumed replay that
        # forgets the checkpoint's previous row misses one toggle.
        from repro.replay import harness

        circuit = parse_bench(
            "INPUT(A)\nINPUT(FQ0)\nOUTPUT(FD0)\nOUTPUT(Y)\n"
            "FD0 = NOT(FQ0)\nY = AND(FQ0, A)\n", "toggler",
        )
        vectors = vectors_for(circuit, 7, seed=2)
        config = FuzzConfig(
            check="sequential", technique="lcc", backend=backend
        )
        assert run_check(circuit, vectors, config) > 0
        load = harness.load_checkpoint

        def forgetful(path):
            checkpoint = load(path)
            checkpoint.prev_outputs = None
            return checkpoint

        monkeypatch.setattr(harness, "load_checkpoint", forgetful)
        with pytest.raises(Mismatch, match="resumed at cycle 3"):
            run_check(circuit, vectors, config)

    def test_corpus_round_trip_keeps_state(self, tmp_path, seq_triple):
        from repro.netlist.random_circuits import derive_flipflops

        circuit, vectors = seq_triple
        config = FuzzConfig(check="sequential", technique="parallel")
        entry = entry_from_failure(
            circuit, vectors, config, seed=9,
            error="Mismatch: synthetic", shrink_steps=[],
        )
        path = save_entry(entry, tmp_path)
        loaded = load_entry(path)
        assert loaded.config == config
        assert derive_flipflops(loaded.circuit()) == \
            derive_flipflops(circuit)

    def test_campaign_draws_sequential_circuits(self):
        from repro.netlist.random_circuits import derive_flipflops

        result = run_campaign(seed=1990, iterations=12,
                              backends=("python",),
                              include_faults=False)
        assert result.ok
        assert result.comparisons > 0
