"""Tests for the execution backends (Machine protocol)."""

import gc
import inspect
import os
import subprocess
import sys
import textwrap
import threading

import pytest

import repro
from repro.codegen.program import Assign, Bin, Const, Emit, Input, Program, Var
from repro.codegen.runtime import (
    CMachine,
    PythonMachine,
    compile_program,
    have_c_compiler,
    program_cache,
    program_fingerprint,
)
from repro.errors import BackendError

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)


def _counter_program(name: str = "counter") -> Program:
    """x' = x | V[0]; emits x."""
    p = Program(name, word_width=16, inputs=["IN"])
    p.declare("x", 0)
    p.body.append(Assign("x", Bin("|", Var("x"), Input(0))))
    p.output.append(Emit(Var("x"), ("x",)))
    return p


def _run_child(tmp_path, script: str) -> str:
    """Run ``script`` in a fresh interpreter whose temp dir is ``tmp_path``.

    The script can call :func:`_counter_program`; its stdout is
    returned.
    """
    preamble = (
        "from repro.codegen.program import Assign, Bin, Emit, Input, "
        "Program, Var\n" + inspect.getsource(_counter_program)
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", preamble + textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestPythonMachine:
    def test_step_and_outputs(self):
        machine = PythonMachine(_counter_program())
        assert machine.step([0b01]) == [0b01]
        assert machine.step([0b10]) == [0b11]
        assert machine.num_inputs == 1
        assert machine.num_state == 1
        assert machine.output_labels() == [("x",)]

    def test_state_roundtrip(self):
        machine = PythonMachine(_counter_program())
        machine.step([7])
        assert machine.dump_state() == [7]
        machine.load_state([0x1FFFF])  # masked to 16 bits
        assert machine.dump_state() == [0xFFFF]
        assert machine.state_dict() == {"x": 0xFFFF}

    def test_load_state_length_checked(self):
        machine = PythonMachine(_counter_program())
        with pytest.raises(BackendError, match="state has 1"):
            machine.load_state([1, 2])

    def test_source_attached(self):
        machine = PythonMachine(_counter_program())
        assert "def machine():" in machine.source

    def test_inputs_masked_to_word_width(self):
        # Oversized Python ints must behave like the C backend's
        # fixed-width words (ctypes truncates silently).
        machine = PythonMachine(_counter_program())
        assert machine.step([0x1_0002]) == [0x0002]

    def test_step_rejects_wrong_vector_length(self):
        machine = PythonMachine(_counter_program())
        with pytest.raises(BackendError, match="expected 1"):
            machine.step([1, 2])

    def test_step_many_matches_step_loop(self):
        batched = PythonMachine(_counter_program())
        scalar = PythonMachine(_counter_program())
        vectors = [[1], [4], [2], [8]]
        expected = [scalar.step(v) for v in vectors]
        assert batched.step_many(vectors) == expected
        assert batched.dump_state() == scalar.dump_state()

    def test_run_block_flat_buffer_and_discard(self):
        machine = PythonMachine(_counter_program())
        out: list = []
        assert machine.run_block([[1], [2]], out) is out
        assert out == [1, 3]
        # out=None discards but still advances state.
        assert machine.run_block([[4]]) is None
        assert machine.dump_state() == [7]

    def test_counters_accumulate(self):
        machine = PythonMachine(_counter_program())
        assert machine.counters.batches == 0
        machine.step_many([[1], [2], [4]])
        machine.run_block([[8]])
        assert machine.counters.batches == 2
        assert machine.counters.vectors == 4
        assert machine.counters.seconds > 0
        assert machine.counters.vectors_per_second > 0
        machine.counters.reset()
        assert machine.counters.as_dict()["vectors"] == 0


@NEED_CC
class TestCMachine:
    def test_step_and_state(self):
        machine = CMachine(_counter_program())
        assert machine.step([5]) == [5]
        assert machine.dump_state() == [5]
        machine.load_state([0])
        assert machine.step([2]) == [2]

    def test_step_many(self):
        machine = CMachine(_counter_program())
        outs = machine.step_many([[1], [2], [4]])
        assert outs == [[1], [3], [7]]
        assert machine.dump_state() == [7]

    def test_run_block_collects_or_discards(self):
        machine = CMachine(_counter_program())
        out: list = []
        machine.run_block([[1], [2]], out)
        assert out == [1, 3]
        machine.run_block([[4]])  # discarded, state still advances
        assert machine.dump_state() == [7]
        assert machine.counters.vectors == 3

    def test_pack_block_rejects_ragged_vectors(self):
        # Regression: a short vector used to shift every later vector
        # into the wrong slot (pos ran backwards); a long one overran
        # into the next vector's words.
        machine = CMachine(_counter_program())
        with pytest.raises(BackendError, match="vector 1"):
            machine.pack_block([[1], [1, 2]])
        with pytest.raises(BackendError, match="vector 0"):
            machine.pack_block([[], [1]])

    def test_compile_failure_reported(self, monkeypatch):
        program = _counter_program()
        # Sabotage the source through a bogus variable name that only
        # the C compiler rejects.
        program.state_vars.append("1bad")
        program.state_init["1bad"] = 0
        with pytest.raises(BackendError, match="compilation failed"):
            CMachine(program)

    def test_load_state_length_checked(self):
        machine = CMachine(_counter_program())
        with pytest.raises(BackendError):
            machine.load_state([])


def _toggle_program(inputs: int = 2, emits: bool = True) -> Program:
    """x' = x ^ V[0]; emits x, ~x (high bits set) and x & V[last]."""
    p = Program("toggle", word_width=32, inputs=[f"I{k}" for k in
                                                range(inputs)])
    p.declare("x", 0)
    if inputs:
        p.body.append(Assign("x", Bin("^", Var("x"), Input(0))))
    if emits:
        p.output.append(Emit(Var("x"), ("x",)))
        p.output.append(Emit(~Var("x"), ("nx",)))
        if inputs:
            p.output.append(
                Emit(Bin("&", Var("x"), Input(inputs - 1)), ("and",))
            )
    return p


MACHINES = [PythonMachine] + ([CMachine] if have_c_compiler() else [])


@pytest.mark.parametrize("machine_class", MACHINES)
class TestRunBitRows:
    def test_matches_step_many_bit_zero(self, machine_class):
        rows = [[1, 0], [1, 1], [0, 1], [1, 1], [0, 0]]
        bits = machine_class(_toggle_program())
        words = machine_class(_toggle_program())
        block = bytes(sum(rows, []))
        expected = [w & 1 for row in words.step_many(rows) for w in row]
        assert bits.run_bit_rows(block, len(rows)) == bytes(expected)
        assert bits.dump_state() == words.dump_state()
        assert bits.counters.vectors == len(rows)

    def test_no_inputs_and_no_outputs(self, machine_class):
        bare = machine_class(_toggle_program(inputs=0))
        assert bare.run_bit_rows(b"", 3) == bytes([0, 1] * 3)
        silent = machine_class(_toggle_program(emits=False))
        assert silent.run_bit_rows(b"\x01\x00\x01\x00", 2) == b""
        assert silent.dump_state() == [0]
        assert machine_class(_toggle_program()).run_bit_rows(b"", 0) == b""

    def test_block_length_checked(self, machine_class):
        machine = machine_class(_toggle_program())
        with pytest.raises(BackendError, match="3 bytes, expected 2"):
            machine.run_bit_rows(b"\x01\x00\x01", 2)


class TestCompileProgram:
    def test_backend_selection(self):
        assert isinstance(
            compile_program(_counter_program(), "python"), PythonMachine
        )
        with pytest.raises(BackendError, match="unknown backend"):
            compile_program(_counter_program(), "fortran")

    @NEED_CC
    def test_c_selection(self):
        assert isinstance(
            compile_program(_counter_program(), "c"), CMachine
        )

    def test_have_c_compiler_cached(self):
        first = have_c_compiler()
        assert have_c_compiler() == first

    def test_have_c_compiler_force_reprobes(self, monkeypatch):
        import shutil as _shutil

        try:
            # With every candidate unresolvable the reprobe must
            # return None even though a positive result was cached ...
            monkeypatch.setattr(_shutil, "which", lambda name: None)
            assert have_c_compiler(force=True) is None
            # ... and without force, the (now negative) cache sticks.
            monkeypatch.undo()
            assert have_c_compiler() is None
        finally:
            have_c_compiler(force=True)  # restore the real probe


class TestProgramCache:
    def test_python_code_object_reused(self):
        program = _counter_program()
        fingerprint = program_fingerprint(program.python_source())
        key = (fingerprint, "python", "")
        cache = program_cache()
        a = PythonMachine(program)
        hits = cache.hits
        b = PythonMachine(_counter_program())
        assert cache.hits == hits + 1
        assert cache.get(key) is not None
        # Cached code, independent coroutine state.
        assert a.step([1]) == [1]
        assert b.step([2]) == [2]
        assert a.dump_state() == [1]
        assert b.dump_state() == [2]

    @NEED_CC
    def test_c_artifact_reused_with_private_state(self):
        cache = program_cache()
        first = CMachine(_counter_program())
        hits = cache.hits
        second = CMachine(_counter_program())
        assert cache.hits == hits + 1  # library reused, not rebuilt
        assert first._lib is second._lib
        # One library, two states: nothing leaks between machines.
        assert first.step([5]) == [5]
        assert second.dump_state() == [0]
        second.load_state([1])
        assert first.dump_state() == [5]
        assert second.step([8]) == [9]
        assert first.step([0]) == [5]
        assert second.dump_state() == [9]

    @NEED_CC
    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="needs /proc")
    def test_dropped_machines_leave_one_library(self):
        def mapped():
            with open("/proc/self/maps") as maps:
                return {
                    line.split(None, 5)[5].strip()
                    for line in maps
                    if "/dropped" in line and ".so" in line
                }

        for value in range(50):
            machine = CMachine(_counter_program("dropped"))
            assert machine.step([value]) == [value]
            del machine
        gc.collect()
        assert len(mapped()) == 1

    @NEED_CC
    def test_wiped_tempdir_keeps_cache_hits_working(self, tmp_path):
        # Regression: a cache hit copied the library out of a cache
        # directory under the temp dir, so once a temp cleaner removed
        # it every later hit raised FileNotFoundError.
        out = _run_child(tmp_path, """
            import os, shutil, tempfile
            from repro.codegen.runtime import CMachine, program_cache

            first = CMachine(_counter_program())
            root = tempfile.gettempdir()
            for entry in os.listdir(root):
                path = os.path.join(root, entry)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                else:
                    os.unlink(path)
            hits = program_cache().hits
            second = CMachine(_counter_program())
            assert program_cache().hits == hits + 1
            print(second.step([3]), first.dump_state())
        """)
        assert out.split() == ["[3]", "[0]"]

    @NEED_CC
    def test_no_files_left_in_tempdir(self, tmp_path):
        # A miss, a hit and a compile at another opt level, checked
        # while the machines are alive and again after the process is
        # gone.
        out = _run_child(tmp_path, """
            import os, tempfile
            from repro.codegen.runtime import CMachine, program_cache

            cache = program_cache()
            machines = [
                CMachine(_counter_program()),
                CMachine(_counter_program()),
                CMachine(_counter_program(), opt_level="-O0"),
            ]
            print(cache.misses, cache.hits, os.listdir(tempfile.gettempdir()))
        """)
        assert out.split() == ["2", "1", "[]"]
        assert list(tmp_path.iterdir()) == []

    @NEED_CC
    def test_threads_share_one_library(self):
        # ctypes releases the GIL in foreign calls, so the two threads'
        # kernels really run at once on the shared library.
        program = Program("adder", word_width=32, inputs=["IN"])
        program.declare("x", 1)
        program.body.append(Assign("x", Bin("+", Var("x"), Input(0))))
        program.output.append(Emit(Var("x"), ("x",)))
        calls = [
            [[[(seed * 7919 + call * 64 + i) % 1000] for i in range(64)]
             for call in range(200)]
            for seed in (1, 2)
        ]

        def drive(machine, batches, results):
            for batch in batches:
                results.append(machine.run_block(batch, []))

        expected = []
        for batches in calls:
            results: list = []
            drive(CMachine(program), batches, results)
            expected.append(results)
        machines = [CMachine(program) for _ in calls]
        assert machines[0]._lib is machines[1]._lib
        got: list = [[], []]
        threads = [
            threading.Thread(target=drive, args=(m, b, r))
            for m, b, r in zip(machines, calls, got)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected

    @NEED_CC
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_keeps_loaded_programs(self):
        parent = CMachine(_counter_program())
        assert parent.step([5]) == [5]
        child = os.fork()
        if child == 0:
            # In the child: assert with os._exit codes (no pytest).
            try:
                def refuse(*args):
                    raise AssertionError("the compiler ran")

                CMachine._compile = refuse
                cache = program_cache()
                hits = cache.hits
                twin = CMachine(_counter_program())
                ok = cache.hits == hits + 1 and twin._lib is parent._lib
                ok = ok and twin.step([2]) == [2]
                ok = ok and parent.step([10]) == [15]
                os._exit(0 if ok else 1)
            except BaseException:
                os._exit(2)
        _pid, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert parent.dump_state() == [5]

    def test_lru_eviction_and_stats(self):
        from repro.codegen.runtime import ProgramCache

        cache = ProgramCache(capacity=2)
        cache.put(("a", "python", ""), object())
        cache.put(("b", "python", ""), object())
        assert cache.get(("a", "python", "")) is not None
        cache.put(("c", "python", ""), object())  # evicts "b" (LRU)
        assert cache.get(("b", "python", "")) is None
        assert cache.get(("a", "python", "")) is not None
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["entries"] == 2
        cache.clear()
        assert len(cache) == 0


def test_opt_level_auto_downgrade():
    from repro.codegen.program import Assign, Bin, Program, Var

    small = _counter_program()
    assert CMachine(small).opt_level == "-O1"
    # A synthetic program over the line threshold drops to -O0.
    big = Program("big", word_width=32, inputs=["IN"])
    big.declare("x")
    for _ in range(CMachine.O0_LINE_THRESHOLD + 1):
        big.body.append(Assign("x", Bin("&", Var("x"), Var("x"))))
    machine = CMachine(big)
    assert machine.opt_level == "-O0"
