"""Tests for the command-line interface."""

import pytest

from repro.cli import main, resolve_circuit
from repro.codegen.runtime import have_c_compiler
from repro.netlist.bench import write_bench
from repro.netlist.iscas85 import make_circuit


class TestResolveCircuit:
    def test_iscas_name(self):
        circuit = resolve_circuit("c432")
        assert circuit.num_gates == 160

    def test_generator_specs(self):
        assert resolve_circuit("rca4").name == "rca4"
        assert resolve_circuit("mul3").num_gates > 0
        assert resolve_circuit("parity8").name == "parity8"

    def test_bench_file(self, tmp_path):
        path = tmp_path / "x.bench"
        path.write_text(write_bench(make_circuit("c432", scale_factor=0.2)))
        circuit = resolve_circuit(str(path))
        assert circuit.name == "x"

    def test_unknown(self):
        with pytest.raises(SystemExit, match="unknown circuit"):
            resolve_circuit("nonsense")


class TestCommands:
    def test_stats(self, capsys):
        assert main(["--scale", "0.2", "stats", "c432"]) == 0
        out = capsys.readouterr().out
        assert "gates" in out
        assert "shifts_pathtrace" in out

    def test_stats_fast(self, capsys):
        assert main(["--scale", "0.2", "stats", "c432", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "shifts_pathtrace" not in out

    def test_stats_names_the_c_flags(self, capsys):
        from repro.codegen.c_emitter import STEP_PART_OPTIMIZE
        from repro.codegen.runtime import CMachine, have_c_compiler

        assert main(["--scale", "0.2", "stats", "c432", "--fast"]) == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("c compiler")
        )
        if have_c_compiler() is None:
            assert "none" in line
            return
        assert f" {CMachine.OPT_LEVEL}," in line
        passes = ", ".join(f'"{name}"' for name in STEP_PART_OPTIMIZE)
        assert f"step parts at optimize({passes})" in line
        assert f"-O0 past {CMachine.O0_LINE_THRESHOLD} statements" in line

    def test_compile_to_stdout(self, capsys):
        assert main(["compile", "rca2", "-t", "parallel", "-l", "c"]) == 0
        out = capsys.readouterr().out
        assert "void step(" in out

    def test_compile_python_to_file(self, tmp_path, capsys):
        target = tmp_path / "gen.py"
        assert main([
            "compile", "rca2", "-t", "pcset", "-l", "python",
            "-o", str(target),
        ]) == 0
        assert "def machine():" in target.read_text()
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("technique", [
        "interp2", "interp3", "pcset", "parallel", "parallel-best",
        "zero-lcc",
    ])
    def test_simulate(self, technique, capsys):
        assert main([
            "simulate", "rca2", "-t", technique, "-n", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 3
        assert "S0=" in out

    def test_simulate_agreement_across_techniques(self, capsys):
        outputs = {}
        for technique in ("interp2", "pcset", "parallel-best"):
            main(["simulate", "rca3", "-t", technique, "-n", "5",
                  "--seed", "9"])
            outputs[technique] = capsys.readouterr().out
        assert outputs["interp2"] == outputs["pcset"]
        assert outputs["interp2"] == outputs["parallel-best"]

    def test_bench_command(self, capsys):
        assert main([
            "bench", "rca2", "-t", "interp2", "pcset", "-n", "10",
            "--repeat", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "pcset" in out


class TestErrors:
    def test_library_error_is_one_line_exit_2(self, capsys):
        # The library refuses the worker count; the command reports it
        # the way argparse reports a bad option, with no traceback.
        assert main(["faults", "rca2", "-j", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro-sim: error: workers must be >= 1: 0\n"
        assert "Traceback" not in captured.out

    @pytest.mark.parametrize("flag", [
        ["--shards", "2"], ["--mp-start", "fork"],
        ["--shard-timeout", "1"],
    ])
    def test_process_pool_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["faults", "c432", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestActivityAndVcd:
    def test_activity_command(self, capsys):
        assert main(["activity", "rca3", "-n", "20", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "switching activity" in out
        assert "glitch" in out

    def test_activity_matches_between_engines(self, capsys):
        main(["activity", "rca3", "-n", "20", "-t", "parallel-best"])
        compiled = capsys.readouterr().out
        main(["activity", "rca3", "-n", "20", "-t", "interp2"])
        interpreted = capsys.readouterr().out
        assert compiled == interpreted

    def test_vcd_command(self, tmp_path, capsys):
        target = tmp_path / "t.vcd"
        assert main(["vcd", "rca2", "-o", str(target), "-n", "4"]) == 0
        text = target.read_text()
        assert text.startswith("$date")
        assert "$enddefinitions" in text
        assert "wrote 4 vectors" in capsys.readouterr().out

    def test_vcd_all_nets(self, tmp_path):
        target = tmp_path / "t.vcd"
        main(["vcd", "rca2", "-o", str(target), "-n", "2",
              "--all-nets"])
        assert " fa0_p $end" in target.read_text()


def test_simulate_excludes_multivector():
    # pcset-mv has no scalar final_values(); the CLI must not offer it.
    with pytest.raises(SystemExit):
        main(["simulate", "rca2", "-t", "pcset-mv", "-n", "1"])


def test_faults_command(capsys):
    assert main(["faults", "rca2", "-n", "30"]) == 0
    out = capsys.readouterr().out
    assert "coverage" in out


def test_faults_command_with_workers(capsys):
    backend = "c" if have_c_compiler() else "python"
    argv = ["--scale", "0.3", "faults", "c432", "-n", "40", "-b", backend,
            "--show-undetected"]
    assert main(argv) == 0
    inline = capsys.readouterr().out
    assert main([*argv, "-j", "3"]) == 0
    threaded = capsys.readouterr().out

    def report_lines(out):
        return [line for line in out.splitlines()
                if not line.startswith("throughput:")]

    # The same report, and no line about workers or shards.
    assert report_lines(threaded) == report_lines(inline)
    assert len(report_lines(threaded)) == 2


class TestEquivCommand:
    def test_equivalent_architectures(self, capsys):
        assert main(["equiv", "rca4", "cla4"]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_mismatch_exit_code(self, capsys):
        b = __import__("repro").CircuitBuilder("m")
        # different functions with same interface via generator specs
        assert main(["equiv", "rca2", "rca2"]) == 0
