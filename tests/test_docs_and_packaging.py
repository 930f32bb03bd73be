"""Repository-level checks: docs exist, API surface is importable,
examples are syntactically valid, every public module has a docstring.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent.parent.parent


class TestDocumentsExist:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md",
        "docs/algorithms.md", "benchmarks/README.md",
    ])
    def test_present_and_substantial(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 1500, name

    def test_design_maps_every_figure(self):
        text = (ROOT / "DESIGN.md").read_text()
        for figure in ("Fig. 19", "Fig. 20", "Fig. 21", "Fig. 22",
                       "Fig. 23", "Fig. 24"):
            assert figure in text


class TestReadmeCommands:
    def test_every_repro_sim_command_parses(self, monkeypatch, tmp_path):
        # Every ``repro-sim`` line in README.md's bash blocks must parse
        # against the current CLI, so a removed flag cannot linger in
        # the README.  The subcommands themselves are stubbed out.
        from repro import cli, telemetry

        for name in dir(cli):
            if name.startswith("_cmd_"):
                monkeypatch.setattr(cli, name, lambda args: 0)
        monkeypatch.chdir(tmp_path)  # --metrics-out writes a file
        text = (ROOT / "README.md").read_text()
        lines = [
            shlex.split(line, comments=True)
            for block in re.findall(r"```bash\n(.*?)```", text, re.S)
            for line in block.replace("\\\n", " ").splitlines()
        ]
        commands = [argv[1:] for argv in lines if argv[:1] == ["repro-sim"]]
        assert len(commands) >= 20
        prior = telemetry.enabled()
        try:
            for argv in commands:
                try:
                    status = cli.main(argv)
                except SystemExit as error:
                    pytest.fail(
                        f"repro-sim {shlex.join(argv)}: exit {error.code}"
                    )
                assert status == 0, argv
        finally:
            telemetry.enable() if prior else telemetry.disable()
            telemetry.reset()


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_every_module_importable_with_docstring(self):
        package_dir = Path(repro.__file__).parent
        for module_info in pkgutil.walk_packages(
            [str(package_dir)], prefix="repro."
        ):
            module = importlib.import_module(module_info.name)
            assert module.__doc__, module_info.name
            assert len(module.__doc__.strip()) > 40, module_info.name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_import_loads_no_process_pool(self):
        # Fault grading splits its screen across threads; nothing in
        # the package starts processes, so a fresh interpreter's
        # ``import repro`` must not pay for a process pool's modules.
        probe = (
            "import sys, repro; print(sorted(name for name in "
            "('multiprocessing', 'concurrent.futures.process') "
            "if name in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=env, check=True,
        )
        assert result.stdout.strip() == "[]"


class TestExamplesParse:
    def test_all_examples_have_main_and_docstring(self):
        examples = sorted((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 6
        for path in examples:
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), path.name
            names = {
                node.name for node in tree.body
                if isinstance(node, ast.FunctionDef)
            }
            assert "main" in names, path.name


class TestBenchmarksParse:
    def test_every_figure_has_a_bench_module(self):
        bench_dir = ROOT / "benchmarks"
        for figure in ("fig19", "fig20", "fig21", "fig22", "fig23",
                       "fig24"):
            matches = list(bench_dir.glob(f"bench_{figure}*.py"))
            assert matches, figure

    def test_bench_modules_have_report_tests(self):
        bench_dir = ROOT / "benchmarks"
        for path in bench_dir.glob("bench_*.py"):
            text = path.read_text()
            assert "write_report(" in text, path.name

    def test_compiled_facades_take_no_keyword_catch_all(self):
        # A ``**kwargs`` on a facade or on the executor base would let
        # a private knob (or a typo) through to the machine unchecked.
        import inspect

        from repro.simbase import CompiledSimulator

        for cls in (CompiledSimulator, repro.LCCSimulator,
                    repro.ParallelSimulator, repro.PCSetSimulator,
                    repro.MultiVectorPCSetSimulator):
            kinds = [
                parameter.kind for parameter in
                inspect.signature(cls.__init__).parameters.values()
            ]
            assert inspect.Parameter.VAR_KEYWORD not in kinds, cls
            assert inspect.Parameter.VAR_POSITIONAL not in kinds, cls

    def test_benchmark_tracer_targets_resolve(self):
        # Every benchmark run calls trace.import_targets() first, traced
        # or not: renaming or moving any traced function or method fails
        # every run, so the rename has to fail here, in tier 1, too.
        path = ROOT / "benchmarks" / "suite" / "trace.py"
        spec = importlib.util.spec_from_file_location("suite_trace", path)
        trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trace)
        trace.import_targets()

    def test_executor_and_packing_know_no_backend(self):
        # The batch executor and the packed entry points reach a backend
        # through the Machine interface alone: one machine call, no
        # type test.
        for module in ("simbase.py", "codegen/packing.py"):
            text = (ROOT / "src" / "repro" / module).read_text()
            assert "CMachine" not in text, module
