"""Per-layer spans, recorded from outside the library.

A :class:`Tracer` wraps every function and method in :data:`TARGETS` at
each module that binds it — the way :mod:`repro.fuzz.mutation` patches
import sites — and restores every binding on :meth:`Tracer.uninstall`.
Each call records a span ``[name, start, end, parent, work]`` in
memory; :meth:`Tracer.write` saves them as JSON when the run ends.

The compiled kernel is timed one level below the ``Machine`` methods:
when ``compile_program`` returns a C machine, its ctypes entry points
(``step``, ``run_block``, ``run_packed_block``, ``dump_state``,
``load_state``) are wrapped per instance.  Spans of the three pass
entries carry ``work = (passes, ops, lanes)`` so kernel speed can be
stated per operation and per gate evaluation.

A layer's self time is its span minus the time its child spans cover
(:func:`summarize`).  Every span belongs to the root span it ran under:
the benchmark opens one ``setup`` root per cold set-up and one ``call``
root per public call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from contextlib import contextmanager

#: ``(module, attribute, span name)``.  A plain function is patched in
#: every ``repro``/suite module that binds it; ``Class.method`` is
#: patched on the class that defines it.
TARGETS = (
    ("repro.netlist.bench", "parse_bench", "netlist.parse"),
    ("repro.analysis.levelize", "levelize", "analysis.levelize"),
    ("repro.analysis.pcsets", "compute_pc_sets", "analysis.pcsets"),
    ("repro.parallel.pathtrace", "path_tracing_alignment", "parallel.align"),
    ("repro.lcc.zerodelay", "generate_lcc_program", "codegen.emit"),
    ("repro.parallel.codegen", "generate_parallel_program", "codegen.emit"),
    ("repro.parallel.aligned_codegen", "generate_aligned_program",
     "codegen.emit"),
    ("repro.pcset.codegen", "generate_pcset_program", "codegen.emit"),
    ("repro.codegen.program", "Program.c_source", "codegen.emit"),
    ("repro.codegen.runtime", "compile_program", "runtime.load"),
    ("repro.codegen.runtime", "CMachine._compile", "runtime.cc"),
    ("repro.codegen.runtime", "Machine.step_many", "runtime.marshal"),
    ("repro.codegen.runtime", "CMachine.step", "runtime.marshal"),
    ("repro.codegen.runtime", "CMachine.run_block", "runtime.marshal"),
    ("repro.codegen.runtime", "CMachine.run_packed", "runtime.marshal"),
    ("repro.codegen.runtime", "CMachine.run_packed_block", "runtime.marshal"),
    ("repro.codegen.runtime", "CMachine.pack_block", "runtime.marshal"),
    ("repro.codegen.runtime", "CMachine.dump_state", "runtime.marshal"),
    ("repro.codegen.runtime", "CMachine.load_state", "runtime.marshal"),
    ("repro.codegen.packing", "pack_patterns", "packing.pack"),
    ("repro.codegen.packing", "packed_apply", "packing.unpack"),
    ("repro.codegen.packing", "packed_bits", "packing.unpack"),
    ("repro.lcc.zerodelay", "LCCSimulator.__init__", "lcc.build"),
    ("repro.lcc.zerodelay", "LCCSimulator.apply_vectors", "lcc.apply"),
    ("repro.parallel.simulator", "ParallelSimulator.__init__",
     "simbase.build"),
    ("repro.simbase", "CompiledSimulator.reset", "simbase.seed"),
    ("repro.simbase", "CompiledSimulator.apply_vectors", "simbase.apply"),
    ("repro.faults.simulator", "ParallelFaultSimulator.__init__",
     "faults.build"),
    ("repro.faults.simulator", "ParallelFaultSimulator.warm_up",
     "faults.warm_up"),
    ("repro.faults.simulator", "ParallelFaultSimulator.run", "faults.run"),
    ("repro.faults.simulator", "run_fault_simulation", "faults.grade"),
    ("repro.seqsim", "CompiledSequentialSimulator.__init__", "seqsim.build"),
    ("repro.seqsim", "CompiledSequentialSimulator.apply_vectors",
     "seqsim.loop"),
    ("repro.replay.tape", "Tape.read", "replay.tape_read"),
    ("repro.replay.harness", "replay_tape", "replay.replay"),
)

#: Span name -> layer.  Every other span is the *facade*: the simulator
#: classes and entry functions above the ``Machine`` interface.
LAYER_OF = {
    "netlist.parse": "parse",
    "analysis.levelize": "analysis",
    "analysis.pcsets": "analysis",
    "parallel.align": "analysis",
    "codegen.emit": "emit",
    "runtime.cc": "cc",
    "runtime.load": "load",
    "runtime.marshal": "marshal",
    "runtime.kernel": "kernel",
}

#: Root span names opened by the benchmark itself.
ROOTS = ("setup", "call")

_BATCH_ENTRIES = ("run_block", "run_packed_block")
_OWNED_PACKAGES = ("repro", "suite")

_WORKLOADS = ("lcc-stream", "unit-delay", "fault-grade", "replay")
_MARSHALLING = ("lcc-stream", "fault-grade", "replay")

#: Per-layer metric -> {end-to-end metric: workloads it should move}.
#: Written down before measuring; README.md explains each line.
LAYER_MAP = {
    "setup.parse_s": {"setup_s": _WORKLOADS},
    "setup.analysis_s": {"setup_s": _WORKLOADS},
    "setup.emit_s": {"setup_s": _WORKLOADS},
    "setup.cc_s": {"setup_s": _WORKLOADS},
    "setup.cc_calls": {"setup_s": _WORKLOADS},
    "setup.load_s": {"setup_s": _WORKLOADS},
    "setup.facade_s": {"setup_s": ("unit-delay",)},
    "setup.cache_misses": {"setup_s": _WORKLOADS},
    "setup.source_lines": {
        "setup_s": _WORKLOADS, "vectors_per_s": ("unit-delay",),
    },
    "setup.total_ops": {
        "setup_s": _WORKLOADS, "vectors_per_s": ("unit-delay",),
    },
    "call.facade_ms": {
        "vectors_per_s": _MARSHALLING, "call_ms": _MARSHALLING,
    },
    "call.marshal_ms": {
        "vectors_per_s": _MARSHALLING, "call_ms": _MARSHALLING,
    },
    "call.kernel_ms": {
        "vectors_per_s": ("unit-delay",), "call_ms": ("unit-delay",),
    },
    "call.kernel_calls": {"call_ms": ("fault-grade", "replay")},
    "call.cache_hits": {
        "call_ms": ("fault-grade",), "peak_rss_mb": ("fault-grade",),
    },
    "runtime.kernel_share": {"vectors_per_s": ("unit-delay",)},
    "runtime.ns_per_op": {"vectors_per_s": ("unit-delay",)},
    "runtime.gate_evals_per_s": {"vectors_per_s": ("unit-delay",)},
    "runtime.loaded_libs": {"peak_rss_mb": ("fault-grade",)},
    "trace.overhead": {"call_ms": _WORKLOADS},
    "trace.coverage": {"setup_s": _WORKLOADS, "call_ms": _WORKLOADS},
}


def _binding_modules() -> list:
    """Modules whose globals may bind a target function by name."""
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (
            name == "__main__" or name.split(".")[0] in _OWNED_PACKAGES
        )
    ]


def _resolve(module_name: str, attribute: str):
    """``(owner class or None, attribute name, current object)``."""
    module = importlib.import_module(module_name)
    owner_name, _, name = attribute.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        return owner, name, owner.__dict__[name]
    return None, name, getattr(module, name)


def import_targets() -> None:
    """Import every target module, so installing imports nothing."""
    for module_name, attribute, _name in TARGETS:
        _resolve(module_name, attribute)


class Tracer:
    """Span recorder that patches the library while installed.

    ``install``/``uninstall`` may alternate any number of times; spans
    accumulate across them, so a run can interleave traced and
    untraced calls to measure the tracer's own overhead.
    """

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._entry_saves: list[tuple] = []
        self._machines: list = []
        self.installed = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block (the benchmark's root spans)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, function, name: str):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def _wrap_compile(self, function):
        """``compile_program``: a load span, then watch the machine."""
        tracer = self
        traced = self._wrap(function, "runtime.load")

        @functools.wraps(function)
        def compile_and_watch(*args, **kwargs):
            machine = traced(*args, **kwargs)
            if isinstance(getattr(machine, "_entry", None), dict):
                tracer._machines.append(weakref.ref(machine))
                tracer._instrument(machine)
            return machine

        return compile_and_watch

    def _wrap_kernel(self, function, entry: str, ops: int, lanes: int):
        tracer = self
        if entry in _BATCH_ENTRIES:
            def kernel(buffer, count, out):
                span = tracer._open("runtime.kernel")
                try:
                    return function(buffer, count, out)
                finally:
                    tracer._close(span)
                    span[4] = (count, count * ops, count * lanes)
            return kernel
        work = (1, ops, lanes) if entry == "step" else None

        def kernel(*args):
            span = tracer._open("runtime.kernel")
            try:
                return function(*args)
            finally:
                tracer._close(span)
                span[4] = work
        return kernel

    def _instrument(self, machine) -> None:
        """Wrap one C machine's ctypes entry points."""
        program = machine.program
        ops = program.stats().total_ops
        entry = machine._entry
        for name, function in list(entry.items()):
            lanes = (
                program.word_width * machine.tiles
                if name == "run_packed_block" else 1
            )
            entry[name] = self._wrap_kernel(function, name, ops, lanes)
            self._entry_saves.append((entry, name, function))

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        modules = _binding_modules()
        for module_name, attribute, name in TARGETS:
            owner, attr, original = _resolve(module_name, attribute)
            if attr == "compile_program":
                wrapper = self._wrap_compile(original)
            else:
                wrapper = self._wrap(original, name)
            if owner is not None:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            sites = [
                (module, key) for module in modules
                for key, value in list(vars(module).items())
                if value is original
            ]
            for module, key in sites:
                self._patches.append((module, key, original))
                setattr(module, key, wrapper)
        live = []
        for ref in self._machines:
            machine = ref()
            if machine is not None:
                live.append(ref)
                self._instrument(machine)
        self._machines = live
        self.installed = True

    def uninstall(self) -> None:
        """Restore every patched binding and kernel entry point."""
        for entry, name, function in reversed(self._entry_saves):
            entry[name] = function
        self._entry_saves.clear()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.installed = False

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({
                "run": self.run_id,
                "fields": ["name", "start", "end", "parent", "work"],
                "spans": self.spans,
            }, handle)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def summarize(spans) -> dict:
    """Totals per root name.

    Returns ``{root: {"roots", "total", "self": {name: s}, "calls":
    {name: n}, "passes", "ops", "lanes", "pass_s"}}``.  A root's own
    entry in ``self`` is the time no traced layer accounts for.
    """
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for index, (_name, start, end, parent, _work) in enumerate(spans):
        if parent < 0:
            root[index] = index
        else:
            root[index] = root[parent]
            child[parent] += end - start
    phases: dict = {}
    for index, (name, start, end, parent, work) in enumerate(spans):
        phase = phases.setdefault(spans[root[index]][0], {
            "roots": 0, "total": 0.0, "self": {}, "calls": {},
            "passes": 0, "ops": 0, "lanes": 0, "pass_s": 0.0,
        })
        duration = end - start
        if parent < 0:
            phase["roots"] += 1
            phase["total"] += duration
        phase["self"][name] = (
            phase["self"].get(name, 0.0) + duration - child[index]
        )
        phase["calls"][name] = phase["calls"].get(name, 0) + 1
        if work is not None:
            passes, ops, lanes = work
            phase["passes"] += passes
            phase["ops"] += ops
            phase["lanes"] += lanes
            phase["pass_s"] += duration
    return phases


def layer_self(phase: dict) -> dict:
    """Self time per layer (:data:`LAYER_OF`, else ``facade``)."""
    layers: dict = {}
    for name, seconds in phase["self"].items():
        if name in ROOTS:
            continue
        layer = LAYER_OF.get(name, "facade")
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers


def layer_metrics(summary: dict, *, gates: int, counts: dict) -> dict:
    """The per-layer metrics of one traced run (see :data:`LAYER_MAP`).

    Set-up layers are seconds per cold set-up, call layers milliseconds
    per public call.  ``counts`` carries the measurements taken outside
    the spans: ``cache_misses`` (per set-up), ``cache_hits`` (per call),
    ``source_lines``/``total_ops`` (programs of one set-up),
    ``loaded_libs`` and ``overhead``.
    """
    setup, call = summary["setup"], summary["call"]
    per_setup, per_call = setup["roots"], call["roots"]
    s, c = layer_self(setup), layer_self(call)
    kernel = c.get("kernel", 0.0)
    covered = sum(s.values()) + sum(c.values())
    return {
        "setup.parse_s": s.get("parse", 0.0) / per_setup,
        "setup.analysis_s": s.get("analysis", 0.0) / per_setup,
        "setup.emit_s": s.get("emit", 0.0) / per_setup,
        "setup.cc_s": s.get("cc", 0.0) / per_setup,
        "setup.load_s": s.get("load", 0.0) / per_setup,
        "setup.facade_s": sum(
            s.get(layer, 0.0) for layer in ("facade", "marshal", "kernel")
        ) / per_setup,
        "setup.cc_calls": setup["calls"].get("runtime.cc", 0) / per_setup,
        "setup.cache_misses": counts["cache_misses"],
        "setup.source_lines": counts["source_lines"],
        "setup.total_ops": counts["total_ops"],
        "call.facade_ms": 1e3 * sum(
            seconds for layer, seconds in c.items()
            if layer not in ("marshal", "kernel")
        ) / per_call,
        "call.marshal_ms": 1e3 * c.get("marshal", 0.0) / per_call,
        "call.kernel_ms": 1e3 * kernel / per_call,
        "call.kernel_calls": call["calls"].get("runtime.kernel", 0) / per_call,
        "call.cache_hits": counts["cache_hits"],
        "runtime.kernel_share": kernel / call["total"],
        "runtime.ns_per_op": 1e9 * call["pass_s"] / call["ops"],
        "runtime.gate_evals_per_s": call["lanes"] * gates / call["pass_s"],
        "runtime.loaded_libs": counts["loaded_libs"],
        "trace.overhead": counts["overhead"],
        "trace.coverage": covered / (setup["total"] + call["total"]),
    }
