"""Simulation-correctness lint rules (SIM001..SIM005).

The event kernel's contract is easy to violate silently:

* calling a simulation process (a generator function) without
  ``yield from`` creates a generator object and throws it away — the
  I/O it models simply never happens;
* an ``Event``-returning call (``resource.acquire()``,
  ``sim.timeout()``...) used as a bare statement is never waited on;
* wall-clock time or the global ``random`` module leaks host
  non-determinism into simulated time;
* a bare ``except:`` swallows :class:`repro.errors.SimulationError`,
  hiding kernel misuse;
* a stray ``bytes(...)``/slice copy on the data path silently undoes
  the zero-copy discipline (payloads are threaded as ``memoryview``
  slices and copied only at the durability boundary);
* a ``tracer.span(...)`` not used as a context manager never records
  its end time — the span silently covers zero sim-time (or leaks as
  an unfinished parent for every span opened after it).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import (Finding, LintRule, Project, SourceFile,
                                 call_name, is_generator, iter_functions,
                                 parent_of, register_rule, walk_scope)

#: Methods that return an Event the caller must wait on.  These come
#: from the kernel API (Simulator/Resource), so they cannot be
#: discovered by the generator scan.
EVENT_RETURNING = {"acquire", "timeout", "all_of"}

#: Generator-named calls that are legitimately dropped: spawning a
#: process is fire-and-forget by design.
_SPAWN_NAMES = {"process", "run_process"}

#: Method names shared with the builtin containers (``list.append``,
#: ``set.add``, ...).  A project generator with one of these names
#: (e.g. ``SegmentWriter.append``) cannot be told apart from the
#: builtin by name alone, so these are never flagged — the cost of a
#: purely syntactic analysis.
_AMBIGUOUS_NAMES = {"append", "add", "update", "extend", "insert", "pop",
                    "remove", "discard", "clear", "write", "close", "send",
                    "get", "set", "put"}


@register_rule
class UnyieldedEventCall(LintRule):
    """SIM001: a simulation-process or Event call whose result is dropped."""

    code = "SIM001"
    description = ("Event-returning call is never yielded "
                   "(the modelled work silently does not happen)")

    def check(self, source: SourceFile,
              project: Project) -> Iterator[Finding]:
        for func in iter_functions(source.tree):
            inside_generator = is_generator(func)
            for node in walk_scope(func):
                if not isinstance(node, ast.Expr) \
                        or not isinstance(node.value, ast.Call):
                    continue
                name = call_name(node.value)
                if name is None or name in _SPAWN_NAMES \
                        or name in _AMBIGUOUS_NAMES:
                    continue
                if name in project.generator_names:
                    how = "yield from" if inside_generator else "run_process"
                    yield self.finding(
                        source, node,
                        f"call to simulation process {name}() is a silent "
                        f"no-op; consume it with {how}")
                elif name in EVENT_RETURNING and inside_generator:
                    yield self.finding(
                        source, node,
                        f"{name}() returns an Event that is never yielded")


_TIME_CALLS = {"time", "sleep", "monotonic", "perf_counter", "time_ns",
               "monotonic_ns", "process_time"}
_DATETIME_CALLS = {"now", "utcnow", "today"}
#: ``random.Random(seed)`` constructs a seeded, reproducible generator
#: and is the sanctioned idiom; everything else on the module (or
#: ``SystemRandom``) is shared/unseeded state.
_RANDOM_OK = {"Random"}


@register_rule
class WallClockNondeterminism(LintRule):
    """SIM002: wall-clock time or unseeded randomness in sim code."""

    code = "SIM002"
    description = ("wall-clock or non-deterministic call "
                   "(breaks simulated-time reproducibility)")

    def check(self, source: SourceFile,
              project: Project) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            value = node.func.value
            if isinstance(value, ast.Name):
                if value.id == "time" and attr in _TIME_CALLS:
                    yield self.finding(
                        source, node,
                        f"time.{attr}() reads the wall clock; use the "
                        "simulator clock (sim.now / sim.timeout)")
                elif value.id == "random" and attr not in _RANDOM_OK:
                    yield self.finding(
                        source, node,
                        f"random.{attr}() uses the shared unseeded RNG; "
                        "use a seeded random.Random(seed) instance")
                elif value.id == "datetime" and attr in _DATETIME_CALLS:
                    yield self.finding(
                        source, node,
                        f"datetime.{attr}() reads the wall clock; "
                        "simulated time is sim.now")
            elif isinstance(value, ast.Attribute) \
                    and value.attr == "datetime" and attr in _DATETIME_CALLS:
                yield self.finding(
                    source, node,
                    f"datetime.datetime.{attr}() reads the wall clock; "
                    "simulated time is sim.now")


_BROAD = {"Exception", "BaseException"}


def _handler_is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in _BROAD for t in types)


@register_rule
class SwallowedSimulationError(LintRule):
    """SIM003: a broad except that can swallow SimulationError."""

    code = "SIM003"
    description = "bare/broad except swallows SimulationError"

    def check(self, source: SourceFile,
              project: Project) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _handler_is_broad(node):
                continue
            if handler_reraises_or_uses(node):
                continue
            label = "bare except:" if node.type is None else \
                "broad except swallowing the exception"
            yield self.finding(
                source, node,
                f"{label} — SimulationError disappears here; "
                "catch specific errors or re-raise")


def handler_reraises_or_uses(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises or inspects the exception."""
    body_nodes = [n for stmt in handler.body for n in ast.walk(stmt)]
    if any(isinstance(n, ast.Raise) for n in body_nodes):
        return True
    if handler.name is not None:
        return any(isinstance(n, ast.Name) and n.id == handler.name
                   for n in body_nodes)
    return False


# ---------------------------------------------------------------------------
# SIM004 — zero-copy discipline on the data path
# ---------------------------------------------------------------------------

#: Directories whose payload-carrying code is held to the zero-copy
#: discipline.  Anything outside these trees may copy freely.
_HOT_PATH_DIRS = {"hw", "raid", "lfs"}

#: Parameter annotations naming copy-on-slice buffer types.
_BUFFER_ANNOTATIONS = {"bytes", "bytearray"}


def _in_hot_path(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    return any(part in _HOT_PATH_DIRS for part in parts)


def _buffer_params(func: ast.FunctionDef) -> set[str]:
    """Names of parameters annotated ``bytes``/``bytearray``."""
    args = func.args
    every = (args.posonlyargs + args.args + args.kwonlyargs
             + [a for a in (args.vararg, args.kwarg) if a is not None])
    names = set()
    for arg in every:
        ann = arg.annotation
        if isinstance(ann, ast.Name) and ann.id in _BUFFER_ANNOTATIONS:
            names.add(arg.arg)
    return names


def _is_constant_name(node: ast.AST) -> bool:
    """``BLOCK_SIZE``-style names: ALL_CAPS means a size constant, so
    ``bytes(BLOCK_SIZE)`` builds zeros rather than copying a buffer."""
    return isinstance(node, ast.Name) and node.id.isupper()


@register_rule
class DataPathCopy(LintRule):
    """SIM004: a buffer copy inside the hw/raid/lfs data path."""

    code = "SIM004"
    description = ("bytes()/slice copy on the zero-copy data path "
                   "(thread memoryview slices; copy only at the "
                   "durability boundary)")

    def check(self, source: SourceFile,
              project: Project) -> Iterator[Finding]:
        if not _in_hot_path(source.path):
            return
        yield from self._check_bytes_calls(source)
        yield from self._check_param_slices(source)

    def _check_bytes_calls(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Name) \
                    or node.func.id != "bytes" \
                    or len(node.args) != 1 or node.keywords:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Name) and not _is_constant_name(arg):
                yield self.finding(
                    source, node,
                    f"bytes({arg.id}) copies the whole buffer; pass the "
                    "buffer (or a memoryview of it) through unchanged")
            elif isinstance(arg, ast.Subscript) \
                    and isinstance(arg.slice, ast.Slice):
                yield self.finding(
                    source, node,
                    "bytes(buf[a:b]) materialises a copy; keep the "
                    "memoryview slice (copy only at the durability "
                    "boundary)")

    def _check_param_slices(self, source: SourceFile) -> Iterator[Finding]:
        # Only simulation processes (generators) are held to this: the
        # timed data path is made of processes, while plain helpers
        # (metadata codecs parsing 4 KB blocks) may slice freely.
        for func in iter_functions(source.tree):
            if not is_generator(func):
                continue
            buffers = _buffer_params(func)
            if not buffers:
                continue
            for node in walk_scope(func):
                if isinstance(node, ast.Subscript) \
                        and isinstance(node.slice, ast.Slice) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id in buffers:
                    yield self.finding(
                        source, node,
                        f"slicing bytes parameter {node.value.id!r} "
                        "copies; take memoryview("
                        f"{node.value.id}) once and slice that")


# ---------------------------------------------------------------------------
# SIM005 — span lifecycle discipline
# ---------------------------------------------------------------------------

#: Directories whose simulation processes must open spans with a
#: ``with`` statement: the instrumented data-path layers.
_SPAN_DIRS = _HOT_PATH_DIRS | {"server"}


def _in_span_dirs(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    return any(part in _SPAN_DIRS for part in parts)


def _is_tracer_span(call: ast.Call) -> bool:
    """True for ``<...>.tracer.span(...)`` or ``tracer.span(...)``."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr != "span":
        return False
    owner = func.value
    if isinstance(owner, ast.Name):
        return owner.id == "tracer"
    return isinstance(owner, ast.Attribute) and owner.attr == "tracer"


@register_rule
class SpanNotContextManaged(LintRule):
    """SIM005: a tracer span opened without a ``with`` statement."""

    code = "SIM005"
    description = ("tracer.span() outside a with statement never "
                   "records its end time")

    def check(self, source: SourceFile,
              project: Project) -> Iterator[Finding]:
        if not _in_span_dirs(source.path):
            return
        for func in iter_functions(source.tree):
            if not is_generator(func):
                continue
            for node in walk_scope(func):
                if not isinstance(node, ast.Call) \
                        or not _is_tracer_span(node):
                    continue
                if isinstance(parent_of(node), ast.withitem):
                    continue
                yield self.finding(
                    source, node,
                    "tracer.span() must be the context expression of a "
                    "with statement ('with tracer.span(...):'); opened "
                    "any other way the span never ends and mis-parents "
                    "everything traced after it")
