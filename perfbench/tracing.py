"""Span tracing installed from outside the program.

The benchmark never edits ``src/``: it replaces a handful of public
functions with wrappers that record one span per call (or, for a
generator, one span per item pulled from it).  A span is
``(id, name, start, end, parent, thread, items)`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC, so comparable across processes on
one host); ``items`` is an optional count taken from the call's result,
such as the flows a ``FlowAssembler.process`` call closed.

Spans stay in memory.  The process that installed the wrappers (the
benchmark process, which is also the engine's driver) keeps them until
:meth:`Tracer.take`; a forked child
(pool worker, daemon task child) or a daemon that installed the wrappers
through ``hook/sitecustomize.py`` appends each finished root span and its
children to ``<trace_dir>/spans-<pid>.jsonl``, because such processes may
leave through ``os._exit`` and skip any exit hook.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass

__all__ = [
    "Span",
    "Tracer",
    "TRACE_DIR_ENV",
    "LAYER_FUNCTIONS",
    "install",
    "load_child_spans",
    "self_times",
    "union_seconds",
    "write_spans",
]

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
_ENABLED_FLAG = "enabled"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    items: int
    pid: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


# (span name, module, qualified attribute, kind, item counter)
# kind "call" times each call; "gen" times each next() of the returned
# generator.  Every module in sys.modules that imported the function by
# name gets the wrapper too (e.g. ``repro.core.pgsk.descend_batch_chunks``).
LAYER_FUNCTIONS = (
    ("core.grow", "repro.core.pgpba", "PGPBA.grow_structure", "call", None),
    ("core.decorate", "repro.core.generator",
     "PropertyModel.sample_columns", "call", None),
    ("stats.conditional_sample", "repro.stats.conditional",
     "ConditionalDistribution.sample", "call", None),
    ("stats.empirical_sample", "repro.stats.empirical",
     "EmpiricalDistribution.sample", "call", None),
    ("kronecker.descend", "repro.kronecker.expand",
     "descend_batch_chunks", "gen", None),
    ("engine.collect", "repro.engine.rdd", "ArrayRDD.collect", "call", None),
    ("engine.collect", "repro.engine.rdd", "ArrayRDD.count", "call", None),
    ("pcap.read", "repro.pcap.reader", "PcapReader.parsed_packets", "gen",
     None),
    ("netflow.assemble", "repro.netflow.flow_assembler",
     "FlowAssembler.process", "call", len),
    ("netflow.flush", "repro.netflow.flow_assembler",
     "FlowAssembler.flush", "call", len),
    ("stream.source", "repro.stream.sources", "ReplaySource.batches", "gen",
     None),
    ("stream.assembly", "repro.stream.stages",
     "WindowAssembler.process_packets", "call", len),
    ("stream.drain", "repro.stream.stages", "WindowAssembler.drain", "call",
     len),
    ("stream.graph.fold", "repro.stream.stages", "GraphAccumulator.fold",
     "call", None),
    ("serve.swap", "repro.serve.server", "QueryServer.swap", "call", None),
    ("detect.process", "repro.detect.online", "OnlineDetector.process",
     "call", len),
    ("detect.flush", "repro.detect.online", "OnlineDetector.flush", "call",
     len),
)


class Tracer:
    """Records spans for the wrapped functions of one process tree."""

    def __init__(
        self, trace_dir: str | None = None, *, driver: bool = True
    ) -> None:
        self.trace_dir = trace_dir
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Only the driver keeps its spans in memory and follows
        # ``enabled``; every other process follows the flag file.
        self._root_pid = os.getpid() if driver else -1
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -------------------------------------------------------
    def _after_fork(self) -> None:
        # The child starts with no spans and no open parents of its own;
        # spans of the parent process are the parent's to report.
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _recording(self, stack: list) -> bool:
        if stack:
            return True
        if os.getpid() == self._root_pid:
            return self.enabled
        # Outside the driver the switch is a file, so daemon task children
        # follow traced and untraced jobs without being re-forked.
        return self.trace_dir is not None and os.path.exists(
            os.path.join(self.trace_dir, _ENABLED_FLAG)
        )

    def _finish(self, stack: list) -> None:
        if stack or os.getpid() == self._root_pid or not self.trace_dir:
            return
        spans, self.spans = self.spans, []
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    def set_enabled(self, on: bool) -> None:
        """Switch recording for this process and every traced child."""
        self.enabled = on
        if self.trace_dir is None:
            return
        flag = os.path.join(self.trace_dir, _ENABLED_FLAG)
        if on:
            open(flag, "w").close()
        elif os.path.exists(flag):
            os.remove(flag)

    def wrap_call(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if not tracer._recording(stack):
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            items = 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                items = count(result) if count is not None else 1
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, t0, t1, parent, threading.get_ident(), items)
                )
                tracer._finish(stack)
            return result

        return wrapper

    def wrap_gen(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack = tracer._stack()
                if not tracer._recording(stack):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    yield item
                    continue
                sid = next(tracer._ids)
                parent = stack[-1] if stack else 0
                stack.append(sid)
                t0 = time.perf_counter()
                items = 1
                try:
                    item = next(it)
                except StopIteration:
                    items = 0
                    return
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    tracer.spans.append(
                        (sid, name, t0, t1, parent, threading.get_ident(),
                         items)
                    )
                    tracer._finish(stack)
                yield item

        return wrapper

    # -- install / remove --------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, functions=LAYER_FUNCTIONS) -> None:
        """Replace every listed function (and every by-name import of a
        module-level one) with its recording wrapper."""
        import importlib

        for name, module_name, qualname, kind, count in functions:
            owner_path, _, attr = qualname.rpartition(".")
            try:
                owner = module = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                # The program no longer has this function: its layer
                # reads as not called rather than failing the run.
                self.missing.append(f"{module_name}.{qualname}")
                continue
            if kind == "gen":
                wrapped = self.wrap_gen(name, original)
            else:
                wrapped = self.wrap_call(name, original, count)
            self._patch(owner, attr, wrapped)
            if owner is module:
                for other in list(sys.modules.values()):
                    if (
                        other is not module
                        and getattr(other, "__name__", "").startswith("repro")
                        and other.__dict__.get(attr) is original
                    ):
                        self._patch(other, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over (and forget) the spans this process recorded."""
        spans, self.spans = self.spans, []
        pid = os.getpid()
        return [Span(*s, pid) for s in spans]


def install(trace_dir: str | None, *, driver: bool = True) -> Tracer:
    """Create a tracer and install every layer wrapper."""
    tracer = Tracer(trace_dir, driver=driver)
    tracer.install()
    return tracer


def load_child_spans(trace_dir: str) -> list[Span]:
    """Spans that other processes appended under ``trace_dir``."""
    out: list[Span] = []
    for entry in sorted(os.listdir(trace_dir)):
        if not (entry.startswith("spans-") and entry.endswith(".jsonl")):
            continue
        pid = int(entry[len("spans-"):-len(".jsonl")])
        with open(os.path.join(trace_dir, entry)) as fh:
            out.extend(Span(*json.loads(line), pid) for line in fh)
    return out


def write_spans(path, spans: list[Span]) -> None:
    """Write ``spans`` to ``path``, one JSON object per line."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def union_seconds(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per ``(pid, span id)``: the span's duration minus the
    part of it that its child spans cover."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault((s.pid, s.parent), []).append(
                (s.start, s.end)
            )
    out = {}
    for s in spans:
        covered = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get((s.pid, s.id), ())
            if min(b, s.end) > max(a, s.start)
        ]
        out[(s.pid, s.id)] = s.seconds - union_seconds(covered)
    return out
