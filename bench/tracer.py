"""In-memory span tracer wrapped around omneg's public functions.

The wrappers are installed from outside the package by replacing module
attributes, so every internal call that goes through a module attribute
(``smallmat.solve``, ``dynamics.stability``, ...) records a span. A span
is (name, start, end, parent index). Self time is a span's duration
minus the durations of its direct children.

Names that no longer exist in the package are skipped, so their metrics
are absent rather than an error. Spans made inside forked pool workers
are not collected: the benchmark traces serial runs only.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

# modules are the layers; their public functions are those in __all__
LAYERS = (
    "params",
    "steady_state",
    "dynamics",
    "smallmat",
    "entanglement",
    "sweep",
    "config",
    "cli",
)
# per-row parameter validation runs inside SystemParams construction
METHODS = (("params", "SystemParams", "__post_init__"),)


class Tracer:
    """Span-recording wrappers, installed only while install() is in effect.

    The wrappers are built once; install() and uninstall() swap them in
    and out, so the benchmark can trace the CLI call it times and leave
    its own output checks untraced.
    """

    def __init__(self, package: str = "omneg"):
        self.spans: list = []
        self._stack: list[int] = []
        self._targets: list = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue
            for attr in getattr(module, "__all__", ()):
                if isinstance(getattr(module, attr, None), types.FunctionType):
                    self._target(module, attr, f"{layer}.{attr}")
            for mod_name, cls_name, attr in METHODS:
                cls = getattr(module, cls_name, None) if mod_name == layer else None
                if cls is not None and isinstance(cls.__dict__.get(attr), types.FunctionType):
                    self._target(cls, attr, f"{layer}.{cls_name}.{attr}")
        self.names = [name for _, _, _, _, name in self._targets]

    def _target(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        self._targets.append((owner, attr, original, wrapper, name))

    def install(self) -> None:
        for owner, attr, _, wrapper, _ in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _, _ in self._targets:
            setattr(owner, attr, original)


def aggregate(spans) -> dict:
    """Per-name calls, inclusive and self seconds, plus root coverage.

    Returns {"functions": {name: {"calls", "incl_s", "self_s"}},
    "root_s": summed duration of spans without a parent}.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    functions: dict[str, dict] = {}
    root_s = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        entry = functions.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[index]
        # recursion would double-count inclusive time; omneg has none
        entry["incl_s"] += duration
        if parent < 0:
            root_s += duration
    return {"functions": functions, "root_s": root_s}


def count_under(spans, name: str, ancestor: str) -> int:
    """Number of spans called `name` that run inside a span `ancestor`."""
    hits = 0
    for span_name, _, _, parent in spans:
        if span_name != name:
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                hits += 1
                break
            parent = spans[parent][3]
    return hits
