"""In-memory spans around calls into dibkit's public functions.

The tracer measures layers from outside the program: it replaces every
binding of a public function in every loaded ``dibkit`` module with a
wrapper that records a span (name, start, end, parent, workload, repetition,
step) and, for a few functions, a work counter taken from the arguments.
A function imported by name into another module (``risk``, ``testing`` and
``montecarlo`` each hold their own ``conflict_correction``) is patched there
too, so no call escapes.  ``leggauss`` is patched only where ``testing``
binds it, because that is the rebuild the power step pays for.

Self time of a span is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Iterable

import numpy as np

# Layers are dibkit's modules.  ``summaries`` and ``svg`` do trivial work at
# the default configs (SVG output is off), so they are not traced.
LAYERS = ("estimators", "risk", "testing", "streams", "montecarlo", "asymptotics")

# Work counters taken from call arguments; zero when the layer is bypassed.
COUNTERS = (
    "estimators.conflict_correction.elements",
    "estimators.lstp_delta_mode.elements",
    "risk.srmse_batch.conflicts",
    "streams.draws",
    "asymptotics.limit_sample.draws",
    "montecarlo.kde_pairs",
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    workload: str
    repetition: int
    step: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its direct children cover inside it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children[s.parent].append((lo, hi))
    return [s.duration - _covered(children.get(i, ())) for i, s in enumerate(spans)]


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and counters while installed; restores every binding on exit."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.repetition = 0
        self.step = ""
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        # (seed, stream) -> position ranges drawn, for distinct addresses
        self.addresses: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        self.names: set[str] = set()  # every span name a wrapper can record
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- counters taken from call arguments -------------------------------

    def _count(self, name: str, args: tuple, kwargs: dict) -> None:
        c = self.counters
        if name == "estimators.conflict_correction":
            c["estimators.conflict_correction.elements"] += np.size(_arg(args, kwargs, 1, "delta_hat"))
        elif name == "estimators.lstp_delta_mode":
            c["estimators.lstp_delta_mode.elements"] += np.size(_arg(args, kwargs, 0, "delta_hat"))
        elif name == "risk.srmse_batch":
            c["risk.srmse_batch.conflicts"] += np.size(_arg(args, kwargs, 2, "deltas"))
        elif name == "streams.addressed_uniforms":
            seed = int(_arg(args, kwargs, 0, "seed"))
            stream = int(_arg(args, kwargs, 1, "stream"))
            start = int(_arg(args, kwargs, 2, "start"))
            count = int(_arg(args, kwargs, 3, "count"))
            c["streams.draws"] += count
            self.addresses[(seed, stream)].append((start, start + count))
        elif name == "asymptotics.limit_sample":
            c["asymptotics.limit_sample.draws"] += int(_arg(args, kwargs, 2, "size"))
        elif name == "montecarlo.log_density":
            dist = args[0]
            grid = _arg(args, kwargs, 1, "grid") if len(args) > 1 or "grid" in kwargs else None
            points = np.size(grid) if grid is not None else kwargs.get("points", 256)
            c["montecarlo.kde_pairs"] += dist.draws.size * points

    def distinct_addresses(self) -> int:
        return int(sum(_covered(iv) for iv in self.addresses.values()))

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        self.names.add(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            self._count(name, args, kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.workload, self.repetition, self.step)

        return wrapper

    def _patch_everywhere(self, original: Any, wrapper: Any, modules: list[ModuleType]) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> "Tracer":
        from dibkit import cli, montecarlo, testing

        modules = [m for n, m in sorted(sys.modules.items()) if n == "dibkit" or n.startswith("dibkit.")]
        for layer in LAYERS:
            mod = sys.modules[f"dibkit.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._patch_everywhere(fn, self._wrap(f"{layer}.{attr}", fn), modules)
        self._patch_everywhere(testing.leggauss, self._wrap("testing.leggauss", testing.leggauss), [testing])
        self._patch_everywhere(cli.run, self._wrap("cli.run", cli.run), modules)
        log_density = montecarlo.EmpiricalDist.log_density
        self._restore.append((montecarlo.EmpiricalDist, "log_density", log_density))
        montecarlo.EmpiricalDist.log_density = self._wrap("montecarlo.log_density", log_density)
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def finished(self) -> list[Span]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("spans are still open")
        return self.spans  # type: ignore[return-value]


def summarize(
    spans: list[Span],
    counters: dict[str, float],
    distinct: int,
    names: Iterable[str] = (),
    step: str | None = None,
) -> dict[str, float]:
    """Aggregate calls and self time per span name, plus the derived ratios.

    Every name in ``names`` and every counter is reported, as zero when
    nothing recorded it.  With ``step``, only spans of that step count.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = dict.fromkeys(names, 0)
    self_s: dict[str, float] = dict.fromkeys(names, 0.0)
    panel_passes = 0
    cdf_in_quantile = 0
    for i, s in enumerate(spans):
        if step is not None and s.step != step:
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[i]
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.name == "risk.srmse_batch" and parent == "risk.integrated_srmse":
            panel_passes += 1
        if s.name == "testing.sampling_cdf" and parent == "testing.null_quantile":
            cdf_in_quantile += 1
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out.update(dict.fromkeys(COUNTERS, 0))
    out.update(counters)
    out["risk.panel_passes"] = panel_passes
    quantiles = calls.get("testing.null_quantile", 0)
    out["testing.sampling_cdf_per_quantile"] = cdf_in_quantile / quantiles if quantiles else 0.0
    out["streams.generators"] = calls.get("streams.stream_generator", 0)
    draws = counters.get("streams.draws", 0)
    out["streams.distinct_draw_ratio"] = distinct / draws if draws else 0.0
    out["cli.self_s"] = self_s.get("cli.run", 0.0)
    return out
