"""Per-layer timing and counting wrappers, installed from outside the program.

The traced run replaces each layer's public functions with thin wrappers
that time the call and count its work; the call path stays the same and
nothing in ``src/`` is edited.  A layer's *self time* is the wall time of
its calls minus the full cost of the wrapped calls nested in them.

A wrapper costs time of its own: the call into it, its bookkeeping and its
clock reads.  That cost is charged to neither the layer nor its caller but
to the tracer's ``overhead_s``.  The part a wrapper sees (entry to exit,
outside the wrapped call) is measured on every call; the part it cannot
see (entering and leaving the wrapper itself) is measured once per wrapper
kind by :func:`calibrate`.  A call nested in a call of its own layer is
only counted, not timed, so its small wrapper cost stays in that layer.
So a traced unit's wall time splits into the layers' self times, the
wrapper overhead and an ``unattributed`` rest, and the self times add up
to about what the same work costs untraced (see README.md for how close).

Functions that other modules import by name (``from repro.pdn.assemble
import assemble``) are bound in several module namespaces; :func:`install`
replaces the function in *every* loaded ``repro`` module (and the
benchmark's own modules), not only where it is defined.  Methods and
properties are patched on their class, which every caller shares.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter


@dataclass
class LayerStats:
    """What one layer did: outermost calls, self time, and work counters."""

    calls: int = 0
    self_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Collects :class:`LayerStats` per layer from the installed wrappers."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {}
        #: wrapper cost charged to no layer (see the module docstring)
        self.overhead_s = 0.0
        #: per-call cost of entering and leaving a wrapper, by wrapper kind
        #: (``call`` or ``stream``), outside the wrapper's own clock reads
        self.outer_s: Dict[str, float] = {"call": 0.0, "stream": 0.0}
        # One frame per open wrapped call: [layer, full cost of its children].
        self._frames: List[List[Any]] = []

    def reset(self) -> Dict[str, LayerStats]:
        """Return the stats gathered so far and start a fresh collection."""
        taken, self.stats = self.stats, {}
        self.overhead_s = 0.0
        return taken

    def _stat(self, layer: str) -> LayerStats:
        stat = self.stats.get(layer)
        if stat is None:
            stat = self.stats[layer] = LayerStats()
        return stat

    def timed(self, layer: str, kind: str, fn: Callable,
              hook: Optional[Callable]) -> Callable:
        """``fn`` wrapped to be timed and counted as ``layer``.

        The bookkeeping is inline in the returned function, since every
        extra call level is wrapper cost on the hot admission path.
        """
        frames = self._frames
        outer_s = self.outer_s

        def timed_call(*args: Any, **kwargs: Any) -> Any:
            t_in = _clock()
            if frames and frames[-1][0] == layer:
                # Nested in its own layer (``allows`` calling ``lookup``):
                # the enclosing call already times it, so only count work.
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self._stat(layer), args, kwargs, result)
                return result
            frame = [layer, 0.0]
            frames.append(frame)
            t1 = 0.0
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                t1 = _clock()
                if hook is not None:
                    hook(self._stat(layer), args, kwargs, result)
            finally:
                if not t1:  # fn raised (StopIteration ends every stream)
                    t1 = _clock()
                frames.pop()
                stat = self._stat(layer)
                stat.self_s += t1 - t0 - frame[1]
                stat.calls += 1
                cost = _clock() - t_in + outer_s[kind]
                self.overhead_s += cost - (t1 - t0)
                if frames:
                    frames[-1][1] += cost
            return result

        return timed_call


class _TimedIterator:
    """Times every ``next()`` of a streaming reader as the reader's layer."""

    def __init__(self, tracer: Tracer, layer: str, inner: Iterator) -> None:
        self._next = tracer.timed(layer, "stream", next, _request_hook)
        self._inner = inner

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        return self._next(self._inner)


# -- counters read off a call's arguments and result -------------------------


def _request_hook(stat: LayerStats, args: tuple, kwargs: dict, result: Any) -> None:
    stat.add("requests", 1)


def _factorize_hook(stat: LayerStats, args: tuple, kwargs: dict, result: Any) -> None:
    stat.add("nodes", args[0].model.num_nodes)


def _solve_one_hook(stat: LayerStats, args: tuple, kwargs: dict, result: Any) -> None:
    stat.add("rhs", 1)
    stat.add("cg_iterations", args[0].last_iterations)


def _solve_block_hook(stat: LayerStats, args: tuple, kwargs: dict, result: Any) -> None:
    stat.add("rhs", result.shape[1])
    stat.add("cg_iterations", args[0].last_iterations)


def _raster_hook(stat: LayerStats, args: tuple, kwargs: dict, result: Any) -> None:
    stat.add("rasterizations", 1)


def _engine_hook(stat: LayerStats, args: tuple, kwargs: dict, result: Any) -> None:
    stat.add("sim_cycles", result.cycles)
    stat.add("activations", result.activations)
    stat.add("refreshes", result.refreshes)
    stat.add("completed", result.completed)


def _ledger_hook(stat: LayerStats, args: tuple, kwargs: dict, result: Any) -> None:
    stat.add("abs_mismatch", abs(result.mismatch_fraction))


#: (module, attribute or Class.attribute, layer, counter hook).  Layers
#: named as ``<module>.<what>`` after the part of the program they time.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.pdn.stackup", "plan_stack", "pdn.plan", None),
    ("repro.pdn.stackup", "plan_single_die_stack", "pdn.plan", None),
    ("repro.pdn.plan", "StackPlan.plan_hash", "pdn.plan_hash", None),
    ("repro.pdn.assemble", "assemble", "pdn.assemble", None),
    ("repro.rmesh.solve", "StackSolver.__init__", "rmesh.factorize", _factorize_hook),
    ("repro.rmesh.solve", "StackSolver.solve_currents", "rmesh.solve", _solve_one_hook),
    ("repro.rmesh.solve", "StackSolver.solve_block", "rmesh.solve", _solve_block_hook),
    ("repro.perf.cache", "cached_dram_power_map", "power.powermap", None),
    ("repro.power.powermap", "dram_power_map", "power.powermap", _raster_hook),
    ("repro.power.powermap", "logic_power_map", "power.powermap", _raster_hook),
    ("repro.pdn.diagnose", "diagnose_stack", "pdn.diagnose", None),
    ("repro.pdn.diagnose", "diagnose_result", "pdn.diagnose", None),
    ("repro.regress.model", "IRDropSurrogate.fit", "regress.fit", None),
    ("repro.opt.cooptimizer", "CoOptimizer.optimize", "opt.optimize", None),
    ("repro.opt.cooptimizer", "CoOptimizer.baseline_result", "opt.optimize", None),
    ("repro.controller.request", "read_trace", "controller.parse", None),
    ("repro.controller.request", "read_drampower_trace", "controller.parse", None),
    ("repro.controller.request", "read_ramulator_trace", "controller.parse", None),
    ("repro.controller.engine", "EventDrivenEngine.run", "controller.engine", _engine_hook),
    ("repro.controller.lut", "IRDropLUT.precompute_all", "controller.lut.precompute", None),
    ("repro.controller.lut", "IRDropLUT.lookup", "controller.lut.admission", None),
    ("repro.controller.lut", "IRDropLUT.allows", "controller.lut.admission", None),
    ("repro.controller.lut", "IRDropLUT.allows_batch", "controller.lut.admission", None),
    ("repro.controller.lut", "StaticIRDropLUT.lookup", "controller.lut.admission", None),
    ("repro.controller.lut", "StaticIRDropLUT.allows", "controller.lut.admission", None),
    ("repro.controller.lut", "StaticIRDropLUT.allows_batch", "controller.lut.admission", None),
    ("repro.power.model", "energy_ledger", "power.ledger", _ledger_hook),
)

#: Layers whose entry points return a request stream: each ``next()`` is
#: timed, since the engine pulls requests lazily while it runs.
STREAMING = frozenset({"controller.parse"})


def _make_wrapper(tracer: Tracer, layer: str, fn: Callable,
                  hook: Optional[Callable]) -> Callable:
    timed_fn = tracer.timed(layer, "call", fn, hook)
    if layer in STREAMING:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stream = timed_fn(*args, **kwargs)
            if isinstance(stream, _TimedIterator):
                return stream  # read_trace delegating to a wrapped reader
            return _TimedIterator(tracer, layer, stream)
    else:
        wrapper = timed_fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


class _Probe:
    def noop(self, value: Any) -> Any:
        return value


def _probe_stream(n: int) -> Iterator[int]:
    yield from range(n)


def _time_calls(probe: _Probe, n: int) -> float:
    t0 = _clock()
    for i in range(n):
        probe.noop(i)
    return _clock() - t0


def _time_nexts(stream: Iterator[Any], n: int) -> float:
    t0 = _clock()
    for _ in range(n):
        next(stream, None)
    return _clock() - t0


#: calls per timed loop, and bare/wrapped loop pairs, in :func:`calibrate`
CALIBRATION_CALLS = 2000
CALIBRATION_BATCHES = 9


def calibrate(tracer: Tracer) -> Dict[str, float]:
    """Measure each wrapper kind's cost outside its own clock reads.

    Times a no-op called bare and wrapped, as a traced unit calls it: a
    method call on an object whose class was patched, and
    ``next(stream, None)`` on a timed stream.  The wrapped loop's extra
    time, minus the overhead the wrappers saw themselves, is the unseen
    per-call cost.  The median over alternating bare/wrapped pairs is
    stored in ``tracer.outer_s`` and returned.
    """
    n = CALIBRATION_CALLS
    probe = _Probe()
    raw = _Probe.__dict__["noop"]
    wrapped = _make_wrapper(tracer, "_probe", raw, None)
    tracer.outer_s.update(call=0.0, stream=0.0)
    samples: Dict[str, List[float]] = {"call": [], "stream": []}
    frame = ["_calibrate", 0.0]
    tracer._frames.append(frame)  # a parent, as inside a timed unit
    try:
        for _ in range(CALIBRATION_BATCHES):
            _Probe.noop = raw  # type: ignore[method-assign]
            bare = _time_calls(probe, n)
            _Probe.noop = wrapped  # type: ignore[method-assign]
            seen = tracer.overhead_s
            traced = _time_calls(probe, n)
            samples["call"].append((traced - bare - (tracer.overhead_s - seen)) / n)

            bare = _time_nexts(_probe_stream(n), n)
            seen = tracer.overhead_s
            traced = _time_nexts(_TimedIterator(tracer, "_probe", _probe_stream(n)), n)
            samples["stream"].append((traced - bare - (tracer.overhead_s - seen)) / n)
    finally:
        _Probe.noop = raw  # type: ignore[method-assign]
        tracer._frames.remove(frame)
        tracer.reset()
    tracer.outer_s.update(
        (kind, max(0.0, statistics.median(values))) for kind, values in samples.items()
    )
    return dict(tracer.outer_s)


def _scanned_modules(extra: Tuple[str, ...]) -> List[Any]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None
        and (name == "repro" or name.startswith("repro.") or name in extra)
    ]


class Installation:
    """The wrappers of one :func:`install`; :meth:`remove` restores all."""

    def __init__(self, extra_modules: Tuple[str, ...]) -> None:
        self._extra = extra_modules
        self._class_patches: List[Tuple[type, str, Any]] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps
        # its id from being reused while installed.
        self._wrapped: Dict[int, Tuple[Any, Any]] = {}

    def remove(self) -> None:
        for cls, attr, original in reversed(self._class_patches):
            setattr(cls, attr, original)
        # Rescan: a module imported while the wrappers were live may have
        # bound a wrapper by name.
        for mod in _scanned_modules(self._extra):
            for name, value in list(vars(mod).items()):
                pair = self._wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, name, pair[1])
        self._class_patches.clear()
        self._wrapped.clear()


def install(tracer: Tracer, extra_modules: Tuple[str, ...] = ()) -> Installation:
    """Wrap every target at every binding site; return the undo handle.

    ``extra_modules`` names non-``repro`` modules (the benchmark's own)
    whose by-name imports must be wrapped too.  Raises ``RuntimeError``
    when a target is missing, so a rename shows as a broken benchmark
    rather than a layer that silently reads zero.
    """
    inst = Installation(extra_modules)
    modules = _scanned_modules(extra_modules)
    for module_name, path, layer, hook in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            raise RuntimeError(f"layer {layer}: module {module_name} not imported")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__.get(attr)
            if raw is None:
                raise RuntimeError(f"layer {layer}: {module_name}.{path} not found")
            if isinstance(raw, property):
                wrapped_get = _make_wrapper(tracer, layer, raw.fget, hook)
                replacement: Any = property(wrapped_get, raw.fset, raw.fdel, raw.__doc__)
            else:
                replacement = _make_wrapper(tracer, layer, raw, hook)
            setattr(cls, attr, replacement)
            inst._class_patches.append((cls, attr, raw))
            continue
        original = getattr(module, path, None)
        if not callable(original):
            raise RuntimeError(f"layer {layer}: {module_name}.{path} not found")
        wrapper = _make_wrapper(tracer, layer, original, hook)
        inst._wrapped[id(wrapper)] = (wrapper, original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
    return inst


# -- reporting ----------------------------------------------------------------

#: Per-layer metrics of the traced run: (name, unit, better, source).
#: ``source`` is (layer, field) with field ``calls``, ``self_s`` or a
#: counter name; derived metrics have source ``None`` and are filled by
#: the runner.
PER_LAYER: Tuple[Tuple[str, str, str, Optional[Tuple[str, str]]], ...] = (
    ("pdn.plan.calls", "count", "lower", ("pdn.plan", "calls")),
    ("pdn.plan.self_s", "s", "lower", ("pdn.plan", "self_s")),
    ("pdn.plan_hash.calls", "count", "lower", ("pdn.plan_hash", "calls")),
    ("pdn.plan_hash.self_s", "s", "lower", ("pdn.plan_hash", "self_s")),
    ("pdn.assemble.calls", "count", "lower", ("pdn.assemble", "calls")),
    ("pdn.assemble.self_s", "s", "lower", ("pdn.assemble", "self_s")),
    ("rmesh.factorize.calls", "count", "lower", ("rmesh.factorize", "calls")),
    ("rmesh.factorize.self_s", "s", "lower", ("rmesh.factorize", "self_s")),
    ("rmesh.factorize.nodes", "count", "lower", ("rmesh.factorize", "nodes")),
    ("power.powermap.calls", "count", "lower", ("power.powermap", "calls")),
    ("power.powermap.self_s", "s", "lower", ("power.powermap", "self_s")),
    ("power.powermap.rasterizations", "count", "lower", ("power.powermap", "rasterizations")),
    ("perf.cache.powermap_hit_ratio", "ratio", "higher", None),
    ("perf.cache.stack_hit_ratio", "ratio", "higher", None),
    ("rmesh.solve.calls", "count", "lower", ("rmesh.solve", "calls")),
    ("rmesh.solve.rhs", "count", "lower", ("rmesh.solve", "rhs")),
    ("rmesh.solve.self_s", "s", "lower", ("rmesh.solve", "self_s")),
    ("rmesh.solve.cg_iterations", "count", "lower", ("rmesh.solve", "cg_iterations")),
    ("pdn.diagnose.calls", "count", "lower", ("pdn.diagnose", "calls")),
    ("pdn.diagnose.self_s", "s", "lower", ("pdn.diagnose", "self_s")),
    ("regress.fit.calls", "count", "lower", ("regress.fit", "calls")),
    ("regress.fit.self_s", "s", "lower", ("regress.fit", "self_s")),
    ("opt.optimize.calls", "count", "lower", ("opt.optimize", "calls")),
    ("opt.optimize.self_s", "s", "lower", ("opt.optimize", "self_s")),
    ("controller.parse.requests", "count", "higher", ("controller.parse", "requests")),
    ("controller.parse.self_s", "s", "lower", ("controller.parse", "self_s")),
    ("controller.engine.calls", "count", "lower", ("controller.engine", "calls")),
    ("controller.engine.self_s", "s", "lower", ("controller.engine", "self_s")),
    ("controller.engine.sim_cycles", "count", "lower", ("controller.engine", "sim_cycles")),
    ("controller.engine.activations", "count", "lower", ("controller.engine", "activations")),
    ("controller.engine.refreshes", "count", "lower", ("controller.engine", "refreshes")),
    ("controller.engine.host_ns_per_request", "ns", "lower", None),
    ("controller.lut.precompute_calls", "count", "lower", ("controller.lut.precompute", "calls")),
    ("controller.lut.precompute_self_s", "s", "lower", ("controller.lut.precompute", "self_s")),
    ("controller.lut.admission_calls", "count", "lower", ("controller.lut.admission", "calls")),
    ("controller.lut.admission_self_s", "s", "lower", ("controller.lut.admission", "self_s")),
    ("power.ledger.calls", "count", "lower", ("power.ledger", "calls")),
    ("power.ledger.self_s", "s", "lower", ("power.ledger", "self_s")),
    ("power.ledger.abs_mismatch", "fraction", "lower", ("power.ledger", "abs_mismatch")),
    ("unattributed_fraction", "fraction", "lower", None),
    ("wrapper_overhead_fraction", "fraction", "lower", None),
    ("trace_overhead_fraction", "fraction", "lower", None),
)


def stat_value(stats: Dict[str, LayerStats], layer: str, key: str) -> float:
    """One field of a layer's stats (0 when the layer never ran)."""
    stat = stats.get(layer)
    if stat is None:
        return 0
    if key == "calls":
        return stat.calls
    if key == "self_s":
        return stat.self_s
    return stat.counts.get(key, 0)


def work_counts(stats: Dict[str, LayerStats]) -> Dict[str, float]:
    """The deterministic part of a collection: calls and counters, no times.

    ``abs_mismatch`` is a ledger output, not a count, but it is just as
    deterministic, so it is compared too.
    """
    out: Dict[str, float] = {}
    for layer, stat in sorted(stats.items()):
        out[f"{layer}.calls"] = stat.calls
        for key, value in sorted(stat.counts.items()):
            out[f"{layer}.{key}"] = value
    return out


def merged(a: Dict[str, LayerStats], b: Dict[str, LayerStats]) -> Dict[str, LayerStats]:
    """Sum two collections layer by layer."""
    out: Dict[str, LayerStats] = {}
    for source in (a, b):
        for layer, stat in source.items():
            into = out.setdefault(layer, LayerStats())
            into.calls += stat.calls
            into.self_s += stat.self_s
            for key, value in stat.counts.items():
                into.add(key, value)
    return out


def total_self_s(stats: Dict[str, LayerStats]) -> float:
    return sum(stat.self_s for stat in stats.values())
