"""Keyed LRU caches for plans, assembled stacks, and power maps.

The build pipeline is config -> plan -> assemble -> solve
(:mod:`repro.pdn.plan`, :mod:`repro.pdn.assemble`), and each stage has
its own process-global cache:

* **Plan cache** -- maps ``(stack spec, PDNConfig, tech, pitch)`` to a
  planned :class:`~repro.pdn.plan.StackPlan` (planning is cheap but not
  free; sweeps revisit configs).
* **Assembled cache** -- *content-addressed*: maps a plan's
  :attr:`~repro.pdn.plan.StackPlan.plan_hash` to the shared
  :class:`~repro.pdn.assemble.AssembledStack`.  Because the assembled
  stack lazily holds its SuperLU factorization, any two configurations
  that resolve to the same physical network -- regardless of how they
  were expressed -- share one model and one factorization.
* **Stack cache** -- maps ``(plan hash, spec, config)`` to the
  :class:`~repro.pdn.stackup.PDNStack` wrapper (specs carry power
  descriptions the plan deliberately excludes, so wrappers are keyed
  separately from the physics they share).
* **Power-map cache** -- maps ``(floorplan, power spec, grid, vdd)``
  plus either ``(state, die, mirrored)`` for a DRAM die or ``scale`` for
  the logic die to the rasterized per-node current map.  Design-space
  sampling evaluates hundreds of *different* stacks against the *same*
  reference state on the *same* grid, and a LUT build evaluates one
  stack's logic die, which no memory state changes, once per state;
  the cache collapses both to one rasterization per distinct map.
  Rasterization is a few array operations per block
  (:meth:`~repro.geometry.Grid2D.coverage_fractions`), so what a hit
  saves is mostly Python work per block, not arithmetic.

Assembly runs under a shared :class:`~repro.pdn.assemble.AssemblySession`,
so even *distinct* plans (a TSV-count sweep) reuse the unchanged layer
meshes and link blocks of previously assembled ones.

Plan/power-map keys are built from ``repr`` of the participating (frozen
or effectively-immutable) dataclasses, which is deterministic and covers
every physical field -- two specs that print the same build the same
network.  A :class:`~repro.pdn.stackup.PDNStack` builds the
state-independent part of its power-map keys once
(:func:`power_map_key_prefix`), since its spec is frozen into its plan;
direct callers of :func:`cached_dram_power_map` get a prefix built per
call.  Entries are evicted least-recently-used.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs.trace import span
from repro.perf.timers import timed

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.pdn.stackup import PDNStack


class LRUCache:
    """A minimal ordered-dict LRU with hit/miss/eviction counters.

    A ``name`` makes the cache report into the global metrics registry
    (``cache.<name>.hits`` / ``.misses`` / ``.evictions``), so hit rates
    survive worker-process merges and land in run manifests.
    """

    def __init__(self, maxsize: int, name: Optional[str] = None) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.enabled = True

    def _count(self, event: str) -> None:
        if self.name is not None:
            _metrics.inc(f"cache.{self.name}.{event}")

    def get(self, key: Any) -> Optional[Any]:
        if not self.enabled:
            return None
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            self._count("misses")
            return None
        self._data.move_to_end(key)
        self.hits += 1
        self._count("hits")
        return value

    def put(self, key: Any, value: Any) -> None:
        if not self.enabled:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
            self._count("evictions")

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class StackCache(LRUCache):
    """LRU of content-addressed stack wrappers.

    Keys are ``(plan hash, spec repr, config repr)``: the plan hash is
    the physics identity, the spec/config reprs distinguish wrappers
    whose power descriptions differ over the same network.
    Factorizations hold dense L/U factors (in the assembled cache), so
    the default capacity is deliberately modest; raise it for sweeps
    that revisit many configs.
    """

    def __init__(self, maxsize: int = 32) -> None:
        super().__init__(maxsize, name="stack")

    @staticmethod
    def key(plan_hash: str, spec: Any, config: Any) -> Tuple:
        return (plan_hash, repr(spec), repr(config))

    def build(
        self,
        spec: Any,
        config: Any,
        tech: Any = None,
        pitch: Optional[float] = None,
    ) -> "PDNStack":
        """``build_stack`` with staged memoization; same signature semantics.

        Resolution order: plan cache (keyed by spec/config/tech/pitch) ->
        stack cache (keyed by plan hash) -> assembled cache (content
        addressed) -> incremental assembly under the shared session.
        """
        # Imported lazily: stackup imports this module for the power-map
        # cache, so a module-level import would be circular.
        from repro.pdn.plan import record_plan_use
        from repro.pdn.stackup import PDNStack, plan_stack
        from repro.tech.calibration import DEFAULT_TECH

        tech = tech or DEFAULT_TECH
        pkey = (repr(spec), repr(config), repr(tech), pitch)
        plan = plan_cache.get(pkey)
        if plan is None:
            plan = plan_stack(spec, config, tech=tech, pitch=pitch)
            plan_cache.put(pkey, plan)
        record_plan_use(plan)
        key = self.key(plan.plan_hash, spec, config)
        stack = self.get(key)
        if stack is None:
            assembled = assembled_cache.get(plan.plan_hash)
            if assembled is None:
                from repro.pdn.assemble import assemble

                with timed("stackup.build"):
                    assembled = assemble(plan, session=assembly_session())
                assembled_cache.put(plan.plan_hash, assembled)
            stack = PDNStack.from_assembled(spec, config, tech, plan, assembled)
            self.put(key, stack)
        return stack


#: Process-global stack cache used by the cached build entry point.
stack_cache = StackCache()

#: Process-global plan memo: (spec, config, tech, pitch) reprs -> StackPlan.
plan_cache = LRUCache(maxsize=256, name="plan")

#: Process-global content-addressed cache: plan hash -> AssembledStack.
assembled_cache = LRUCache(maxsize=32, name="assembled")

#: Process-global power-map cache (value: the (ny, nx) current array).
power_map_cache = LRUCache(maxsize=256, name="power_map")

#: Lazily created shared assembly session (incremental sweep reassembly).
_assembly_session: Optional[Any] = None

#: Lazily created shared sweep-solve session (warm-started solves).
_sweep_session: Optional[Any] = None


def assembly_session():
    """The process-global :class:`~repro.pdn.assemble.AssemblySession`."""
    global _assembly_session
    if _assembly_session is None:
        from repro.pdn.assemble import AssemblySession

        _assembly_session = AssemblySession()
    return _assembly_session


def sweep_session():
    """The process-global :class:`~repro.pdn.sweep.SweepSolveSession`.

    Resolves its backend from ``REPRO_SOLVER`` at creation; callers that
    need an explicitly different backend (or an isolated warm-start
    chain per sweep curve) should construct their own session instead.
    """
    global _sweep_session
    if _sweep_session is None:
        from repro.pdn.sweep import SweepSolveSession

        _sweep_session = SweepSolveSession()
    return _sweep_session


def cached_build_stack(
    spec: Any,
    config: Any,
    tech: Any = None,
    pitch: Optional[float] = None,
) -> "PDNStack":
    """Drop-in for :func:`repro.pdn.stackup.build_stack` with reuse.

    Returns the *same* ``PDNStack`` object for repeated identical keys;
    treat the result as read-only (every library path does).
    """
    with timed("cache.stack_lookup"):
        return stack_cache.build(spec, config, tech=tech, pitch=pitch)


def power_map_key_prefix(floorplan: Any, spec: Any, grid: Any, vdd: float) -> Tuple:
    """The state-independent part of a power-map cache key.

    ``repr`` of the floorplan and power spec is the costly part of a key,
    so :class:`~repro.pdn.stackup.PDNStack` builds this once per stack
    (its spec is frozen into its plan) and passes it to every lookup.
    The reprs are taken when this is called: a ``DieFloorplan`` is a
    mutable dataclass, so nothing here is memoized on object identity.
    """
    return (repr(floorplan), repr(spec), (grid.outline, grid.nx, grid.ny), vdd)


def _cached_map(
    key: Tuple, grid: Any, kind: str, rasterize: Callable[[], Any], **attrs: Any
):
    """Look ``key`` up in the power-map cache, rasterizing on a miss.

    The cache keeps its own copy of a fresh map's current array, and a
    hit wraps a copy of the cached array, so callers that mutate their
    map cannot corrupt the cache.
    """
    from repro.power.powermap import PowerMap

    with span("powermap.rasterize", kind=kind, **attrs) as sp:
        current = power_map_cache.get(key)
        sp.attrs["cached"] = current is not None
        if current is None:
            pmap = rasterize()
            power_map_cache.put(key, pmap.current.copy())
            return pmap
        return PowerMap(grid, current.copy())


def cached_dram_power_map(
    floorplan: Any,
    spec: Any,
    state: Any,
    die: int,
    grid: Any,
    vdd: float,
    mirrored: bool = False,
    key_prefix: Optional[Tuple] = None,
):
    """Memoized :func:`repro.power.powermap.dram_power_map`.

    ``key_prefix`` is :func:`power_map_key_prefix` of the same floorplan,
    spec, grid and vdd, built once by the caller; without it the prefix
    is built on every call.  Maps are copied in and out of the cache
    (see :func:`_cached_map`).
    """
    from repro.power.powermap import dram_power_map

    if key_prefix is None:
        key_prefix = power_map_key_prefix(floorplan, spec, grid, vdd)
    return _cached_map(
        (key_prefix, "dram", state.active, die, mirrored),
        grid,
        "dram",
        lambda: dram_power_map(floorplan, spec, state, die, grid, vdd, mirrored),
        die=die,
    )


def cached_logic_power_map(
    floorplan: Any,
    spec: Any,
    grid: Any,
    vdd: float,
    scale: float,
    key_prefix: Tuple,
):
    """Memoized :func:`repro.power.powermap.logic_power_map`.

    The logic die's map does not depend on the memory state, so a LUT
    build rasterizes it once per stack and scale instead of per state.
    ``key_prefix`` is :func:`power_map_key_prefix` of the same floorplan,
    spec, grid and vdd; maps are copied as in :func:`_cached_map`.
    """
    from repro.power.powermap import logic_power_map

    return _cached_map(
        (key_prefix, "logic", scale),
        grid,
        "logic",
        lambda: logic_power_map(floorplan, spec, grid, vdd, scale=scale),
    )


def power_map_cache_enabled(enabled: bool) -> None:
    """Globally enable/disable power-map memoization (benchmark knob)."""
    power_map_cache.enabled = enabled
    if not enabled:
        power_map_cache.clear()


def clear_caches() -> None:
    """Drop all cached plans, stacks, power maps, solver column orderings
    and plan-hash memos (frees factorizations)."""
    # Local imports: rmesh and pdn import this module.
    from repro.pdn.plan import clear_hash_memo
    from repro.rmesh.backends import clear_orderings

    clear_orderings()
    clear_hash_memo()
    stack_cache.clear()
    plan_cache.clear()
    assembled_cache.clear()
    power_map_cache.clear()
    if _assembly_session is not None:
        _assembly_session.clear()
    if _sweep_session is not None:
        _sweep_session.reset()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/eviction counters of every process-global cache."""
    return {
        "stack": stack_cache.stats(),
        "plan": plan_cache.stats(),
        "assembled": assembled_cache.stats(),
        "power_map": power_map_cache.stats(),
    }
