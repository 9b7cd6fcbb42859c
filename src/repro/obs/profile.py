"""Background resource profiler: RSS / CPU / GC samples on the span timebase.

A run that slows down under load needs more than span durations to
debug: *what* grew while the slow span ran?  This module samples the
process's resident set size, cumulative CPU time, and garbage-collector
activity on a background thread at a configurable interval and attaches
each sample to the active span tree -- every sample records the deepest
span open at the instant it was taken, and its timestamp shares the
span timebase, so samples interleave exactly with the trace
(:func:`repro.obs.trace.to_chrome_trace` renders them as Perfetto
counter tracks above the span lanes).

The sampler is passive: it reads ``/proc/self/statm`` (or falls back to
``resource.getrusage``), ``time.process_time`` and ``gc.get_stats``,
and never calls ``gc.collect`` or touches solver state -- recorded
physics is bitwise identical with profiling on or off.

Sample volume is bounded by *uniform decimation*: when the buffer
reaches :data:`PROFILE_SAMPLE_CAP`, every other sample is dropped and
the effective stride doubles -- first and latest samples are always
retained, so a long run degrades to a coarser curve instead of a
truncated one (the same trade the metrics histograms make with their
sample reservoirs).

Cross-process: :mod:`repro.perf.parallel` ships each worker task's new
samples back with the task result and the parent absorbs them
(:func:`export_samples` / :func:`absorb_samples`), so a ``--workers N``
sweep's profile covers the workers too, each keeping its own pid and
timebase -- the same contract trace spans follow.

Enable with ``repro3d --profile`` or ``REPRO_PROFILE=1`` (worker
processes inherit the environment and start their own sampler);
``REPRO_PROFILE_INTERVAL_MS`` tunes the cadence (default 20 ms).
"""

from __future__ import annotations

import gc
import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs import trace as _trace


class BoundedSeries:
    """Append-only ``(x, y)`` series bounded by stride-doubling decimation.

    The series never stores more than ``cap`` points no matter how many
    are appended: appends are recorded every ``stride``-th call, and when
    the stored points reach ``cap`` every other one is dropped and the
    stride doubles.  The first point always survives (index 0 is kept by
    each decimation pass) and the most recent point is tracked separately
    and always included in :meth:`points` -- so a curve keeps its exact
    endpoints while its interior degrades to a coarser, still
    shape-faithful sampling.  Used for solver residual histories and any
    other unbounded-length curve that must travel in a manifest.
    """

    def __init__(self, cap: int = 64) -> None:
        if cap < 4:
            raise ValueError(f"BoundedSeries cap must be >= 4, got {cap}")
        self.cap = cap
        self.stride = 1
        self._points: List[Tuple[float, float]] = []
        self._last: Optional[Tuple[float, float]] = None
        self._count = 0

    def append(self, x: float, y: float) -> None:
        point = (float(x), float(y))
        if self._count % self.stride == 0:
            self._points.append(point)
            if len(self._points) >= self.cap:
                self._points = self._points[::2]
                self.stride *= 2
        self._last = point
        self._count += 1

    def __len__(self) -> int:
        """Raw appends seen (not the stored-point count)."""
        return self._count

    def points(self) -> List[Tuple[float, float]]:
        """The bounded curve, first and latest appended points included."""
        out = list(self._points)
        if self._last is not None and (not out or out[-1] != self._last):
            out.append(self._last)
        return out

#: Environment switch: any value but ""/"0" enables the sampler.
PROFILE_ENV = "REPRO_PROFILE"

#: Environment override for the sampling interval, in milliseconds.
PROFILE_INTERVAL_ENV = "REPRO_PROFILE_INTERVAL_MS"

#: Default sampling cadence (seconds); coarse enough to stay invisible
#: in wall time, fine enough to resolve per-solve memory ramps.
DEFAULT_INTERVAL_S = 0.020

#: Buffer cap before uniform decimation halves the sample density.
PROFILE_SAMPLE_CAP = 8192

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096

_lock = threading.Lock()
_samples: List["ProfileSample"] = []
#: How many raw ticks one retained sample currently represents.
_stride = 1
#: Identity keys of absorbed foreign samples (re-absorb de-duplication).
_absorbed_keys: set = set()


@dataclass
class ProfileSample:
    """One instantaneous resource reading on the span timebase."""

    ts_us: float
    pid: int
    #: Resident set size at the sample instant (KiB).
    rss_kb: float
    #: Cumulative process CPU time, user+system, all threads (seconds).
    cpu_s: float
    #: Cumulative GC collections across all generations.
    gc_collections: int
    #: Deepest span open when the sample was taken (None between spans).
    span: Optional[str] = None
    depth: int = 0


def profiling_enabled() -> bool:
    """Whether the environment asks for resource profiling."""
    return os.environ.get(PROFILE_ENV, "") not in ("", "0")


def profile_interval() -> float:
    """Sampling interval in seconds (env override, floor 1 ms)."""
    # Local import: envcfg imports repro.obs, whose package init imports
    # this module.  A malformed value warns and defaults (repro.envcfg);
    # values below 1 ms still clamp to 1 ms, as they always have.
    from repro import envcfg

    ms = envcfg.env_float(PROFILE_INTERVAL_ENV, DEFAULT_INTERVAL_S * 1e3)
    return max(ms, 1.0) / 1e3


def _read_rss_kb() -> float:
    """Current RSS in KiB: /proc on Linux, peak-RSS fallback elsewhere."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE / 1024.0
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        try:
            import resource

            return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        except (ImportError, ValueError, OSError):
            return 0.0


def take_sample() -> ProfileSample:
    """One reading of the current process (also used by the thread loop)."""
    collections = sum(s.get("collections", 0) for s in gc.get_stats())
    active = _trace.current_span()
    return ProfileSample(
        ts_us=_trace.now_us(),
        pid=os.getpid(),
        rss_kb=_read_rss_kb(),
        cpu_s=time.process_time(),
        gc_collections=collections,
        span=active.name if active is not None else None,
        depth=active.depth if active is not None else 0,
    )


def _record(sample: ProfileSample) -> None:
    global _stride
    with _lock:
        _samples.append(sample)
        if len(_samples) >= PROFILE_SAMPLE_CAP:
            # Uniform decimation: keep even indices (index 0 -- the first
            # sample -- survives every pass) plus the newest sample.
            last = _samples[-1]
            thinned = _samples[:-1:2]
            if not thinned or thinned[-1] is not last:
                thinned.append(last)
            _samples[:] = thinned
            _stride *= 2


class _Sampler(threading.Thread):
    """Daemon thread reading one sample per interval until stopped."""

    def __init__(self, interval_s: float) -> None:
        super().__init__(name="repro-obs-profiler", daemon=True)
        self.interval_s = interval_s
        # Not named _stop: threading.Thread owns a private _stop() method.
        self._halt = threading.Event()

    def run(self) -> None:  # pragma: no cover - timing-dependent loop body
        while not self._halt.wait(self.interval_s):
            _record(take_sample())

    def stop(self) -> None:
        self._halt.set()


_sampler: Optional[_Sampler] = None


def start_profiler(interval_s: Optional[float] = None) -> bool:
    """Start the background sampler (idempotent); returns True if running.

    An initial sample is taken synchronously so even a short-lived run
    has at least one data point.
    """
    global _sampler
    with _lock:
        already = _sampler is not None and _sampler.is_alive()
    if already:
        return True
    sampler = _Sampler(interval_s if interval_s is not None else profile_interval())
    _record(take_sample())
    sampler.start()
    with _lock:
        _sampler = sampler
    return True


def stop_profiler(final_sample: bool = True) -> None:
    """Stop the background sampler; optionally record a closing sample."""
    global _sampler
    with _lock:
        sampler = _sampler
        _sampler = None
    if sampler is not None:
        sampler.stop()
        sampler.join(timeout=1.0)
        if final_sample:
            _record(take_sample())


def ensure_profiler() -> bool:
    """Start the sampler iff the environment enables it (worker entry)."""
    if not profiling_enabled():
        return False
    return start_profiler()


def profiler_running() -> bool:
    with _lock:
        return _sampler is not None and _sampler.is_alive()


def reset_profile() -> None:
    """Drop every buffered sample and restore full sampling density."""
    global _stride
    with _lock:
        _samples.clear()
        _absorbed_keys.clear()
        _stride = 1


def sample_count() -> int:
    with _lock:
        return len(_samples)


def samples(since: int = 0) -> List[ProfileSample]:
    """Copy of the sample buffer (optionally from an index)."""
    with _lock:
        return list(_samples[since:])


def stride() -> int:
    """Current decimation stride (1 until the cap is first reached)."""
    with _lock:
        return _stride


def export_samples(since: int = 0) -> List[Dict[str, object]]:
    """Samples as plain dicts -- picklable across process boundaries."""
    return [asdict(s) for s in samples(since)]


def _sample_key(data: Dict[str, object]) -> tuple:
    return (data.get("pid"), data.get("ts_us"), data.get("cpu_s"))


def absorb_samples(records: List[Dict[str, object]]) -> None:
    """Merge samples exported by another process into this buffer.

    Foreign samples keep their own pid/timebase (Perfetto shows each pid
    as its own counter lane); the batch is ordered by (pid, timestamp)
    and de-duplicated on re-absorb, mirroring ``absorb_spans``.
    """
    ordered = sorted(
        records, key=lambda d: (d.get("pid", 0), d.get("ts_us", 0.0))
    )
    fresh = []
    with _lock:
        for data in ordered:
            key = _sample_key(data)
            if key in _absorbed_keys:
                continue
            _absorbed_keys.add(key)
            fresh.append(ProfileSample(**data))
        _samples.extend(fresh)


def summary(since: int = 0) -> Dict[str, object]:
    """Compact profile digest for manifests and the run-history store.

    ``curve`` is a bounded ``[ts_us, rss_kb, cpu_s]`` series (at most
    :data:`SUMMARY_CURVE_CAP` points, endpoints preserved) -- enough to
    plot a memory/CPU trajectory without carrying the raw buffer.
    """
    buffered = samples(since)
    out: Dict[str, object] = {
        "enabled": profiling_enabled() or bool(buffered),
        "samples": len(buffered),
        "stride": stride(),
        "interval_ms": round(profile_interval() * 1e3, 3),
    }
    if not buffered:
        return out
    own = [s for s in buffered if s.pid == os.getpid()] or buffered
    out["peak_rss_kb"] = round(max(s.rss_kb for s in buffered), 1)
    out["cpu_s"] = round(own[-1].cpu_s - own[0].cpu_s, 6)
    out["pids"] = sorted({s.pid for s in buffered})
    keep = _downsample_indices(len(buffered), SUMMARY_CURVE_CAP)
    out["curve"] = [
        [round(buffered[i].ts_us, 1), round(buffered[i].rss_kb, 1),
         round(buffered[i].cpu_s, 6)]
        for i in keep
    ]
    return out


#: Max points carried by a manifest/store profile curve.
SUMMARY_CURVE_CAP = 256


def _downsample_indices(n: int, cap: int) -> List[int]:
    """Indices of an evenly-spaced subset of ``range(n)``, endpoints kept."""
    if n <= cap:
        return list(range(n))
    step = (n - 1) / (cap - 1)
    keep = {round(i * step) for i in range(cap)}
    keep.add(0)
    keep.add(n - 1)
    return sorted(keep)


def counter_events() -> List[Dict[str, object]]:
    """The sample buffer as Chrome trace-event counter (``ph: C``) events.

    Three tracks per pid -- RSS, CPU time, and GC collections -- on the
    same microsecond timebase as the span events, so the unified export
    interleaves resource curves with the span tree.
    """
    events: List[Dict[str, object]] = []
    for s in samples():
        base = {"ph": "C", "ts": s.ts_us, "pid": s.pid, "tid": 0}
        events.append(
            {**base, "name": "profile.rss_kb", "args": {"rss_kb": s.rss_kb}}
        )
        events.append(
            {**base, "name": "profile.cpu_s", "args": {"cpu_s": s.cpu_s}}
        )
        events.append(
            {
                **base,
                "name": "profile.gc_collections",
                "args": {"collections": s.gc_collections},
            }
        )
    return events
