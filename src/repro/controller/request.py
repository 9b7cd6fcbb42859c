"""Read requests and the synthetic workload generator.

The paper generates "10,000 read requests with temporal and spacial
locality under a row hit rate of 80%"; for stacked DDR3 "each read request
arrives every five DRAM cycles with a burst length of eight, assuming a
heavy work load" (section 2.3).

The generator reproduces those statistics:

* arrivals are nominally every ``arrival_interval`` cycles (they stall
  when the controller's queue is full);
* each bank keeps a row pointer; a request that re-touches a bank within
  ``locality_window`` requests reuses the pointer with probability
  ``row_hit_rate`` (temporal locality); a stale re-touch (beyond the
  window) has moved on to a fresh row -- locality decays, as in real
  access streams;
* spatial locality: with probability ``same_die_rate`` a request stays on
  the previous request's die; the bank within the die is uniform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError, TraceError

#: anything the engine can consume as a request stream: a materialized
#: list (the legacy contract) or a lazy iterator such as a trace reader.
Workload = Iterable["ReadRequest"]


@dataclass
class ReadRequest:
    """One memory request and its lifecycle timestamps (cycles).

    The paper's study is read-only ("we focus on read operation only",
    section 2.2); ``is_write`` extends the same machinery to mixed
    streams (write bursts use tCWL and hold the row for tWR).
    """

    req_id: int
    die: int
    bank: int
    row: int
    arrival_cycle: int
    is_write: bool = False
    issue_cycle: Optional[int] = None  # when the column command went out
    complete_cycle: Optional[int] = None  # when the data burst finished

    @property
    def latency(self) -> Optional[int]:
        if self.complete_cycle is None:
            return None
        return self.complete_cycle - self.arrival_cycle


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the synthetic read stream."""

    num_requests: int = 10_000
    num_dies: int = 4
    banks_per_die: int = 8
    arrival_interval: int = 5
    row_hit_rate: float = 0.80
    same_die_rate: float = 0.50
    num_rows: int = 4096
    #: how many requests a bank's row pointer stays warm (temporal
    #: locality horizon).
    locality_window: int = 4
    #: fraction of requests that are writes (0.0 = the paper's read-only
    #: study; real mixes run ~0.3).
    write_fraction: float = 0.0
    seed: int = 20150607  # DAC'15 conference date

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ConfigurationError("need at least one request")
        if self.num_dies < 1 or self.banks_per_die < 1:
            raise ConfigurationError("need at least one die and one bank")
        if self.arrival_interval < 1:
            raise ConfigurationError("arrival interval must be >= 1 cycle")
        if not 0.0 <= self.row_hit_rate <= 1.0:
            raise ConfigurationError("row hit rate must be in [0, 1]")
        if not 0.0 <= self.same_die_rate <= 1.0:
            raise ConfigurationError("same-die rate must be in [0, 1]")
        if self.locality_window < 1:
            raise ConfigurationError("locality window must be >= 1")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError("write fraction must be in [0, 1]")
        if self.num_rows < 2:
            raise ConfigurationError("need at least two rows per bank")


class _NumpyDraws:
    """Adapter exposing the ``random.Random`` draw API the generator
    uses (``randrange``/``random``) on a ``numpy.random.Generator``."""

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen

    def randrange(self, stop: int) -> int:
        return int(self._gen.integers(0, stop))

    def random(self) -> float:
        return float(self._gen.random())


def generate_workload(
    config: WorkloadConfig = WorkloadConfig(),
    rng: Optional[np.random.Generator] = None,
) -> List[ReadRequest]:
    """Generate the deterministic (seeded) read request stream.

    ``arrival_cycle`` here is the *nominal* arrival; the simulator delays
    actual entry into the queue when the queue is full.

    Randomness is fully explicit: by default a ``random.Random`` seeded
    with ``config.seed`` drives the stream (the historical draw sequence,
    kept byte-identical so Table 5/6 outputs never move).  Passing a
    ``numpy.random.Generator`` draws from it instead — callers that
    thread one RNG through a larger experiment get reproducibility from
    a single seed, and two generators seeded alike produce identical
    workloads (property-tested).
    """
    draws: Union[random.Random, _NumpyDraws]
    draws = random.Random(config.seed) if rng is None else _NumpyDraws(rng)
    row_pointer = [
        [draws.randrange(config.num_rows) for _ in range(config.banks_per_die)]
        for _ in range(config.num_dies)
    ]
    last_touch = [
        [-(10**9)] * config.banks_per_die for _ in range(config.num_dies)
    ]
    requests: List[ReadRequest] = []
    die = draws.randrange(config.num_dies)
    for i in range(config.num_requests):
        if draws.random() >= config.same_die_rate:
            die = draws.randrange(config.num_dies)
        bank = draws.randrange(config.banks_per_die)
        stale = i - last_touch[die][bank] > config.locality_window
        last_touch[die][bank] = i
        if stale or draws.random() >= config.row_hit_rate:
            # Jump to a different row (ensure it actually changes).
            new_row = draws.randrange(config.num_rows - 1)
            if new_row >= row_pointer[die][bank]:
                new_row += 1
            row_pointer[die][bank] = new_row
        requests.append(
            ReadRequest(
                req_id=i,
                die=die,
                bank=bank,
                row=row_pointer[die][bank],
                arrival_cycle=i * config.arrival_interval,
                is_write=draws.random() < config.write_fraction,
            )
        )
    return requests


def measured_row_hit_rate(requests: List[ReadRequest]) -> float:
    """Fraction of requests whose (die, bank) re-targets the previous row
    seen on that bank -- a sanity metric for the generator."""
    last_row = {}
    hits = 0
    misses = 0
    for req in requests:
        key = (req.die, req.bank)
        if key in last_row:
            if last_row[key] == req.row:
                hits += 1
            else:
                misses += 1
        last_row[key] = req.row
    total = hits + misses
    return hits / total if total else 0.0


# -- trace ingestion ----------------------------------------------------------
#
# Two on-disk formats feed the engine besides the synthetic generator:
#
# * ramulator-style memory traces: one request per line,
#   ``<hex address> <R|W>`` (``#`` comments and blank lines ignored).
#   The format carries no timestamps, so arrivals are synthesized at a
#   nominal ``arrival_interval``; the address decodes to (die, bank,
#   row) through a :class:`TraceMapping`.
#
# * DRAMPower-style command CSVs: ``cycle,command,die,bank,row`` with an
#   optional header line; only the column commands ``RD``/``WR`` map to
#   requests (they are what the request stream is), and cycles must be
#   non-decreasing.
#
# Readers open the file when called -- a missing or unreadable trace
# raises :class:`~repro.errors.TraceError` carrying ``path`` right away --
# and then parse lazily: a multi-million-line trace streams through the
# event engine without ever being materialized.  Malformed lines raise
# :class:`~repro.errors.TraceError` carrying ``path`` and ``line``.

#: DRAMPower-style CSV header (written by :func:`write_drampower_trace`,
#: tolerated by the reader).
DRAMPOWER_HEADER = "cycle,command,die,bank,row"


@dataclass(frozen=True)
class TraceMapping:
    """Physical-address decode for ramulator-style traces.

    Addresses map line -> bank -> die -> row, the interleaving that
    spreads a sequential stream across banks first (modulo arithmetic,
    so non-power-of-two die/bank counts work too).
    """

    num_dies: int = 4
    banks_per_die: int = 8
    num_rows: int = 4096
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.num_dies < 1 or self.banks_per_die < 1:
            raise ConfigurationError("need at least one die and one bank")
        if self.num_rows < 1:
            raise ConfigurationError("need at least one row")
        if self.line_bytes < 1:
            raise ConfigurationError("line size must be >= 1 byte")

    def decode(self, addr: int) -> "tuple[int, int, int]":
        """Address -> (die, bank, row)."""
        block = addr // self.line_bytes
        bank = block % self.banks_per_die
        die = (block // self.banks_per_die) % self.num_dies
        row = (block // (self.banks_per_die * self.num_dies)) % self.num_rows
        return die, bank, row

    def encode(self, die: int, bank: int, row: int) -> int:
        """(die, bank, row) -> smallest address decoding back to it."""
        block = (row * self.num_dies + die) * self.banks_per_die + bank
        return block * self.line_bytes


def _open_trace(path: Path) -> IO[str]:
    try:
        return path.open("r", encoding="utf-8")
    except OSError as exc:
        raise TraceError(
            f"cannot open trace: {exc.strerror or exc}", path=str(path)
        ) from exc


def read_ramulator_trace(
    path: Union[str, Path],
    mapping: TraceMapping = TraceMapping(),
    arrival_interval: float = 1.0,
) -> Iterator[ReadRequest]:
    """Stream a ramulator-style memory trace as :class:`ReadRequest`\\ s.

    ``arrival_interval`` is the synthesized nominal spacing in cycles
    (may be fractional: ``0.5`` arrives two requests per cycle).
    """
    if arrival_interval < 0:
        raise ConfigurationError("arrival interval must be >= 0")
    path = Path(path)
    return _ramulator_requests(
        _open_trace(path), path, mapping, arrival_interval
    )


def _ramulator_requests(
    fh: IO[str], path: Path, mapping: TraceMapping, arrival_interval: float
) -> Iterator[ReadRequest]:
    with fh:
        req_id = 0
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split()
            if len(fields) != 2:
                raise TraceError(
                    f"expected '<hex address> <R|W>', got {text!r}",
                    path=str(path),
                    line=lineno,
                )
            addr_s, op = fields
            try:
                addr = int(addr_s, 16)
            except ValueError:
                raise TraceError(
                    f"bad address {addr_s!r}",
                    path=str(path),
                    line=lineno,
                ) from None
            if addr < 0:
                raise TraceError(
                    f"negative address {addr_s!r}",
                    path=str(path),
                    line=lineno,
                )
            op_u = op.upper()
            if op_u not in ("R", "W"):
                raise TraceError(
                    f"bad op {op!r} (expected R or W)",
                    path=str(path),
                    line=lineno,
                )
            die, bank, row = mapping.decode(addr)
            yield ReadRequest(
                req_id=req_id,
                die=die,
                bank=bank,
                row=row,
                arrival_cycle=int(req_id * arrival_interval),
                is_write=op_u == "W",
            )
            req_id += 1


def read_drampower_trace(path: Union[str, Path]) -> Iterator[ReadRequest]:
    """Stream a DRAMPower-style command CSV as :class:`ReadRequest`\\ s.

    Lines are ``cycle,command,die,bank,row``; only ``RD``/``WR`` rows
    become requests, and cycles must be non-decreasing (the engine's
    arrival logic consumes the stream in time order).
    """
    path = Path(path)
    return _drampower_requests(_open_trace(path), path)


def _drampower_requests(fh: IO[str], path: Path) -> Iterator[ReadRequest]:
    with fh:
        req_id = 0
        last_cycle = -1
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            if lineno == 1 and text.lower() == DRAMPOWER_HEADER:
                continue
            fields = text.split(",")
            if len(fields) != 5:
                raise TraceError(
                    f"expected '{DRAMPOWER_HEADER}', got {text!r}",
                    path=str(path),
                    line=lineno,
                )
            try:
                cycle = int(fields[0])
                die = int(fields[2])
                bank = int(fields[3])
                row = int(fields[4])
            except ValueError:
                raise TraceError(
                    f"non-integer field in {text!r}",
                    path=str(path),
                    line=lineno,
                ) from None
            command = fields[1].strip().upper()
            if command not in ("RD", "WR"):
                raise TraceError(
                    f"unsupported command {fields[1]!r} (expected RD or WR)",
                    path=str(path),
                    line=lineno,
                )
            if cycle < 0 or die < 0 or bank < 0 or row < 0:
                raise TraceError(
                    f"negative field in {text!r}",
                    path=str(path),
                    line=lineno,
                )
            if cycle < last_cycle:
                raise TraceError(
                    f"cycle {cycle} goes backwards (previous {last_cycle})",
                    path=str(path),
                    line=lineno,
                )
            last_cycle = cycle
            yield ReadRequest(
                req_id=req_id,
                die=die,
                bank=bank,
                row=row,
                arrival_cycle=cycle,
                is_write=command == "WR",
            )
            req_id += 1


def read_trace(
    path: Union[str, Path],
    fmt: str = "auto",
    mapping: TraceMapping = TraceMapping(),
    arrival_interval: float = 1.0,
) -> Iterator[ReadRequest]:
    """Open a trace by format name (``ramulator``, ``drampower``) or by
    extension sniffing (``auto``: ``.csv`` means DRAMPower CSV)."""
    if fmt == "auto":
        fmt = "drampower" if Path(path).suffix.lower() == ".csv" else "ramulator"
    if fmt == "ramulator":
        return read_ramulator_trace(
            path, mapping=mapping, arrival_interval=arrival_interval
        )
    if fmt == "drampower":
        return read_drampower_trace(path)
    raise ConfigurationError(
        f"unknown trace format {fmt!r}",
        known=("auto", "ramulator", "drampower"),
    )


def write_ramulator_trace(
    path: Union[str, Path],
    requests: Iterable[ReadRequest],
    mapping: TraceMapping = TraceMapping(),
) -> int:
    """Write requests as a ramulator-style trace; returns the line count.

    The format has no timestamp column, so arrival timing is *not*
    round-tripped -- :func:`read_ramulator_trace` re-synthesizes it.
    """
    path = Path(path)
    n = 0
    with path.open("w", encoding="utf-8") as fh:
        for req in requests:
            addr = mapping.encode(req.die, req.bank, req.row)
            op = "W" if req.is_write else "R"
            fh.write(f"0x{addr:x} {op}\n")
            n += 1
    return n


def write_drampower_trace(
    path: Union[str, Path], requests: Iterable[ReadRequest]
) -> int:
    """Write requests as a DRAMPower-style command CSV (with header);
    returns the number of data lines.  Round-trips exactly through
    :func:`read_drampower_trace`."""
    path = Path(path)
    n = 0
    with path.open("w", encoding="utf-8") as fh:
        fh.write(DRAMPOWER_HEADER + "\n")
        for req in requests:
            cmd = "WR" if req.is_write else "RD"
            fh.write(
                f"{req.arrival_cycle},{cmd},{req.die},{req.bank},{req.row}\n"
            )
            n += 1
    return n
