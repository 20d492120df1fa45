"""Charge and accounting model shared by the execution backends.

This module owns everything about one run that is *bookkeeping* rather
than program semantics:

* :class:`InputSpec` / :class:`ExecutionConfig` / :class:`ExecutionResult`
  — the workload description and outcome types every backend speaks;
* :func:`build_devices` — one behavioral device per hierarchy node, with
  transfer costs accumulated along the node's path to the root so that
  arbitrary hierarchy *trees* (RAM→SSD→HDD chains, multi-leaf fan-outs)
  are priced consistently with the estimator's per-edge charging;
* :class:`ChargeModel` — the clock/device/stats bundle with the charge
  rules (scan coalescing, write-out interference, analytic loop scaling)
  that the analytic interpreter invokes and the file backend prices its
  *measured* operation counts against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hierarchy import MemoryHierarchy
from .cache import CacheSim
from .clock import SimClock
from .devices import FlashDrive, HardDisk, Ram, SimDevice
from .stats import ExecutionStats
from .values import RtList

__all__ = [
    "InputSpec",
    "ExecutionConfig",
    "ExecutionResult",
    "ExecutionError",
    "EdgePath",
    "bind_pattern",
    "merge_levels",
    "cumulative_edge_costs",
    "build_devices",
    "ChargeModel",
]


class ExecutionError(RuntimeError):
    """Raised when a program cannot be executed by a backend."""


def merge_levels(runs, arity: int) -> int:
    """The merge passes of an ``arity``-way ``treeFold`` over ``runs``
    runs: the smallest k with ``arity**k >= runs``.

    Counted in integers: ``ceil(log(runs, arity))`` overshoots at exact
    powers (``log(125, 5)`` is 3.0000000000000004).
    """
    if arity < 2:
        raise ValueError(f"merge arity must be at least 2, got {arity}")
    if not math.isfinite(runs):
        raise OverflowError(f"cannot count merge levels of {runs} runs")
    levels, reach = 0, 1
    while reach < runs:
        reach *= arity
        levels += 1
    return levels


def bind_pattern(pattern, value, env: dict) -> None:
    """Bind a λ pattern (name or nested tuple of names) in ``env``.

    Shared by both backends' evaluators; the value side is whatever the
    substrate computes with (statistics, records, handles).
    """
    if isinstance(pattern, str):
        env[pattern] = value
        return
    if not isinstance(value, tuple) or len(value) != len(pattern):
        raise ExecutionError(
            f"pattern of arity {len(pattern)} cannot bind this value"
        )
    for sub, item in zip(pattern, value):
        bind_pattern(sub, item, env)


@dataclass(frozen=True)
class InputSpec:
    """Statistics describing one stored input relation."""

    card: float
    elem_bytes: float
    sorted: bool = False
    #: key domain for generated data (0 = keys unique per tuple); only
    #: the concrete file backend consumes this — the analytic substrate
    #: models selectivity through ``cond_probability`` instead.
    key_domain: int = 0
    #: the relation is a list of singleton runs (the sort spec's input)
    #: rather than a flat list of records.
    nested_runs: bool = False


@dataclass
class ExecutionConfig:
    """Workload- and machine-level knobs for one run."""

    hierarchy: MemoryHierarchy
    input_locations: dict[str, str]
    output_location: str | None = None
    #: probability that a data-dependent if-condition holds (join
    #: selectivity, duplicate rate, …); the estimator's worst case is 1.
    cond_probability: float = 1.0
    #: workload-level override for the program's output cardinality
    #: (e.g. |R ⋈ S| = x·y·sel, which per-bucket probabilities cannot
    #: reconstruct); used for write-out sizing and reporting.
    output_card_override: float | None = None
    cpu_per_iteration: float = 5e-10
    cpu_per_output_byte: float = 1e-9
    cpu_per_hash: float = 5e-9
    #: CPU cost of issuing one I/O request (syscall + driver path).
    #: Only the *measuring* file backend prices it — the analytic
    #: simulator stays request-overhead-blind like the estimator, so the
    #: seed's simulated numbers are unchanged.  It is what separates a
    #: one-element-per-request naive scan from a blocked one when both
    #: stream sequentially and no seek is ever charged.
    cpu_per_request: float = 5e-5
    cache: CacheSim | None = None
    #: analytic parallel-bandwidth divisor: >1 models partition-parallel
    #: scans streaming from independent spindles, dividing the per-byte
    #: transfer term of interrupted scans by the worker count.  The
    #: default of 1 is an exact no-op, so priced costs — and parallel
    #: *measured* runs, which replay serial-identical counters — never
    #: shift unless a study opts in.
    parallel_workers: int = 1


@dataclass
class ExecutionResult:
    """Outcome of one run on either substrate.

    The first six fields are what the analytic simulator has always
    reported.  The file backend additionally fills the measured fields:
    ``wall_seconds`` is real elapsed time, ``measured_io_seconds`` the
    portion spent inside actual file reads/writes, while ``elapsed``
    remains the *priced* cost of the operations that actually happened
    (real request/byte counters × the hierarchy's edge costs), so the
    number stays directly comparable with the simulated prediction.
    """

    elapsed: float
    io_seconds: float
    cpu_seconds: float
    stats: ExecutionStats
    output_card: float
    output_bytes: float
    backend: str = "sim"
    wall_seconds: float | None = None
    measured_io_seconds: float | None = None

    def summary(self) -> str:
        text = (
            f"elapsed={self.elapsed:.2f}s (io={self.io_seconds:.2f}s, "
            f"cpu={self.cpu_seconds:.2f}s), output={self.output_card:.4g} "
            f"tuples"
        )
        if self.wall_seconds is not None:
            text += f", wall={self.wall_seconds:.2f}s"
        return text


@dataclass(frozen=True)
class EdgePath:
    """Cumulative transfer costs between one node and the root."""

    read_init: float = 0.0
    read_unit: float = 0.0
    write_init: float = 0.0
    write_unit: float = 0.0


def cumulative_edge_costs(
    hierarchy: MemoryHierarchy, name: str
) -> EdgePath:
    """Sum the directed edge costs along ``name``'s path to the root.

    A request against a device at depth ≥ 2 crosses every intermediate
    level (Section 5.2: transfers only happen between adjacent levels),
    so its initiation and per-byte costs are the sums over the path.
    For the classic two-level hierarchies the path is a single edge and
    this degenerates to the edge's own costs.
    """
    read_init = read_unit = write_init = write_unit = 0.0
    path = hierarchy.path_to_root(name)
    for lower, upper in zip(path, path[1:]):
        up = hierarchy.edges.get((lower.name, upper.name))
        down = hierarchy.edges.get((upper.name, lower.name))
        if up is not None:
            read_init += up.init
            read_unit += up.unit
        if down is not None:
            write_init += down.init
            write_unit += down.unit
    return EdgePath(read_init, read_unit, write_init, write_unit)


def build_devices(
    hierarchy: MemoryHierarchy, clock: SimClock
) -> dict[str, SimDevice]:
    """Instantiate one simulated device per hierarchy node."""
    devices: dict[str, SimDevice] = {}
    root = hierarchy.root.name
    for name, node in hierarchy.nodes.items():
        if name == root:
            devices[name] = Ram(name=name, clock=clock, capacity=node.size)
            continue
        costs = cumulative_edge_costs(hierarchy, name)
        if node.max_seq_write is not None:
            devices[name] = FlashDrive(
                name=name,
                clock=clock,
                read_init=costs.read_init,
                read_unit=costs.read_unit,
                write_init=costs.write_init,
                write_unit=costs.write_unit,
                capacity=node.size,
                erase_block=node.max_seq_write,
            )
        else:
            devices[name] = HardDisk(
                name=name,
                clock=clock,
                read_init=costs.read_init,
                read_unit=costs.read_unit,
                write_init=costs.write_init,
                write_unit=costs.write_unit,
                capacity=node.size,
            )
    return devices


class ChargeModel:
    """Clock, devices, and counters for one analytic run.

    The interpreter calls these rules for every cost-bearing event; they
    are behavior-preserving extractions of the original monolithic
    executor, so the simulated numbers are bit-for-bit those of the
    seed's ``SimExecutor``.
    """

    def __init__(self, config: ExecutionConfig) -> None:
        self.config = config
        self.hierarchy = config.hierarchy
        self.clock = SimClock()
        self.devices = build_devices(config.hierarchy, self.clock)
        self.stats = ExecutionStats()

    # ------------------------------------------------------------------
    def charge_scan(
        self,
        source: RtList,
        requests: float,
        request_bytes: float,
        body_did_io: bool,
    ) -> None:
        device = source.device
        total = source.card * source.elem_bytes
        if body_did_io:
            # Each request is separated by other I/O: the head moved, so
            # every request repositions.  Charge analytically.  The
            # per-byte term divides by the opt-in parallel-bandwidth
            # factor (1 by default, an exact no-op); initiation costs
            # are per-request and do not parallelize.
            lanes = max(1, self.config.parallel_workers)
            device.clock.advance_io(device.read_init * requests)
            device.stats.seeks += int(requests)
            device.clock.advance_io(total * device.read_unit / lanes)
            device.stats.reads += int(requests)
            device.stats.bytes_read += total
        else:
            # Uninterrupted requests coalesce into one sequential run.
            device.read(source.addr, total)

    # ------------------------------------------------------------------
    def write_out(self, nbytes: float, device: SimDevice) -> None:
        if nbytes <= 0:
            return
        extent = device.allocate(nbytes)
        # Evictions in root-sized chunks.  If the program also *read*
        # from this device, the evictions interleave with the reads and
        # every chunk repositions the head — the same interference the
        # paper's "BNL writing to HDD" row demonstrates.
        interferes = device.stats.bytes_read > 0
        chunk = max(1, self.hierarchy.root.size // 4)
        addr = extent.start
        remaining = nbytes
        iterations = 0
        max_explicit = 1 << 16
        while remaining > 0 and iterations < max_explicit:
            step = min(chunk, remaining)
            device.write(addr, step)
            if interferes:
                device.invalidate_position()
            addr += int(step)
            remaining -= step
            iterations += 1
        if remaining > 0:
            # Analytic tail for extremely large outputs.
            chunks = math.ceil(remaining / chunk)
            device.clock.advance_io(
                remaining * device.write_unit
                + (chunks if interferes else 1) * device.write_init
            )
            device.stats.bytes_written += remaining
            device.stats.seeks += chunks if interferes else 1
        self.clock.advance_cpu(nbytes * self.config.cpu_per_output_byte)

    # ------------------------------------------------------------------
    def spill_device(self) -> SimDevice:
        out = self.config.output_location
        if out is not None:
            return self.devices[out]
        leaves = [
            self.devices[n.name] for n in self.hierarchy.leaves()
        ]
        if not leaves:
            raise ExecutionError("no device to spill to")
        return max(leaves, key=lambda d: d.capacity)

    # ------------------------------------------------------------------
    def collect_device_stats(self) -> None:
        for name, device in self.devices.items():
            self.stats.device(name).merge(device.stats)

    def snapshot_device_stats(self) -> dict[str, tuple]:
        return {
            name: (
                d.stats.reads,
                d.stats.writes,
                d.stats.bytes_read,
                d.stats.bytes_written,
                d.stats.seeks,
                d.stats.erases,
            )
            for name, d in self.devices.items()
        }

    def scale_device_deltas(
        self, before: dict[str, tuple], factor: float
    ) -> None:
        """Multiply counter growth since *before* by ``factor`` more runs."""
        for name, snap in before.items():
            stats = self.devices[name].stats
            reads, writes, br, bw, seeks, erases = snap
            stats.reads += int((stats.reads - reads) * factor)
            stats.writes += int((stats.writes - writes) * factor)
            stats.bytes_read += (stats.bytes_read - br) * factor
            stats.bytes_written += (stats.bytes_written - bw) * factor
            stats.seeks += int((stats.seeks - seeks) * factor)
            stats.erases += int((stats.erases - erases) * factor)
