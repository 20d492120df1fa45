"""The cache-miss experiment of Section 7.2.

The paper extends the hierarchy with one CPU-cache level; OCAS responds
by tiling the BNL join's in-memory loops, and ``perf`` shows the tiled
program incurring **98.2% fewer data-cache misses** (while wall time
barely moves, the workload being I/O-bound).

This module replays the memory-access pattern of the two generated inner
join kernels through the LRU cache simulator:

* *untiled*:  ``for x ← xB: for y ← yB: touch(x); touch(y)`` — the whole
  inner block is streamed through the cache once per outer element;
* *tiled*:    the same loops blocked by cache-sized tiles, so each tile
  pair is reused while resident.

The access pattern is *not* derived from a synthesized program:
:func:`run_cache_experiment` hard-codes the relation sizes, the cache
geometry and the tile (a quarter of the cache per relation).  Driving it
from the ``bnl-with-cache`` winner's tuned tiles and loop order is
ROADMAP item 12(a).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import CacheSim

__all__ = ["CacheExperimentResult", "run_cache_experiment", "simulate_join_accesses"]


@dataclass
class CacheExperimentResult:
    """Miss counts for the untiled and tiled join kernels."""

    untiled_accesses: int
    untiled_misses: int
    tiled_accesses: int
    tiled_misses: int

    @property
    def miss_reduction(self) -> float:
        """Fraction of misses eliminated by tiling (paper: 0.982)."""
        if self.untiled_misses == 0:
            return 0.0
        return 1.0 - self.tiled_misses / self.untiled_misses


def simulate_join_accesses(
    cache: CacheSim,
    outer_elems: int,
    inner_elems: int,
    elem_bytes: int,
    outer_tile: int | None = None,
    inner_tile: int | None = None,
) -> None:
    """Feed the BNL inner-kernel access pattern through *cache*.

    ``None`` tiles mean the untiled kernel.  Element addresses are laid
    out contiguously per relation, disjoint between relations.
    """
    outer_base = 0
    inner_base = outer_elems * elem_bytes + cache.line_size  # disjoint
    o_tile = outer_tile or outer_elems
    i_tile = inner_tile or inner_elems
    for o_start in range(0, outer_elems, o_tile):
        o_end = min(o_start + o_tile, outer_elems)
        for i_start in range(0, inner_elems, i_tile):
            i_end = min(i_start + i_tile, inner_elems)
            for o in range(o_start, o_end):
                cache.access(outer_base + o * elem_bytes, elem_bytes)
                for i in range(i_start, i_end):
                    cache.access(inner_base + i * elem_bytes, elem_bytes)


def run_cache_experiment(
    outer_elems: int = 512,
    inner_elems: int = 16384,
    elem_bytes: int = 8,
    cache_size: int = 64 * 2**10,
    line_size: int = 512,
    tile_elems: int | None = None,
) -> CacheExperimentResult:
    """Compare untiled vs cache-tiled BNL kernels on one cache model.

    Default sizes scale the paper's 3 MB cache scenario down so the
    experiment runs in seconds while keeping the essential geometry: the
    inner relation (128 KiB) exceeds the cache (64 KiB), so the untiled
    kernel re-misses the whole inner relation on every outer element.
    ``tile_elems`` defaults to a quarter of the cache per relation tile.
    """
    if tile_elems is None:
        tile_elems = max(1, cache_size // (4 * elem_bytes))
    untiled = CacheSim(size=cache_size, line_size=line_size)
    simulate_join_accesses(
        untiled, outer_elems, inner_elems, elem_bytes
    )
    tiled = CacheSim(size=cache_size, line_size=line_size)
    simulate_join_accesses(
        tiled,
        outer_elems,
        inner_elems,
        elem_bytes,
        outer_tile=tile_elems,
        inner_tile=tile_elems,
    )
    return CacheExperimentResult(
        untiled_accesses=untiled.accesses,
        untiled_misses=untiled.misses,
        tiled_accesses=tiled.accesses,
        tiled_misses=tiled.misses,
    )
