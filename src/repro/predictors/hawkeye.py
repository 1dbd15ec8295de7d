"""Hawkeye cache replacement [Jain & Lin, ISCA 2016] — baseline.

Hawkeye learns from Belady's MIN rather than from an LRU sampler: a
set-sampled *OPTgen* reconstructs, for a window of past accesses,
whether MIN would have hit each reuse, and a PC-indexed table of 3-bit
counters (the Hawkeye predictor) accumulates those verdicts.  Blocks
loaded by PCs with high counters are "cache-friendly", the rest
"cache-averse".

Replacement uses 3-bit RRPVs: friendly blocks insert at 0, averse at 7;
hits reset friendly blocks to 0; inserting a friendly block ages all
other blocks below 6 by one.  The victim is any block at RRPV 7, else
the oldest (highest-RRPV) block, in which case the evicted block's
loading PC is detrained (it kept a block long enough to be evicted
while predicted friendly).

The reproduced paper notes Hawkeye's false/true positive rates are not
directly comparable to LRU-sampler predictors (Section 6.3), so this
class is used only as a management policy, not in the ROC study.

The predictor index of an access is a hash of its PC alone, so a
replay lowers it to one numpy-computed column up front
(:meth:`HawkeyePredictor.bind_stream`), and OPTgen histories and
cache blocks remember the *index* of their last PC rather than
rehashing it on every training event; :meth:`HawkeyePredictor._index`
stays the scalar reference.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.cache.access import AccessContext
from repro.cache.replacement.base import ReplacementPolicy
from repro.predictors.base import SetSampler
from repro.util.hashing import hash_to


class OptGen:
    """Per-set occupancy-vector reconstruction of Belady's MIN.

    Time advances by one quantum per access to the set.  An interval
    [t_prev, t) whose occupancy stays below the cache's associativity
    proves MIN would have kept the block, i.e. the reuse was
    OPT-friendly; the occupancy over the interval is then incremented
    to account for the retained block.
    """

    def __init__(self, ways: int, window_factor: int = 8) -> None:
        self.ways = ways
        self.window = window_factor * ways
        self.occupancy = [0] * self.window
        self.time = 0

    def access(self, previous_time: int) -> bool:
        """Was the reuse from ``previous_time`` to now an OPT hit?"""
        now = self.time
        if previous_time < 0 or now - previous_time >= self.window:
            return False
        for t in range(previous_time, now):
            if self.occupancy[t % self.window] >= self.ways:
                return False
        for t in range(previous_time, now):
            self.occupancy[t % self.window] += 1
        return True

    def advance(self) -> int:
        """Open the next time quantum; returns the access's timestamp."""
        stamp = self.time
        self.time += 1
        self.occupancy[self.time % self.window] = 0
        return stamp


@dataclass
class _History:
    last_time: int
    last_index: int  # predictor index of the last accessing PC


class HawkeyePredictor:
    """OPTgen-trained PC classifier (3-bit counters)."""

    name = "hawkeye"

    COUNTER_MAX = 7
    FRIENDLY_THRESHOLD = 4

    def __init__(
        self,
        llc_sets: int,
        llc_ways: int,
        sampler_sets: int = 64,
        table_bits: int = 11,
    ) -> None:
        self.sampler = SetSampler(llc_sets, sampler_sets)
        self.table_bits = table_bits
        self.counters = [self.FRIENDLY_THRESHOLD] * (1 << table_bits)
        self._optgens = [OptGen(llc_ways) for _ in range(sampler_sets)]
        self._histories: List[Dict[int, _History]] = [
            {} for _ in range(sampler_sets)
        ]
        # Predictor index of the most recent access (for the policy's
        # per-block bookkeeping), and the lowered index column of the
        # bound stream — None outside LLCSimulator.run.
        self.last_index = 0
        self._column: Optional[List[int]] = None

    @contextmanager
    def bind_stream(self, stream: Sequence, pc_trace: Sequence[int]
                    ) -> Iterator[None]:
        """Serve access indices from a column lowered for ``stream``.

        Inside the context, :meth:`on_llc_access` reads the index at
        ``ctx.stream_index``; on exit the column is dropped.  Without
        numpy, with ``REPRO_STAGE2_KERNEL=off`` or for PCs beyond
        ``int64``, nothing is lowered and every access hashes its PC.
        """
        from repro.sim.kernel import stream_columns_enabled

        if stream_columns_enabled():
            from repro.sim.kernel.columns import pc_hash_column

            self._column = pc_hash_column(stream, self.table_bits)
        try:
            yield
        finally:
            self._column = None

    def is_friendly(self, pc: int) -> bool:
        return self.counters[self._index(pc)] >= self.FRIENDLY_THRESHOLD

    def on_llc_access(self, set_idx: int, ctx: AccessContext, hit: bool) -> bool:
        """Observe an access; train OPTgen; return current friendliness."""
        column = self._column
        index = (self._index(ctx.pc) if column is None
                 else column[ctx.stream_index])
        self.last_index = index
        sampler_idx = self.sampler.sampler_index(set_idx)
        if sampler_idx >= 0:
            self._sample(sampler_idx, ctx.block, index)
        return self.counters[index] >= self.FRIENDLY_THRESHOLD

    def detrain(self, pc: int) -> None:
        """A friendly-predicted block was evicted unused: push PC averse."""
        self.detrain_index(self._index(pc))

    def detrain_index(self, index: int) -> None:
        """:meth:`detrain` for an already-hashed predictor index."""
        if self.counters[index] > 0:
            self.counters[index] -= 1

    def _sample(self, sampler_idx: int, block: int, index: int) -> None:
        optgen = self._optgens[sampler_idx]
        history = self._histories[sampler_idx]
        record = history.get(block)
        if record is not None:
            opt_hit = optgen.access(record.last_time)
            self._train(record.last_index, friendly=opt_hit)
        stamp = optgen.advance()
        history[block] = _History(last_time=stamp, last_index=index)
        if len(history) > 4 * optgen.window:
            horizon = optgen.time - optgen.window
            for stale in [b for b, r in history.items() if r.last_time < horizon]:
                del history[stale]

    def _train(self, index: int, friendly: bool) -> None:
        if friendly:
            if self.counters[index] < self.COUNTER_MAX:
                self.counters[index] += 1
        elif self.counters[index] > 0:
            self.counters[index] -= 1

    def _index(self, pc: int) -> int:
        return hash_to(pc >> 2, self.table_bits)


class HawkeyePolicy(ReplacementPolicy):
    """RRIP-style replacement driven by the Hawkeye predictor."""

    name = "hawkeye"

    RRPV_MAX = 7

    def __init__(
        self,
        num_sets: int,
        ways: int,
        predictor: Optional[HawkeyePredictor] = None,
    ) -> None:
        super().__init__(num_sets, ways)
        self.predictor = predictor or HawkeyePredictor(num_sets, ways)
        self.rrpvs: List[List[int]] = [[self.RRPV_MAX] * ways for _ in range(num_sets)]
        self._friendly: List[List[bool]] = [[False] * ways for _ in range(num_sets)]
        # Predictor index of each block's loading PC (detrain target).
        self._load_index: List[List[int]] = [[0] * ways for _ in range(num_sets)]
        self._last_friendly = False

    def bind_stream(self, stream: Sequence, pc_trace: Sequence[int]):
        return self.predictor.bind_stream(stream, pc_trace)

    def on_access(self, set_idx: int, ctx: AccessContext, hit: bool, way: int) -> None:
        self._last_friendly = self.predictor.on_llc_access(set_idx, ctx, hit)

    def choose_victim(self, set_idx: int, ctx: AccessContext) -> int:
        rrpvs = self.rrpvs[set_idx]
        # The first way at the highest RRPV: a distant (RRPV_MAX) block
        # if any, else the oldest block, whose eviction may detrain.
        oldest = max(rrpvs)
        victim = rrpvs.index(oldest)
        # Evicting a block believed friendly: its loading PC misled us.
        if oldest < self.RRPV_MAX and self._friendly[set_idx][victim]:
            self.predictor.detrain_index(self._load_index[set_idx][victim])
        return victim

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        friendly = self._last_friendly
        if friendly:
            aging = self.RRPV_MAX - 1
            rrpvs = [r + 1 if r < aging else r for r in self.rrpvs[set_idx]]
            rrpvs[way] = 0
            self.rrpvs[set_idx] = rrpvs
        else:
            self.rrpvs[set_idx][way] = self.RRPV_MAX
        self._friendly[set_idx][way] = friendly
        self._load_index[set_idx][way] = self.predictor.last_index

    def on_hit(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        friendly = self._last_friendly
        self.rrpvs[set_idx][way] = 0 if friendly else self.RRPV_MAX
        self._friendly[set_idx][way] = friendly
        self._load_index[set_idx][way] = self.predictor.last_index

    def is_mru(self, set_idx: int, way: int) -> bool:
        return self.rrpvs[set_idx][way] == 0
