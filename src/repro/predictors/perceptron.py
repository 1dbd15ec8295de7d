"""Perceptron learning for reuse prediction [Teran, Wang & Jimenez,
MICRO 2016] — the "Perceptron" baseline of the reproduced paper.

The predictor is a hashed perceptron (Section 2): each of six fixed
features — the current PC shifted, the three previous memory-access
PCs, and two different shifts of the referenced block's tag — is
hashed into its own table of small signed weights; the sum of the six
selected weights is the prediction, with large positive sums meaning
*dead*.  An LRU sampler provides training events: weights are
incremented when a sampled block is evicted, decremented when it is
reused, and training only fires when the stored prediction was wrong
or its magnitude is below the training threshold theta (the perceptron
learning rule).

The policy wrapper reproduces the MICRO 2016 bypass-and-replacement
optimization: dead-on-arrival fills are bypassed, and each block keeps
one extra *reuse bit* (set when an access to it was predicted dead)
that makes it a preferred victim — the per-block bit the reproduced
paper contrasts with MPPPB's implicit placement-based encoding.

All six feature indices depend only on the access stream, so a replay
lowers them to one numpy-computed row per access up front
(:meth:`PerceptronPredictor.bind_stream`); :meth:`feature_indices` is
the scalar reference those rows match bit for bit, and the path taken
whenever no stream is bound.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.cache.access import AccessContext
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.predictors.base import ReusePredictor, SetSampler, partial_tag
from repro.util.bits import saturate
from repro.util.hashing import combine, hash_to

NUM_FEATURES = 6
WEIGHT_MIN = -32
WEIGHT_MAX = 31


@dataclass
class _SamplerEntry:
    tag: int
    indices: List[int]
    confidence: int


class PerceptronPredictor(ReusePredictor):
    """Hashed-perceptron reuse predictor with six fixed features."""

    name = "perceptron"

    def __init__(
        self,
        llc_sets: int,
        sampler_sets: int = 80,
        sampler_ways: int = 16,
        table_bits: int = 8,
        theta: int = 30,
    ) -> None:
        self.sampler = SetSampler(llc_sets, sampler_sets)
        self.sampler_ways = sampler_ways
        self.table_size = 1 << table_bits
        self.table_bits = table_bits
        self.theta = theta
        self.tables: List[List[int]] = [
            [0] * self.table_size for _ in range(NUM_FEATURES)
        ]
        self._sets: List[List[_SamplerEntry]] = [[] for _ in range(sampler_sets)]
        # feature_indices of every access of the bound stream, by
        # stream index; None outside LLCSimulator.run.
        self._rows: Optional[List[List[int]]] = None

    @contextmanager
    def bind_stream(self, stream: Sequence, pc_trace: Sequence[int]
                    ) -> Iterator[None]:
        """Serve :meth:`feature_indices` from rows lowered for ``stream``.

        Inside the context, :meth:`on_llc_access` reads the row at
        ``ctx.stream_index``; on exit the rows are dropped.  Without
        numpy, with ``REPRO_STAGE2_KERNEL=off`` or for values beyond
        ``int64``, nothing is lowered and every access hashes itself.
        """
        from repro.sim.kernel import stream_columns_enabled

        if stream_columns_enabled():
            from repro.sim.kernel.columns import perceptron_rows

            self._rows = perceptron_rows(stream, pc_trace, self.table_bits)
        try:
            yield
        finally:
            self._rows = None

    # -- features and prediction ----------------------------------------

    def feature_indices(self, ctx: AccessContext) -> List[int]:
        """Hash the six features of this access into table indices."""
        bits = self.table_bits
        history = ctx.pc_history
        base = ctx.history_index - (0 if not ctx.is_prefetch else -1)

        def past_pc(depth: int) -> int:
            index = base - depth
            if 0 <= index < len(history):
                return history[index]
            return 0

        tag = ctx.block
        return [
            hash_to(ctx.pc >> 2, bits),
            hash_to(combine(past_pc(1), 1), bits),
            hash_to(combine(past_pc(2), 2), bits),
            hash_to(combine(past_pc(3), 3), bits),
            hash_to(combine(tag >> 4, 4), bits),
            hash_to(combine(tag >> 7, 5), bits),
        ]

    def predict(self, indices: Sequence[int]) -> int:
        return sum(map(list.__getitem__, self.tables, indices))

    @property
    def confidence_range(self) -> float:
        return float(NUM_FEATURES * WEIGHT_MAX)

    # -- training --------------------------------------------------------

    def on_llc_access(self, set_idx: int, ctx: AccessContext, hit: bool) -> float:
        rows = self._rows
        indices = (self.feature_indices(ctx) if rows is None
                   else rows[ctx.stream_index])
        confidence = self.predict(indices)
        sampler_idx = self.sampler.sampler_index(set_idx)
        if sampler_idx >= 0:
            self._sample(sampler_idx, ctx, indices, confidence)
        return float(confidence)

    def _sample(
        self,
        sampler_idx: int,
        ctx: AccessContext,
        indices: List[int],
        confidence: int,
    ) -> None:
        entries = self._sets[sampler_idx]
        tag = partial_tag(ctx.block)
        for position, entry in enumerate(entries):
            if entry.tag == tag:
                # Reuse: train toward "live" (decrement) if warranted.
                if entry.confidence >= 0 or abs(entry.confidence) < self.theta:
                    self._train(entry.indices, dead=False)
                entry.indices = indices
                entry.confidence = confidence
                entries.pop(position)
                entries.insert(0, entry)
                return
        if len(entries) >= self.sampler_ways:
            victim = entries.pop()
            # Eviction: train toward "dead" (increment) if warranted.
            if victim.confidence <= 0 or abs(victim.confidence) < self.theta:
                self._train(victim.indices, dead=True)
        entries.insert(0, _SamplerEntry(tag=tag, indices=indices,
                                        confidence=confidence))

    def _train(self, indices: Sequence[int], dead: bool) -> None:
        delta = 1 if dead else -1
        for table, index in zip(self.tables, indices):
            table[index] = saturate(table[index] + delta, WEIGHT_MIN, WEIGHT_MAX)


class PerceptronPolicy(ReplacementPolicy):
    """LRU default with perceptron-driven bypass and dead-block victims."""

    name = "perceptron"

    def __init__(
        self,
        num_sets: int,
        ways: int,
        predictor: Optional[PerceptronPredictor] = None,
        tau_bypass: int = 6,
        tau_replace: int = 0,
    ) -> None:
        super().__init__(num_sets, ways)
        self.predictor = predictor or PerceptronPredictor(num_sets)
        self.tau_bypass = tau_bypass
        self.tau_replace = tau_replace
        self._lru = LRUPolicy(num_sets, ways)
        self._reuse_bit: List[List[bool]] = [
            [False] * ways for _ in range(num_sets)
        ]
        self._last_confidence = 0.0

    def bind_stream(self, stream: Sequence, pc_trace: Sequence[int]):
        return self.predictor.bind_stream(stream, pc_trace)

    def on_access(self, set_idx: int, ctx: AccessContext, hit: bool, way: int) -> None:
        self._last_confidence = self.predictor.on_llc_access(set_idx, ctx, hit)
        if hit:
            self._reuse_bit[set_idx][way] = self._last_confidence > self.tau_replace

    def should_bypass(self, set_idx: int, ctx: AccessContext) -> bool:
        return self._last_confidence > self.tau_bypass

    def choose_victim(self, set_idx: int, ctx: AccessContext) -> int:
        marks = self._reuse_bit[set_idx]
        for way in range(self.ways):
            if marks[way]:
                return way
        return self._lru.choose_victim(set_idx, ctx)

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        self._lru.on_fill(set_idx, way, ctx)
        self._reuse_bit[set_idx][way] = self._last_confidence > self.tau_replace

    def on_hit(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        self._lru.on_hit(set_idx, way, ctx)

    def on_evict(self, set_idx: int, way: int, block: int) -> None:
        self._lru.on_evict(set_idx, way, block)
        self._reuse_bit[set_idx][way] = False

    def is_mru(self, set_idx: int, way: int) -> bool:
        return self._lru.is_mru(set_idx, way)
