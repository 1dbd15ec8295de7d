"""Batched Stage-2 replay of K MPPPB candidates (the feature-search path).

The Section-5 feature search evaluates many candidate MPPPB
configurations against the *same* policy-invariant Stage-1 LLC stream.
Much of each candidate's per-access work depends only on the stream,
never on cache state: set index, partial tag, sampler set, PC hash,
address/PC bit slices and history probes.  :class:`BatchLLCSimulator`
describes that candidate-invariant part once for the whole batch:

* **Slots.**  Every static feature extraction in the union of the
  candidates' feature sets becomes one deduplicated *slot* (slot 0 is
  the hashed PC when any feature XORs it in).
* **Entries.**  Each candidate's feature tuple becomes a tuple of
  *entries*: ``("slot", j)`` reads slot ``j``, ``("const0",)`` is the
  plain bias feature, and ``("dyn", family, xor_pc)`` is one of the
  cache-state bits ``insert`` / ``burst`` / ``lastmiss``.

The C kernel (:mod:`repro.sim.kernel`) lowers the slots to numpy
columns once per stream and replays every candidate over them.  When
the kernel is off or declines, each candidate replays through the
reference :class:`~repro.sim.llc.LLCSimulator` instead.  Results and
final candidate state are bit-identical either way, which
``tests/test_sim_batch.py``, ``tests/test_kernel.py`` and the
determinism suite pin.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.core.features import BLOCK_OFFSET_BITS, Feature, _normalize_range
from repro.core.mpppb import MPPPBPolicy
from repro import obs
from repro.sim.llc import LLCAccess, LLCResult, LLCSimulator, flush_llc_metrics

_DYNAMIC_FAMILIES = ("burst", "insert", "lastmiss")


def _descriptor(feature: Feature) -> Tuple:
    """Classify one feature for the shared/per-candidate split."""
    family = feature.family
    if family in _DYNAMIC_FAMILIES:
        return ("dyn", family, feature.xor_pc)
    if family == "bias":
        return ("hx",) if feature.xor_pc else ("const0",)
    if family == "pc":
        limit = 63
        source = "pc" if feature.depth == 0 else f"pd{feature.depth}"
    elif family == "address":
        limit, source = 63, "addr"
    else:  # offset
        limit, source = BLOCK_OFFSET_BITS - 1, "off"
    lo, hi = _normalize_range(feature.begin, feature.end, limit)
    raw = (source, lo, hi, feature.value_bits)
    return ("sx", raw) if feature.xor_pc else ("s", raw)


def _build_programs(
    feature_sets: Sequence[Sequence[Feature]],
) -> Tuple[List[Tuple[Tuple, ...]], bool, Tuple[Tuple, ...]]:
    """Per-candidate entry layouts, the hashed-PC flag, and the slots.

    Static descriptors are deduplicated across the union of all
    candidates' features; each candidate's entries reference shared
    slot positions (offset by one when slot 0 holds the PC hash).
    """
    slot_of: Dict[Tuple, int] = {}
    slots: List[Tuple] = []
    needs_h = any(
        feature.xor_pc for features in feature_sets for feature in features
    )
    entry_sets: List[Tuple[Tuple, ...]] = []
    base = 1 if needs_h else 0
    for features in feature_sets:
        entries: List[Tuple] = []
        for feature in features:
            desc = _descriptor(feature)
            kind = desc[0]
            if kind in ("dyn", "const0"):
                entries.append(desc)
            elif kind == "hx":
                entries.append(("slot", 0))
            else:
                slot = slot_of.get(desc)
                if slot is None:
                    slot = len(slots)
                    slot_of[desc] = slot
                    slots.append(desc)
                entries.append(("slot", slot + base))
        entry_sets.append(tuple(entries))
    return entry_sets, needs_h, tuple(slots)


class BatchLLCSimulator:
    """Replays one LLC stream against K MPPPB candidates.

    Equivalent to constructing K :class:`~repro.sim.llc.LLCSimulator`
    instances over the same stream.  Candidates must share geometry and
    sampler layout (guaranteed when they come from one
    :class:`~repro.search.evaluator.FeatureSetEvaluator`, whose
    candidates differ only in their feature tuples).
    """

    def __init__(
        self,
        capacity_bytes: int,
        ways: int,
        policies: Sequence[MPPPBPolicy],
        block_bytes: int = 64,
    ) -> None:
        if not policies:
            raise ValueError("batch needs at least one candidate policy")
        for policy in policies:
            if not isinstance(policy, MPPPBPolicy):
                raise TypeError(
                    "BatchLLCSimulator only replays MPPPBPolicy candidates; "
                    f"got {type(policy).__name__}"
                )
        self.policies = list(policies)
        self.capacity_bytes = capacity_bytes
        self.block_bytes = block_bytes
        self.caches = [
            SetAssociativeCache(capacity_bytes, ways, block_bytes)
            for _ in policies
        ]
        self.num_sets = self.caches[0].num_sets
        self.ways = ways
        first = policies[0]
        for policy in policies:
            if policy.num_sets != self.num_sets or policy.ways != ways:
                raise ValueError(
                    f"policy geometry ({policy.num_sets}x{policy.ways}) does "
                    f"not match cache geometry ({self.num_sets}x{ways})"
                )
            sampler, ref = policy.sampler, first.sampler
            if (sampler.mapper._stride != ref.mapper._stride
                    or sampler.mapper.sampler_sets != ref.mapper.sampler_sets
                    or sampler.tag_bits != ref.tag_bits):
                raise ValueError(
                    "batched candidates must share sampler geometry"
                )
        self._entry_sets, self._needs_h, self._slots = _build_programs(
            [policy.config.features for policy in policies]
        )

    def _reference_replay(self, k: int, stream: Sequence[LLCAccess],
                          pc_trace: Sequence[int], warmup: int) -> LLCResult:
        """Candidate ``k`` through :class:`LLCSimulator`, on its own cache."""
        sim = LLCSimulator(self.capacity_bytes, self.ways, self.policies[k],
                           self.block_bytes)
        sim.cache = self.caches[k]
        return sim.run(stream, pc_trace=pc_trace, warmup=warmup)

    def run(
        self,
        stream: Sequence[LLCAccess],
        pc_trace: Sequence[int] = (),
        warmup: int = 0,
    ) -> List[LLCResult]:
        """Replay ``stream`` for every candidate; one result per policy.

        Results (outcomes, measured and warm stats) and all candidate
        state (cache contents, default-policy recency, sampler entries,
        perceptron weights, bypass/promotion counters) finish exactly
        as K sequential :meth:`LLCSimulator.run` calls would leave
        them.  Every call starts from cold last-miss state.

        Unless ``REPRO_STAGE2_KERNEL`` is ``off`` (or no C compiler is
        available), the replay runs through the C kernel of
        :mod:`repro.sim.kernel`.  The kernel declines (returns
        ``None``) on unsupported preconditions before touching any
        state, and each candidate then replays through the reference
        :class:`LLCSimulator`.
        """
        from repro.sim.kernel import replay_batch, stage2_kernel_backend

        if stage2_kernel_backend() != "off":
            replays = replay_batch(self, stream, pc_trace, warmup)
            if replays is not None:
                if obs.enabled():
                    # Same once-per-replay flush as LLCSimulator.run.
                    for policy, result in zip(self.policies, replays):
                        flush_llc_metrics(result.stats, policy)
                return replays
        return [self._reference_replay(k, stream, pc_trace, warmup)
                for k in range(len(self.policies))]
