"""Shared-context batched Stage-2 replay (the feature-search hot path).

The Section-5 feature search evaluates many candidate MPPPB
configurations against the *same* policy-invariant Stage-1 LLC stream.
A conventional loop replays the stream once per candidate, re-deriving
per-access context — set index, partial tag, sampler set, PC hash,
address/PC bit slices with their fold memos, history probes — that is
identical for every candidate because it depends only on the stream,
never on cache state.  :class:`BatchLLCSimulator` splits the replay
accordingly:

1. **Shared pass** (once per stream): decode every access into typed
   ``array`` columns (block, set index, partial tag, sampler set,
   prefetch flag) plus one tuple of *static slot values* per access,
   produced by a single ``exec``-compiled function over the union of
   all candidates' features.  Static slots cover the PC hash, history
   probes, and every slice-and-fold extraction — deduplicated across
   candidates, computed exactly once per access.
2. **Per-candidate replay** (K times): a tight loop over the decoded
   columns that evaluates a candidate-specific compiled index/predict
   function (reading static slots, mixing in the three cache-state
   bits ``insert`` / ``burst`` / ``lastmiss``) and applies the full
   MPPPB decision cascade against that candidate's own
   :class:`~repro.cache.cache.SetAssociativeCache`, sampler, and
   perceptron tables — the structure-of-candidates state layout.

Both halves reuse the primitives of :mod:`repro.core.features`
(``_hashed_pc`` with its global memo, ``_fold_into``,
``_normalize_range``), so indices — and therefore every downstream
number — are bit-identical to the sequential
:class:`~repro.sim.llc.LLCSimulator` + :class:`~repro.core.mpppb.
MPPPBPolicy` path, which stays available behind ``REPRO_STAGE2_BATCH=
off`` and is pinned by ``tests/test_sim_batch.py`` and the determinism
suite.
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.core.features import (
    BLOCK_OFFSET_BITS,
    MAX_TABLE_SIZE,
    _PC_HASH_CACHE,
    _fold_into,
    _hashed_pc,
    _normalize_range,
    Feature,
)
from repro.core.mpppb import MPPPBPolicy
from repro.core.predictor import CONFIDENCE_MAX, CONFIDENCE_MIN
from repro.predictors.base import partial_tag
from repro import obs
from repro.sim.llc import LLCAccess, LLCResult, LLCStats, flush_llc_metrics

_DISABLED = ("off", "0", "false", "no", "none")


def stage2_batch_enabled() -> bool:
    """Batched-replay selector: ``REPRO_STAGE2_BATCH`` (default on).

    The knob exists for the determinism suite and the perf harness;
    both paths are bit-identical, so it never appears in cache keys.
    """
    return os.environ.get("REPRO_STAGE2_BATCH", "on").lower() not in _DISABLED


# -- shared-context compilation --------------------------------------------
#
# A feature's table index decomposes into a *static* part (a pure
# function of the access) and at most one *dynamic* bit (a function of
# the candidate's cache state).  Descriptors name the static part so
# identical extractions collapse to one shared slot across the union
# of a batch's features.

_DYNAMIC_VARS = {"burst": "mru", "insert": "ins", "lastmiss": "lm"}


def _descriptor(feature: Feature) -> Tuple:
    """Classify one feature for the shared/per-candidate split."""
    family = feature.family
    if family in _DYNAMIC_VARS:
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


# Compiled shared functions are pure functions of the slot layout;
# bounded memo because the search churns through many feature unions.
_SHARED_CACHE: Dict[Tuple, Callable] = {}
# Per-candidate evaluator code objects keyed by the entry layout; the
# same code is exec'd once per candidate with its own weight bindings.
_EVAL_CODE_CACHE: Dict[Tuple, Any] = {}


def _compile_shared(slots: Tuple[Tuple, ...], needs_h: bool) -> Callable:
    """Compile the once-per-access static-slot function.

    Returns ``fn(pc, address, offset, hbase, history, hlen) -> tuple``
    where the tuple holds the hashed PC first (when any feature XORs)
    followed by one value per static slot.  Emission mirrors
    :func:`repro.core.features.compile_fused` statement for statement
    so the two stay bit-identical.
    """
    key = (slots, needs_h)
    cached = _SHARED_CACHE.get(key)
    if cached is not None:
        return cached

    env: Dict[str, Any] = {"_hp": _hashed_pc, "_hc": _PC_HASH_CACHE}
    lines: List[str] = []
    exprs: List[str] = []
    if needs_h:
        lines.append("_h = _hc.get(pc)")
        lines.append("if _h is None: _h = _hp(pc)")
        exprs.append("_h")

    depths = sorted({
        int(slot[1][0][2:])
        for slot in slots
        if slot[0] in ("s", "sx") and slot[1][0].startswith("pd")
    })
    for depth in depths:
        lines.append(f"_i{depth} = hbase - {depth}")
        lines.append(
            f"_pd{depth} = history[_i{depth}] "
            f"if 0 <= _i{depth} < hlen else 0"
        )

    sources = {"pc": "pc", "addr": "address", "off": "offset"}
    sources.update({f"pd{d}": f"_pd{d}" for d in depths})
    raw_exprs: Dict[Tuple, str] = {}

    def value_expr(raw_key: Tuple) -> str:
        known = raw_exprs.get(raw_key)
        if known is not None:
            return known
        source, lo, hi, bits = raw_key
        name = sources[source]
        width = hi - lo + 1
        slice_mask = (1 << width) - 1
        sliced = (f"({name} >> {lo}) & {slice_mask}" if lo
                  else f"{name} & {slice_mask}")
        if width <= bits:
            raw_exprs[raw_key] = sliced
            return sliced
        k = len(raw_exprs)
        memo: dict = {}
        env[f"_g{k}"] = memo.get
        env[f"_f{k}"] = _fold_into(bits, memo)
        lines.append(f"_s{k} = {sliced}")
        lines.append(f"_v{k} = _g{k}(_s{k})")
        lines.append(f"if _v{k} is None: _v{k} = _f{k}(_s{k})")
        raw_exprs[raw_key] = f"_v{k}"
        return f"_v{k}"

    xor_mask = MAX_TABLE_SIZE - 1
    for slot in slots:
        kind = slot[0]
        if kind == "s":
            exprs.append(value_expr(slot[1]))
        else:  # "sx"
            exprs.append(f"(({value_expr(slot[1])}) ^ _h) & {xor_mask}")

    body = "\n    ".join(lines + [f"return ({', '.join(exprs)},)"]) \
        if exprs else "return ()"
    source_text = (
        f"def _shared(pc, address, offset, hbase, history, hlen):\n"
        f"    {body}\n"
    )
    exec(compile(source_text, "<batch-shared>", "exec"), env)  # noqa: S102
    shared = env["_shared"]
    shared.__source__ = source_text
    if len(_SHARED_CACHE) > 256:
        _SHARED_CACHE.clear()
    _SHARED_CACHE[key] = shared
    return shared


def _compile_eval(entries: Tuple[Tuple, ...],
                  weights: Sequence[List[int]]) -> Callable:
    """Compile one candidate's fused index+predict function.

    ``fn(sv, ins, mru, lm) -> (indices, total)`` reads the shared slot
    tuple ``sv`` plus the three candidate-state bits and returns the
    per-feature index list (what a sampler entry stores) and the raw
    weight sum (saturated by the caller).  The candidate's weight lists
    are bound into the function's globals, so the summation is a flat
    chain of list subscripts.
    """
    code = _EVAL_CODE_CACHE.get(entries)
    if code is None:
        mask = MAX_TABLE_SIZE - 1
        lines = []
        for f, entry in enumerate(entries):
            kind = entry[0]
            if kind == "slot":
                expr = f"sv[{entry[1]}]"
            elif kind == "const0":
                expr = "0"
            else:  # ("dyn", family, xor_pc)
                var = _DYNAMIC_VARS[entry[1]]
                expr = f"({var} ^ sv[0]) & {mask}" if entry[2] else var
            lines.append(f"_i{f} = {expr}")
        names = [f"_i{f}" for f in range(len(entries))]
        total = " + ".join(f"_W{f}[_i{f}]" for f in range(len(entries)))
        body = "\n    ".join(
            lines + [f"return [{', '.join(names)}], {total}"]
        )
        source_text = f"def _eval(sv, ins, mru, lm):\n    {body}\n"
        code = compile(source_text, "<batch-eval>", "exec")
        if len(_EVAL_CODE_CACHE) > 1024:
            _EVAL_CODE_CACHE.clear()
        _EVAL_CODE_CACHE[entries] = code
    env: Dict[str, Any] = {
        f"_W{f}": table for f, table in enumerate(weights)
    }
    exec(code, env)  # noqa: S102
    return env["_eval"]


def _build_programs(
    feature_sets: Sequence[Sequence[Feature]],
) -> Tuple[Callable, List[Tuple[Tuple, ...]], bool, Tuple[Tuple, ...]]:
    """Shared function + per-candidate entry layouts for a batch.

    Static descriptors are deduplicated across the union of all
    candidates' features; each candidate's entries reference shared
    slot positions (offset by one when slot 0 holds the PC hash).
    The slot list itself is returned too so the columnar kernel
    (:mod:`repro.sim.kernel`) can lower the same layout to arrays.
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
    shared = _compile_shared(tuple(slots), needs_h)
    return shared, entry_sets, needs_h, tuple(slots)


# -- the batched simulator -------------------------------------------------


class BatchLLCSimulator:
    """Replays one LLC stream against K MPPPB candidates in one pass.

    Equivalent to constructing K :class:`~repro.sim.llc.LLCSimulator`
    instances over the same stream, but the per-access stream decode
    and candidate-invariant feature context are computed once and
    broadcast.  Candidates must share geometry and sampler layout
    (guaranteed when they come from one
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
        self._shared_fn, self._entry_sets, self._needs_h, self._slots = (
            _build_programs(
                [policy.config.features for policy in policies]
            )
        )

    # -- phase 1: candidate-invariant stream decode ---------------------

    def _shared_pass(
        self, stream: Sequence[LLCAccess], pc_trace: Sequence[int]
    ) -> Tuple[array, array, array, array, bytearray, List[tuple]]:
        set_mask = self.num_sets - 1
        mapper = self.policies[0].sampler.mapper
        sampler_index = mapper.sampler_index
        tag_bits = self.policies[0].sampler.tag_bits
        shared_fn = self._shared_fn
        hlen = len(pc_trace)

        blocks = array("q")
        set_idxs = array("q")
        tags = array("q")
        samp_idxs = array("q")
        prefetch = bytearray()
        slot_values: List[tuple] = []
        append_sv = slot_values.append
        for access in stream:
            block = access.block
            offset = access.offset
            set_idx = block & set_mask
            blocks.append(block)
            set_idxs.append(set_idx)
            tags.append(partial_tag(block, tag_bits))
            samp_idxs.append(sampler_index(set_idx))
            pf = access.is_prefetch
            prefetch.append(1 if pf else 0)
            # Same address reconstruction and history base the
            # sequential replay loads into its AccessContext
            # (repro.sim.llc uses the 64-byte block shift throughout).
            append_sv(shared_fn(
                access.pc, (block << 6) | offset, offset,
                access.mem_index + (1 if pf else 0), pc_trace, hlen,
            ))
        return blocks, set_idxs, tags, samp_idxs, prefetch, slot_values

    # -- phase 2: per-candidate replay -----------------------------------

    def _replay(
        self,
        k: int,
        blocks: array,
        set_idxs: array,
        tags: array,
        samp_idxs: array,
        prefetch: bytearray,
        slot_values: List[tuple],
        warmup: int,
    ) -> LLCResult:
        policy = self.policies[k]
        cache = self.caches[k]
        evalf = _compile_eval(self._entry_sets[k], policy.predictor._weights)
        # Hoist every per-access lookup, mirroring LLCSimulator.run.
        where = cache._where
        cache_tags = cache.tags
        invalid_way = cache.invalid_way
        install = cache.install
        sampler_access = policy.sampler.access
        default = policy.default
        default_on_hit = default.on_hit
        default_on_evict = default.on_evict
        choose_victim = default.choose_victim
        is_mru = default.is_mru
        place = default.place
        config = policy.config
        tau_bypass = config.tau_bypass
        tau_1, tau_2, tau_3 = config.taus
        p_1, p_2, p_3 = config.placements
        tau_no_promote = config.tau_no_promote
        mru_position = policy._mru_position
        conf_max, conf_min = CONFIDENCE_MAX, CONFIDENCE_MIN

        last_was_miss = [False] * self.num_sets
        warm = LLCStats()
        measured = LLCStats()
        outcomes: List[bool] = []
        append_outcome = outcomes.append
        bypasses = 0
        suppressed = 0
        for index, block in enumerate(blocks):
            stats = measured if index >= warmup else warm
            set_idx = set_idxs[index]
            way = where[set_idx].get(block, -1)
            hit = way >= 0
            lm = 1 if last_was_miss[set_idx] else 0
            if hit:
                mru = 1 if is_mru(set_idx, way) else 0
                indices, total = evalf(slot_values[index], 0, mru, lm)
            else:
                indices, total = evalf(slot_values[index], 1, 0, lm)
            if total > conf_max:
                confidence = conf_max
            elif total < conf_min:
                confidence = conf_min
            else:
                confidence = total
            sampler_idx = samp_idxs[index]
            if sampler_idx >= 0:
                sampler_access(sampler_idx, tags[index], indices, confidence)
            stats.accesses += 1
            pf = prefetch[index]
            if not pf:
                stats.demand_accesses += 1
            if hit:
                stats.hits += 1
                if not pf:
                    stats.demand_hits += 1
                if confidence > tau_no_promote:
                    suppressed += 1
                else:
                    default_on_hit(set_idx, way, None)
            else:
                stats.misses += 1
                if not pf:
                    stats.demand_misses += 1
                if confidence > tau_bypass:
                    bypasses += 1
                    stats.bypasses += 1
                else:
                    fill_way = invalid_way(set_idx)
                    if fill_way < 0:
                        fill_way = choose_victim(set_idx, None)
                        default_on_evict(
                            set_idx, fill_way, cache_tags[set_idx][fill_way]
                        )
                        stats.evictions += 1
                    install(set_idx, fill_way, block)
                    if confidence > tau_1:
                        position = p_1
                    elif confidence > tau_2:
                        position = p_2
                    elif confidence > tau_3:
                        position = p_3
                    else:
                        position = mru_position
                    place(set_idx, fill_way, position)
            last_was_miss[set_idx] = not hit
            append_outcome(hit)
        policy.bypasses += bypasses
        policy.promotions_suppressed += suppressed
        return LLCResult(outcomes=outcomes, stats=measured, warm_stats=warm)

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
        them.

        Unless ``REPRO_STAGE2_KERNEL`` is ``off`` (or no C compiler
        is available), the replay runs through the C kernel of
        :mod:`repro.sim.kernel` instead of the per-access Python loop;
        the kernel declines (returns ``None``) on unsupported
        preconditions and this path then falls back to the bytecode
        replay, so results are identical either way.
        """
        replays = None
        from repro.sim.kernel import replay_batch, stage2_kernel_backend

        if stage2_kernel_backend() != "off":
            replays = replay_batch(self, stream, pc_trace, warmup)
        if replays is None:
            columns = self._shared_pass(stream, pc_trace)
            replays = [
                self._replay(k, *columns, warmup)
                for k in range(len(self.policies))
            ]
        if obs.enabled():
            # Same once-per-replay aggregate flush as LLCSimulator.run;
            # the inlined batch kernel itself stays instrumentation-free.
            for policy, result in zip(self.policies, replays):
                flush_llc_metrics(result.stats, policy)
        return replays
