"""Lowered Perceptron/Hawkeye stream columns vs their scalar reference.

The two fig6 baselines hash only stream-derived inputs (PCs, the
PC history, block tags), so ``bind_stream`` lowers that hashing to
numpy columns once per replay.  Three contracts:

* **Columns** — every :func:`~repro.sim.kernel.columns.perceptron_rows`
  row equals ``PerceptronPredictor.feature_indices`` and every
  :func:`~repro.sim.kernel.columns.pc_hash_column` entry equals
  ``HawkeyePredictor._index``, over adversarial streams (prefetches,
  history-edge ``mem_index`` values, empty PC traces, values at and
  beyond ``2**63``).
* **Replay** — an :class:`~repro.sim.llc.LLCSimulator` replay with the
  hook matches one with the hook disabled in outcomes, stats, weight
  tables, counters and replacement state.
* **Scope** — the columns belong to one replay: a predictor driven
  again afterwards (ROC probe, direct ``on_llc_access``) never reads
  another stream's rows.
"""

import os
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.access import AccessContext
from repro.predictors.hawkeye import HawkeyePolicy, HawkeyePredictor
from repro.predictors.perceptron import PerceptronPolicy, PerceptronPredictor
from repro.sim import kernel as kernel_mod
from repro.sim.llc import LLCAccess, LLCSimulator
from repro.sim.roc import measure_roc

np = pytest.importorskip("numpy")

from repro.sim.kernel import columns as columns_mod  # noqa: E402

SETS = 8
WAYS = 4
CAPACITY = SETS * WAYS * 64
INT64_MAX = (1 << 63) - 1

_small = st.integers(0, 1 << 12)
_near_edge = st.integers(INT64_MAX - 1024, INT64_MAX)
_beyond = st.integers(1 << 63, (1 << 64) - 1)


@st.composite
def streams(draw):
    """(stream, pc_trace): an LLC stream over a small PC/block pool.

    Half the streams stay within ``int64`` (the lowered path); the
    other half may hold values beyond it (the per-access fallback).
    """
    values = st.one_of(_small, _near_edge)
    if draw(st.booleans()):
        values = st.one_of(values, _beyond)
    pcs = draw(st.lists(values, min_size=1, max_size=6))
    blocks = draw(st.lists(values, min_size=1, max_size=12))
    pc_trace = draw(st.one_of(st.just([]),
                              st.lists(st.sampled_from(pcs), max_size=16)))
    length = draw(st.integers(1, 120))
    stream = []
    for index in range(length):
        prefetch = draw(st.booleans())
        # mem_index 0-3 sits at the history's lower edge; values past
        # the trace's end probe its upper edge.
        mem_index = draw(st.one_of(st.integers(0, 3),
                                   st.integers(0, len(pc_trace) + 2)))
        stream.append(LLCAccess(
            pc=draw(st.sampled_from(pcs)), block=draw(st.sampled_from(blocks)),
            offset=0, is_write=False, is_prefetch=prefetch,
            mem_index=mem_index, instr_index=index))
    return stream, pc_trace


def _contexts(stream, pc_trace):
    for index, access in enumerate(stream):
        yield AccessContext(
            pc=access.pc, address=(access.block << 6) | access.offset,
            block=access.block, offset=access.offset,
            is_prefetch=access.is_prefetch, stream_index=index,
            pc_history=pc_trace, history_index=access.mem_index)


def _fits_int64(stream, pc_trace):
    values = [a.pc for a in stream] + [a.block for a in stream] + pc_trace
    return all(v <= INT64_MAX for v in values)


class TestColumnsMatchScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(streams())
    def test_perceptron_rows(self, case):
        stream, pc_trace = case
        predictor = PerceptronPredictor(SETS)
        rows = columns_mod.perceptron_rows(stream, pc_trace,
                                           predictor.table_bits)
        if not _fits_int64(stream, pc_trace):
            assert rows is None   # caller keeps hashing per access
            return
        assert rows == [predictor.feature_indices(ctx)
                        for ctx in _contexts(stream, pc_trace)]

    @settings(max_examples=150, deadline=None)
    @given(streams())
    def test_hawkeye_index_column(self, case):
        stream, _ = case
        predictor = HawkeyePredictor(SETS, WAYS)
        column = columns_mod.pc_hash_column(stream, predictor.table_bits)
        if any(a.pc > INT64_MAX for a in stream):
            assert column is None
            return
        assert column == [predictor._index(a.pc) for a in stream]


def _replay(policy, stream, pc_trace, lowered):
    if not lowered:
        # Instance attribute shadows the method: the scalar reference.
        policy.bind_stream = lambda stream, pc_trace: nullcontext()
    sim = LLCSimulator(CAPACITY, WAYS, policy)
    with mock.patch.dict(os.environ):
        os.environ.pop("REPRO_STAGE2_KERNEL", None)
        return sim.run(stream, pc_trace=pc_trace, warmup=len(stream) // 4)


def _bound_column(predictor):
    if isinstance(predictor, PerceptronPredictor):
        return predictor._rows
    return predictor._column


def _perceptron():
    return PerceptronPolicy(SETS, WAYS, PerceptronPredictor(
        SETS, sampler_sets=SETS, sampler_ways=4, theta=4))


def _hawkeye():
    return HawkeyePolicy(SETS, WAYS,
                         HawkeyePredictor(SETS, WAYS, sampler_sets=SETS))


class TestLoweredReplayIsBitIdentical:
    @settings(max_examples=80, deadline=None)
    @given(streams())
    def test_perceptron_replay(self, case):
        stream, pc_trace = case
        lowered, scalar = _perceptron(), _perceptron()
        got = _replay(lowered, stream, pc_trace, lowered=True)
        want = _replay(scalar, stream, pc_trace, lowered=False)
        assert got.outcomes == want.outcomes
        assert got.stats == want.stats
        assert got.warm_stats == want.warm_stats
        assert lowered.predictor.tables == scalar.predictor.tables
        assert lowered._reuse_bit == scalar._reuse_bit

    @settings(max_examples=80, deadline=None)
    @given(streams())
    def test_hawkeye_replay(self, case):
        stream, pc_trace = case
        lowered, scalar = _hawkeye(), _hawkeye()
        got = _replay(lowered, stream, pc_trace, lowered=True)
        want = _replay(scalar, stream, pc_trace, lowered=False)
        assert got.outcomes == want.outcomes
        assert got.stats == want.stats
        assert got.warm_stats == want.warm_stats
        assert lowered.predictor.counters == scalar.predictor.counters
        assert lowered.rrpvs == scalar.rrpvs
        assert lowered._load_index == scalar._load_index

    def test_hook_is_actually_used(self, monkeypatch):
        """The replays above compare two different paths: inside run()
        the predictors hold lowered columns, and drop them on exit."""
        monkeypatch.delenv("REPRO_STAGE2_KERNEL", raising=False)
        stream = _stream(8)
        for policy in (_perceptron(), _hawkeye()):
            seen = []
            original = policy.on_hit

            def spy(set_idx, way, ctx, policy=policy, original=original):
                seen.append(_bound_column(policy.predictor))
                original(set_idx, way, ctx)

            policy.on_hit = spy
            LLCSimulator(CAPACITY, WAYS, policy).run(stream)
            assert seen and all(column is not None for column in seen)
            assert _bound_column(policy.predictor) is None

    def test_kernel_off_keeps_scalar_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_STAGE2_KERNEL", "off")
        assert not kernel_mod.stream_columns_enabled()
        predictor = PerceptronPredictor(SETS)
        with predictor.bind_stream([], []):
            assert predictor._rows is None
        monkeypatch.setenv("REPRO_STAGE2_KERNEL", "numpy")
        assert kernel_mod.stream_columns_enabled()


def _stream(seed, length=300):
    state = seed
    out = []
    for index in range(length):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        out.append(LLCAccess(
            pc=0x400 + 4 * (state % 13), block=(state >> 20) % 64,
            offset=0, is_write=False, is_prefetch=state % 7 == 0,
            mem_index=index, instr_index=index))
    return out


class TestColumnsAreScopedToOneReplay:
    """A predictor reused across two different streams must hash the
    second stream itself, never read the first stream's columns."""

    def _trained_pair(self, make, stream, pc_trace):
        lowered, scalar = make(), make()
        _replay(lowered, stream, pc_trace, lowered=True)
        _replay(scalar, stream, pc_trace, lowered=False)
        return lowered.predictor, scalar.predictor

    def test_perceptron_reused_by_roc_probe(self):
        first, second = _stream(1), _stream(2)
        first_pcs = [a.pc for a in first]
        second_pcs = [a.pc for a in second]
        reused, reference = self._trained_pair(_perceptron, first, first_pcs)
        got = measure_roc(reused, second, second_pcs, CAPACITY, WAYS)
        want = measure_roc(reference, second, second_pcs, CAPACITY, WAYS)
        assert got.confidences == want.confidences
        assert reused.tables == reference.tables

    def test_perceptron_reused_by_direct_calls(self):
        first, second = _stream(3), _stream(4)
        reused, reference = self._trained_pair(
            _perceptron, first, [a.pc for a in first])
        second_pcs = [a.pc for a in second]
        for ctx in _contexts(second, second_pcs):
            set_idx = ctx.block % SETS
            assert (reused.on_llc_access(set_idx, ctx, False)
                    == reference.on_llc_access(set_idx, ctx, False))

    def test_hawkeye_reused_by_direct_calls(self):
        first, second = _stream(5), _stream(6)
        reused, reference = self._trained_pair(
            _hawkeye, first, [a.pc for a in first])
        for ctx in _contexts(second, []):
            set_idx = ctx.block % SETS
            assert (reused.on_llc_access(set_idx, ctx, False)
                    == reference.on_llc_access(set_idx, ctx, False))
            assert reused.last_index == reference.last_index
        assert reused.counters == reference.counters

    @pytest.mark.parametrize("make", [_perceptron, _hawkeye])
    def test_columns_dropped_when_replay_raises(self, make, monkeypatch):
        monkeypatch.delenv("REPRO_STAGE2_KERNEL", raising=False)
        policy = make()
        bound = []

        def boom(set_idx, way, ctx):
            bound.append(_bound_column(policy.predictor))
            raise RuntimeError("policy failed mid-replay")

        policy.on_hit = boom
        with pytest.raises(RuntimeError):
            LLCSimulator(CAPACITY, WAYS, policy).run(_stream(7))
        assert bound and bound[0] is not None
        assert _bound_column(policy.predictor) is None
