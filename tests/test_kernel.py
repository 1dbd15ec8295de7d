"""Columnar Stage-2 kernel: lowering, the C replay, knob, and fallbacks.

Three contracts, each pinned independently:

* **Lowering** — :func:`repro.sim.kernel.columns.lower_stream` must
  reproduce the batch engine's scalar shared pass column for column
  (blocks, set indices, partial tags, sampler sets, prefetch flags,
  and every deduplicated static feature slot).
* **Replay** — the C kernel must finish bit-identical to
  :class:`~repro.sim.llc.LLCSimulator`: outcomes, stats, policy
  counters, sampler entries, and perceptron weights, also when a
  second replay continues on the same policy objects.  A hypothesis
  lockstep drive over adversarial random streams backs the fixed
  workloads.
* **Selection and fallbacks** — ``REPRO_STAGE2_KERNEL`` resolves per
  the knob table; a missing compiler degrades to the Python replay
  with a one-line stderr notice, never an exception; inputs the C code
  cannot index safely, and unsupported cache preconditions, make the
  kernel decline so the batch engine falls back to the Python replay
  with identical results.
"""

import dataclasses
import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.config import TINY
from repro.core.features import parse_feature_set, random_feature_set
from repro.core.mpppb import MPPPBConfig, MPPPBPolicy
from repro.core.presets import TABLE_1A_SPECS, TABLE_1B_SPECS
from repro.sim import kernel as kernel_mod
from repro.sim.batch import BatchLLCSimulator
from repro.sim.hierarchy import UpperLevels
from repro.sim.llc import LLCAccess, LLCSimulator
from repro.traces.workloads import build_segments

np = pytest.importorskip("numpy")

from repro.sim.kernel import columns as columns_mod  # noqa: E402
from repro.sim.kernel import native  # noqa: E402

LLC_BYTES = TINY.hierarchy.llc_bytes
WAYS = TINY.hierarchy.llc_ways
NUM_SETS = LLC_BYTES // (WAYS * 64)
ACCESSES = 2_000


@pytest.fixture(scope="module")
def stage1():
    segment = build_segments("soplex", LLC_BYTES, ACCESSES)[0]
    upper = UpperLevels(TINY.hierarchy).run(segment.trace)
    return upper.llc_stream, segment.trace.pcs


def _configs(seed=7, k=4, default_policy="mdpp"):
    rng = random.Random(seed)
    feature_sets = [
        parse_feature_set(TABLE_1A_SPECS),
        parse_feature_set(TABLE_1B_SPECS),
    ]
    while len(feature_sets) < k:
        feature_sets.append(random_feature_set(rng))
    placements = (15, 13, 10) if default_policy == "mdpp" else (3, 2, 1)
    return [
        MPPPBConfig(features=features, default_policy=default_policy,
                    placements=placements)
        for features in feature_sets[:k]
    ]


def _batch(configs):
    policies = [MPPPBPolicy(NUM_SETS, WAYS, c) for c in configs]
    return BatchLLCSimulator(LLC_BYTES, WAYS, policies)


def _lower(sim, stream, pcs):
    first = sim.policies[0].sampler
    return columns_mod.lower_stream(
        stream, pcs, sim.num_sets, first.mapper._stride,
        first.mapper.sampler_sets, first.tag_bits, sim._slots,
        sim._needs_h,
    )


def _sequential(stream, pcs, config, warmup):
    policy = MPPPBPolicy(NUM_SETS, WAYS, config)
    sim = LLCSimulator(LLC_BYTES, WAYS, policy)
    result = sim.run(stream, pc_trace=pcs, warmup=warmup)
    return result, policy


def _sampler_state(policy):
    return [
        [(e.tag, tuple(e.indices), e.confidence) for e in entries]
        for entries in policy.sampler._sets
    ]


def _assert_identical(result, policy, seq_result, seq_policy):
    assert result.outcomes == seq_result.outcomes
    assert result.stats == seq_result.stats
    assert result.warm_stats == seq_result.warm_stats
    assert policy.bypasses == seq_policy.bypasses
    assert policy.promotions_suppressed == seq_policy.promotions_suppressed
    assert policy.sampler.trainings_live == seq_policy.sampler.trainings_live
    assert policy.sampler.trainings_dead == seq_policy.sampler.trainings_dead
    assert _sampler_state(policy) == _sampler_state(seq_policy)
    assert policy.predictor._weights == seq_policy.predictor._weights


# -- lowering round trip ---------------------------------------------------


def test_columns_match_shared_pass(stage1):
    """Vectorized lowering == the batch engine's scalar shared pass."""
    stream, pcs = stage1
    sim = _batch(_configs(k=4))
    blocks, set_idxs, tags, samp_idxs, prefetch, slot_values = (
        sim._shared_pass(stream, pcs)
    )
    cols = _lower(sim, stream, pcs)
    assert cols.n == len(stream)
    assert cols.blocks.tolist() == list(blocks)
    assert cols.set_idxs.tolist() == list(set_idxs)
    assert cols.tags.tolist() == list(tags)
    assert cols.samp_idxs.tolist() == list(samp_idxs)
    assert cols.prefetch.tolist() == list(prefetch)
    per_access = list(zip(*(col.tolist() for col in cols.cols)))
    assert per_access == slot_values


def test_columns_empty_history_and_stream():
    sim = _batch(_configs(k=2))
    cols = _lower(sim, [], [])
    assert cols.n == 0
    assert cols.blocks.tolist() == []
    access = LLCAccess(pc=0x4000, block=17, offset=8, is_write=False,
                       is_prefetch=False, mem_index=0, instr_index=0)
    blocks, *_rest, slot_values = sim._shared_pass([access], [])
    cols = _lower(sim, [access], [])
    assert cols.blocks.tolist() == list(blocks)
    assert list(zip(*(c.tolist() for c in cols.cols))) == slot_values


def test_mix64_array_matches_scalar():
    from repro.util.hashing import mix64

    raw = [0, 1, 0xDEADBEEF, (1 << 63) + 12345, 2**64 - 1]
    mixed = columns_mod.mix64_array(np.array(raw, dtype=np.uint64))
    assert mixed.tolist() == [mix64(v) for v in raw]


# -- lockstep replay -------------------------------------------------------


def _synthetic_stream(picks):
    """Build an LLC stream + PC trace from hypothesis-drawn tuples."""
    stream = []
    pcs = []
    for i, (pc, block, offset, pf) in enumerate(picks):
        pcs.append(pc)
        stream.append(LLCAccess(pc=pc, block=block, offset=offset,
                                is_write=False, is_prefetch=pf,
                                mem_index=i, instr_index=i))
    return stream, pcs


_access_st = st.tuples(
    st.integers(min_value=0, max_value=2**40).map(lambda v: v << 2),
    # Blocks from a small window so sets conflict, hit, and evict.
    st.integers(min_value=0, max_value=NUM_SETS * (WAYS + 4)),
    st.integers(min_value=0, max_value=63),
    st.booleans(),
)


def _assert_batch_matches_sequential(streams, configs, warmups):
    """Replay ``streams`` one after another through the C kernel, each
    on a fresh simulator over the *same* policy objects (as
    ``replay_segment`` does per segment), against LLCSimulator."""
    policies = [MPPPBPolicy(NUM_SETS, WAYS, c) for c in configs]
    seq_policies = [MPPPBPolicy(NUM_SETS, WAYS, c) for c in configs]
    for (stream, pcs), warmup in zip(streams, warmups):
        sim = BatchLLCSimulator(LLC_BYTES, WAYS, policies)
        results = native.replay_all(sim, _lower(sim, stream, pcs), warmup)
        assert results is not None
        for policy, seq_policy, result in zip(policies, seq_policies,
                                              results):
            seq_sim = LLCSimulator(LLC_BYTES, WAYS, seq_policy)
            seq_result = seq_sim.run(stream, pc_trace=pcs, warmup=warmup)
            _assert_identical(result, policy, seq_result, seq_policy)
            assert sim.caches[policies.index(policy)].tags == \
                seq_sim.cache.tags
            assert sim.caches[policies.index(policy)].valid == \
                seq_sim.cache.valid


class TestLockstep:
    @settings(max_examples=40, deadline=None)
    @given(first=st.lists(_access_st, min_size=1, max_size=120),
           second=st.lists(_access_st, min_size=0, max_size=60),
           warmup=st.integers(min_value=0, max_value=130),
           seed=st.integers(min_value=0, max_value=2**16),
           default_policy=st.sampled_from(["mdpp", "srrip"]))
    def test_c_kernel_lockstep(self, first, second, warmup, seed,
                               default_policy):
        """Random streams: C kernel == LLCSimulator, per access, over
        the warm/measured split and a second replay that continues on
        the same policy objects."""
        configs = _configs(seed=seed, k=2, default_policy=default_policy)
        _assert_batch_matches_sequential(
            [_synthetic_stream(first), _synthetic_stream(second)],
            configs, [warmup, warmup // 2])

    @pytest.mark.parametrize("default_policy", ["mdpp", "srrip"])
    def test_real_workload_lockstep(self, stage1, default_policy):
        """A real workload and three candidates, replayed twice."""
        _assert_batch_matches_sequential(
            [stage1, stage1], _configs(k=3, default_policy=default_policy),
            [500, 0])


# -- backend selection and fallbacks ---------------------------------------


@pytest.fixture
def fresh_notices(monkeypatch):
    """Reset the once-per-process notice dedup so tests can observe it."""
    monkeypatch.setattr(kernel_mod, "_notices_emitted", set())


class TestKnob:
    def test_disabled_values(self, monkeypatch):
        for value in ("off", "0", "false", "no", "none", "OFF"):
            monkeypatch.setenv("REPRO_STAGE2_KERNEL", value)
            assert kernel_mod.stage2_kernel_backend() == "off"

    def test_auto_prefers_best_available(self, monkeypatch):
        for value in (None, "auto", "on"):
            if value is None:
                monkeypatch.delenv("REPRO_STAGE2_KERNEL", raising=False)
            else:
                monkeypatch.setenv("REPRO_STAGE2_KERNEL", value)
            assert kernel_mod.stage2_kernel_backend() == "c"

    def test_unknown_value_degrades_to_auto(self, monkeypatch,
                                            fresh_notices, capsys):
        """Unknown values — the retired numpy/numba backends included —
        resolve like ``auto``, with one notice each."""
        for value in ("gpu", "numpy", "numba"):
            monkeypatch.setenv("REPRO_STAGE2_KERNEL", value)
            assert kernel_mod.stage2_kernel_backend() == "c"
            err = capsys.readouterr().err
            assert f"unknown REPRO_STAGE2_KERNEL={value!r}" in err
            assert err.count("\n") == 1

    def test_missing_compiler_falls_back_to_off(self, stage1, monkeypatch,
                                                fresh_notices, capsys):
        """No ``cc``: one notice, ``off``, and identical batch results."""
        stream, pcs = stage1
        configs = _configs(k=2)
        kernel_sim = _batch(configs)
        kernel_results = kernel_sim.run(stream, pc_trace=pcs, warmup=300)

        monkeypatch.delenv("REPRO_STAGE2_KERNEL", raising=False)
        monkeypatch.setattr(native, "_compiler", lambda: None)
        monkeypatch.setattr(native, "_kernel", None)
        monkeypatch.setattr(native, "_load_error", None)
        assert kernel_mod.stage2_kernel_backend() == "off"
        assert kernel_mod.stage2_kernel_backend() == "off"
        err = capsys.readouterr().err
        assert "C kernel unavailable" in err
        assert err.count("\n") == 1  # exactly one line, deduplicated
        sim = _batch(configs)
        results = sim.run(stream, pc_trace=pcs, warmup=300)
        assert results == kernel_results
        for policy, kernel_policy in zip(sim.policies, kernel_sim.policies):
            assert _sampler_state(policy) == _sampler_state(kernel_policy)
            assert policy.predictor._weights == \
                kernel_policy.predictor._weights

    def test_missing_numpy_disables_kernel(self, monkeypatch,
                                           fresh_notices, capsys):
        monkeypatch.setattr(kernel_mod, "_np", None)
        monkeypatch.delenv("REPRO_STAGE2_KERNEL", raising=False)
        assert kernel_mod.stage2_kernel_backend() == "off"
        assert "falling back to the Python replay" in capsys.readouterr().err
        assert kernel_mod.replay_batch(None, [], [], 0) is None

    def test_available_backends_report(self):
        assert kernel_mod.available_backends() == {"c": True}

    def test_library_is_cached_by_content(self):
        """The build lands in the package's __pycache__ under its hash
        and a second build reuses it."""
        path = native._build(native._compiler())
        assert path.parent == native._SOURCE.parent / "__pycache__"
        assert len(path.stem) == 64
        mtime = path.stat().st_mtime_ns
        assert native._build(native._compiler()) == path
        assert path.stat().st_mtime_ns == mtime


class TestFallbacks:
    def test_non_prefix_validity_declines(self, stage1):
        """Oddly-shaped cache state makes the kernel decline, and the
        batch engine's Python fallback still reproduces the sequential
        results from that same state."""
        stream, pcs = stage1
        config = _configs(k=1)[0]
        sim = _batch([config])
        # Install into way 1 of set 0, leaving way 0 invalid: validity
        # is no longer a prefix, which the columnar fill cursor cannot
        # represent.
        sim.caches[0].install(0, 1, NUM_SETS * 5)
        assert native.prefix_fills(sim.caches[0]) is None
        cols = _lower(sim, stream, pcs)
        assert native.replay_all(sim, cols, 100) is None
        results = sim.run(stream, pc_trace=pcs, warmup=100)

        seq_policy = MPPPBPolicy(NUM_SETS, WAYS, config)
        seq_sim = LLCSimulator(LLC_BYTES, WAYS, seq_policy)
        seq_sim.cache.install(0, 1, NUM_SETS * 5)
        seq_result = seq_sim.run(stream, pc_trace=pcs, warmup=100)
        _assert_identical(results[0], sim.policies[0], seq_result,
                          seq_policy)

    def _assert_declines(self, stage1, configs, monkeypatch):
        """``sim.run`` reaches the kernel, which declines before touching
        any state; the Python fallback matches LLCSimulator."""
        stream, pcs = stage1
        returned = []
        original = native.replay_all

        def spy(sim, cols, warmup):
            assert all(not row for row in sim.policies[0].sampler._sets)
            returned.append(original(sim, cols, warmup))
            assert all(not row for row in sim.policies[0].sampler._sets)
            return returned[-1]

        monkeypatch.setattr(native, "replay_all", spy)
        sim = _batch(configs)
        results = sim.run(stream, pc_trace=pcs, warmup=200)
        assert returned == [None]
        for config, policy, result in zip(configs, sim.policies, results):
            seq_result, seq_policy = _sequential(stream, pcs, config, 200)
            _assert_identical(result, policy, seq_result, seq_policy)

    def test_out_of_range_column_declines(self, stage1, monkeypatch):
        """A slot column index beyond its weight table: C would read out
        of bounds, so the preflight declines."""
        lower = columns_mod.lower_stream

        def corrupt(*args, **kwargs):
            cols = lower(*args, **kwargs)
            bad = cols.cols[-1].copy()
            bad[len(bad) // 2] = 1 << 20
            cols.cols[-1] = bad
            return cols

        monkeypatch.setattr(columns_mod, "lower_stream", corrupt)
        self._assert_declines(stage1, _configs(k=2), monkeypatch)

    def test_float_threshold_declines(self, stage1, monkeypatch):
        """The C ABI takes int64 thresholds; a float would be truncated."""
        configs = _configs(k=2)
        configs[1] = dataclasses.replace(configs[1], tau_bypass=110.5)
        self._assert_declines(stage1, configs, monkeypatch)

    def test_batch_run_uses_kernel(self, stage1, monkeypatch):
        """BatchLLCSimulator.run really routes through the kernel."""
        stream, pcs = stage1
        monkeypatch.delenv("REPRO_STAGE2_KERNEL", raising=False)
        calls = []
        original = native.replay_all

        def spy(sim, cols, warmup):
            calls.append(warmup)
            return original(sim, cols, warmup)

        monkeypatch.setattr(native, "replay_all", spy)
        sim = _batch(_configs(k=2))
        sim.run(stream, pc_trace=pcs, warmup=250)
        assert calls == [250]
