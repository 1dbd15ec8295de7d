"""Cross-module property-based tests (hypothesis).

Each property pins an invariant of the system rather than a single
behavior: replacement-policy state machines never corrupt, predictors
never leave their numeric ranges, and the cache never reports
impossible statistics — for *any* access sequence.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.access import AccessContext
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.mdpp import MDPPPolicy
from repro.cache.replacement.srrip import SRRIPPolicy
from repro.core.features import random_feature_set
from repro.core.mpppb import MPPPBConfig, MPPPBPolicy
from repro.core.predictor import (
    CONFIDENCE_MAX,
    CONFIDENCE_MIN,
    MultiperspectivePredictor,
)
from repro.core.tables import WEIGHT_MAX, WEIGHT_MIN
from repro.policies import make_policy
from repro.sim.llc import LLCAccess, LLCSimulator

SETS, WAYS = 4, 4
CAPACITY = SETS * WAYS * 64

block_lists = st.lists(st.integers(min_value=0, max_value=63),
                       min_size=1, max_size=250)


def make_stream(blocks):
    return [
        LLCAccess(pc=0x400 + 4 * (b % 8), block=b, offset=8 * (b % 8),
                  is_write=bool(b % 5 == 0), is_prefetch=False,
                  mem_index=i, instr_index=3 * i)
        for i, b in enumerate(blocks)
    ]


class TestCacheOccupancyProperties:
    @settings(max_examples=25, deadline=None)
    @given(block_lists)
    def test_resident_blocks_unique_per_set(self, blocks):
        sim = LLCSimulator(CAPACITY, WAYS, LRUPolicy(SETS, WAYS))
        sim.run(make_stream(blocks))
        for set_idx in range(SETS):
            tags = [t for _, t in sim.cache.resident_blocks(set_idx)]
            assert len(tags) == len(set(tags))
            assert all(t & (SETS - 1) == set_idx for t in tags)

    @settings(max_examples=25, deadline=None)
    @given(block_lists)
    def test_second_access_to_resident_block_hits(self, blocks):
        """Immediately repeating an access always hits (no bypass)."""
        doubled = [b for block in blocks for b in (block, block)]
        sim = LLCSimulator(CAPACITY, WAYS, LRUPolicy(SETS, WAYS))
        outcomes = sim.run(make_stream(doubled)).outcomes
        assert all(outcomes[i] for i in range(1, len(outcomes), 2))


class TestPolicyStateProperties:
    @settings(max_examples=25, deadline=None)
    @given(block_lists)
    def test_srrip_rrpvs_stay_in_range(self, blocks):
        policy = SRRIPPolicy(SETS, WAYS)
        sim = LLCSimulator(CAPACITY, WAYS, policy)
        sim.run(make_stream(blocks))
        for rrpvs in policy.rrpvs:
            assert all(0 <= r <= policy.rrpv_max for r in rrpvs)

    @settings(max_examples=25, deadline=None)
    @given(block_lists)
    def test_mdpp_positions_stay_in_range(self, blocks):
        policy = MDPPPolicy(SETS, 16)
        sim = LLCSimulator(SETS * 16 * 64, 16, policy)
        stream = make_stream(blocks)
        sim.run(stream)
        for set_idx in range(SETS):
            for way in range(16):
                assert 0 <= policy.position(set_idx, way) <= 15

    @settings(max_examples=25, deadline=None)
    @given(block_lists)
    def test_lru_stack_is_permutation_of_filled_ways(self, blocks):
        policy = LRUPolicy(SETS, WAYS)
        sim = LLCSimulator(CAPACITY, WAYS, policy)
        sim.run(make_stream(blocks))
        for set_idx in range(SETS):
            stack = policy.stack(set_idx)
            assert len(stack) == len(set(stack))
            resident = {w for w, _ in sim.cache.resident_blocks(set_idx)}
            assert set(stack) == resident


class TestPredictorNumericProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), block_lists)
    def test_random_feature_predictor_bounded(self, seed, blocks):
        features = random_feature_set(random.Random(seed), size=8)
        predictor = MultiperspectivePredictor(features)
        for i, block in enumerate(blocks):
            ctx = AccessContext(
                pc=0x400 + 4 * (block % 8), address=block << 6, block=block,
                offset=8 * (block % 8), is_insert=bool(block % 2),
                is_mru_hit=bool(block % 3 == 0), last_was_miss=bool(block % 7),
            )
            indices = predictor.indices(ctx)
            assert all(
                0 <= idx < feature.table_size
                for idx, feature in zip(indices, features)
            )
            confidence = predictor.predict(indices)
            assert CONFIDENCE_MIN <= confidence <= CONFIDENCE_MAX

    @settings(max_examples=10, deadline=None)
    @given(block_lists)
    def test_mpppb_weights_bounded_after_traffic(self, blocks):
        config = MPPPBConfig(
            features=random_feature_set(random.Random(3), size=8),
            sampler_sets=SETS,
        )
        policy = MPPPBPolicy(SETS, 16, config)
        sim = LLCSimulator(SETS * 16 * 64, 16, policy)
        sim.run(make_stream(blocks))
        for table in policy.predictor.tables:
            assert all(WEIGHT_MIN <= w <= WEIGHT_MAX for w in table.weights)
        for entries in policy.sampler._sets:
            assert len(entries) <= policy.sampler.ways


class TestUniversalPolicyProperties:
    @settings(max_examples=10, deadline=None)
    @given(block_lists, st.sampled_from(
        ["lru", "srrip", "mdpp", "plru", "random", "ship", "sdbp"]))
    def test_any_policy_produces_consistent_stats(self, blocks, name):
        sim = LLCSimulator(CAPACITY, WAYS, make_policy(name, SETS, WAYS))
        result = sim.run(make_stream(blocks))
        stats = result.stats
        assert stats.accesses == len(blocks)
        assert stats.hits + stats.misses == stats.accesses
        assert 0 <= stats.bypasses <= stats.misses
        assert stats.evictions <= stats.misses


MIN_SETS, MIN_WAYS = 8, 16
MIN_BOUNDED = ("lru", "srrip", "drrip", "plru", "random", "brrip",
               "hawkeye", "perceptron", "sdbp", "ship", "mdpp",
               "mpppb-1a", "mpppb-1b")


def random_llc_stream(seed, length, footprint, prefetch_rate):
    """An LLC stream over ``footprint`` blocks, with a hot quarter that
    takes half the accesses so there is reuse to predict."""
    rng = random.Random(seed)
    hot = max(1, footprint // 4)
    stream = []
    for i in range(length):
        block = (rng.randrange(hot) if rng.random() < 0.5
                 else rng.randrange(footprint))
        stream.append(LLCAccess(
            pc=0x400 + 4 * (block % 16 if rng.random() < 0.8
                            else rng.randrange(16)),
            block=block, offset=rng.randrange(64), is_write=False,
            is_prefetch=rng.random() < prefetch_rate, mem_index=i,
            instr_index=i))
    return stream


class TestMinBoundProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=1, max_value=600),
           st.sampled_from([1, 2, 4]),
           st.sampled_from([0.0, 0.2, 0.5]))
    def test_min_total_misses_bound_every_policy(self, seed, length,
                                                 capacities, prefetch_rate):
        """MIN with optimal bypass never misses more than any policy.

        Every policy replays through ``replay_segment`` (MPPPB on the
        C kernel) with no warmup.  Total misses, because MIN minimizes
        the total, not a measured suffix.
        """
        from repro.sim.single import replay_segment

        stream = random_llc_stream(seed, length,
                                   capacities * MIN_SETS * MIN_WAYS,
                                   prefetch_rate)
        pcs = [access.pc for access in stream]

        def misses(name):
            policy = make_policy(name, MIN_SETS, MIN_WAYS)
            result = replay_segment(MIN_SETS * MIN_WAYS * 64, MIN_WAYS,
                                    policy, 64, stream, pcs, 0)
            return result.stats.misses

        bound = misses("min")
        for name in MIN_BOUNDED:
            assert bound <= misses(name), name
