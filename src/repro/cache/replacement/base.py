"""Replacement-policy interface for the last-level cache.

The LLC simulator drives policies through four events:

1. ``should_bypass(set_idx, ctx)`` — asked on every miss; True keeps
   the block out of the LLC entirely (it is still serviced to the core).
2. ``choose_victim(set_idx, ctx)`` — asked on a miss in a full set.
3. ``on_fill(set_idx, way, ctx)`` — the block was installed; the policy
   sets its placement state (recency position, RRPV, tree bits...).
4. ``on_hit(set_idx, way, ctx)`` — the block was re-referenced; the
   policy applies its promotion rule.

``on_evict`` notifies about evictions (for predictors that train on
them), ``prepare`` hands future knowledge to offline policies
(Belady's MIN), and ``bind_stream`` lets a policy precompute, once per
replay, inputs that depend only on the access stream.  ``is_mru``
exposes the policy's notion of the most-recently-used position, which
the ``burst`` feature needs (Section 3.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import AbstractContextManager, nullcontext
from typing import Sequence

from repro.cache.access import AccessContext


class ReplacementPolicy(ABC):
    """Base class for LLC management policies."""

    name = "base"

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways

    def on_access(
        self, set_idx: int, ctx: AccessContext, hit: bool, way: int
    ) -> None:
        """First hook on *every* access, before any other event.

        Prediction-driven policies compute their confidence and train
        their samplers here, then reuse the result in the subsequent
        ``should_bypass`` / ``on_hit`` / ``on_fill`` calls for the same
        access.  ``way`` is -1 on a miss.
        """

    def should_bypass(self, set_idx: int, ctx: AccessContext) -> bool:
        """Whether to bypass the fill after a miss.  Default: never."""
        return False

    @abstractmethod
    def choose_victim(self, set_idx: int, ctx: AccessContext) -> int:
        """Pick the way to evict from a full set."""

    @abstractmethod
    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        """Apply the placement rule for a newly installed block."""

    @abstractmethod
    def on_hit(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        """Apply the promotion rule for a re-referenced block."""

    def on_evict(self, set_idx: int, way: int, block: int) -> None:
        """Notification that ``block`` was evicted from ``way``."""

    def is_mru(self, set_idx: int, way: int) -> bool:
        """Whether ``way`` currently sits in the policy's MRU position."""
        return False

    def prepare(self, next_uses: Sequence[int]) -> None:
        """Receive future-knowledge metadata (offline policies only)."""

    @property
    def needs_future(self) -> bool:
        """True if :meth:`prepare` must be called before simulation."""
        return False

    def bind_stream(self, stream: Sequence, pc_trace: Sequence[int]
                    ) -> AbstractContextManager:
        """Scope per-stream precomputation to one replay (optional).

        :meth:`repro.sim.llc.LLCSimulator.run` enters the returned
        context once around its replay loop.  A policy whose per-access
        inputs are pure functions of the stream (hashed PCs, PC-history
        features) may lower them to columns on entry and read them by
        ``ctx.stream_index``; it must drop them on exit, so a predictor
        driven again afterwards hashes per access instead of reading
        another stream's rows.  Default: nothing to precompute.
        """
        return nullcontext()


class PolicyStats:
    """Optional bypass/decision counters policies may expose."""

    __slots__ = ("bypasses", "dead_placements", "promotions_suppressed")

    def __init__(self) -> None:
        self.bypasses = 0
        self.dead_placements = 0
        self.promotions_suppressed = 0
