"""Persistent, measured cost model for the experiment-graph scheduler.

Every load-vs-compute decision needs two numbers per artifact node:

* **compute cost** — seconds to recreate the artifact from its parents,
  modeled as a per-kind *rate* (seconds per trace access) times the
  node's access count.  Rates start from conservative defaults and are
  refined with an EWMA from measured timings: the planner's prelude
  cells time their trace-gen/Stage-1 work (the same regions the
  ``trace-gen``/``stage1`` telemetry spans cover) and feed the
  observations back here.
* **load cost** — seconds to deserialize the materialized blob, modeled
  as a fixed per-read overhead plus ``blob_bytes / read_bps`` where
  ``read_bps`` is the store's measured read throughput (EWMA over the
  byte/time counters the :class:`~repro.exec.artifacts.ArtifactCache`
  records on every blob read).

The model is itself persisted in the :class:`~repro.exec.store.
ResultStore` under a well-known key, so costs learned in one run
refine the plans of every later run against the same cache directory.
Absence, corruption, schema drift, or eviction of the blob all degrade
to the defaults — the cost model can never take a run down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.exec.cachekey import wellknown_key
from repro.exec.store import ResultStore

#: ResultStore key of the persisted model (one singleton blob per cache).
COSTS_KEY = wellknown_key("graph-costs")

#: Payload ``kind`` stamp; foreign blobs under the key are ignored.
COSTS_KIND = "graph-costs"

#: Conservative default compute rates, seconds per trace access.
#: Deliberately high relative to the load path so a cold cost model
#: reproduces the pre-scheduler behavior (always load what exists).
DEFAULT_RATES: Dict[str, float] = {"trace": 4e-6, "stage1": 6e-6}

#: Default store read throughput (bytes/second) before any measurement.
DEFAULT_READ_BPS = 200e6

#: Fixed per-read overhead: open/stat/frame-validation, independent of size.
READ_OVERHEAD_S = 3e-4

#: EWMA smoothing weight for new observations.
EWMA_ALPHA = 0.3

#: Rough serialized size per trace access, used to estimate the load
#: cost of artifacts that are not materialized yet (RPA1 framing:
#: trace packs 25 B/access, Stage-1 streams ~50 B/access).
BYTES_PER_ACCESS: Dict[str, int] = {"trace": 25, "stage1": 50}


@dataclass
class CostModel:
    """EWMA-refined per-kind compute rates plus store read throughput."""

    rates: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_RATES))
    read_bps: float = DEFAULT_READ_BPS
    samples: int = 0

    # -- estimation --------------------------------------------------------

    def compute_cost(self, kind: str, accesses: int) -> float:
        """Predicted seconds to recreate a node from ready parents."""
        return self.rates.get(kind, 0.0) * max(accesses, 0)

    def load_cost(self, blob_bytes: int) -> float:
        """Predicted seconds to read + decode a materialized blob."""
        return READ_OVERHEAD_S + max(blob_bytes, 0) / max(self.read_bps, 1.0)

    def estimate_bytes(self, kind: str, accesses: int) -> int:
        """Expected blob size for a node that is not materialized yet."""
        return BYTES_PER_ACCESS.get(kind, 0) * max(accesses, 0)

    # -- refinement --------------------------------------------------------

    def observe_compute(self, kind: str, accesses: int, seconds: float) -> None:
        """Fold one measured (accesses, seconds) compute sample in."""
        if accesses <= 0 or seconds <= 0.0:
            return
        rate = seconds / accesses
        old = self.rates.get(kind)
        self.rates[kind] = (
            rate if old is None else (1.0 - EWMA_ALPHA) * old + EWMA_ALPHA * rate
        )
        self.samples += 1

    def observe_load(self, nbytes: int, seconds: float) -> None:
        """Fold one measured (bytes, seconds) store-read sample in."""
        if nbytes <= 0 or seconds <= 0.0:
            return
        bps = nbytes / seconds
        self.read_bps = (1.0 - EWMA_ALPHA) * self.read_bps + EWMA_ALPHA * bps
        self.samples += 1

    # -- persistence -------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        return {
            "rates": {kind: rate for kind, rate in sorted(self.rates.items())},
            "read_bps": self.read_bps,
            "samples": self.samples,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CostModel":
        rates = dict(DEFAULT_RATES)
        for kind, rate in dict(payload.get("rates", {})).items():
            rates[str(kind)] = float(rate)
        return cls(
            rates=rates,
            read_bps=float(payload.get("read_bps", DEFAULT_READ_BPS)),
            samples=int(payload.get("samples", 0)),
        )

    @classmethod
    def load(cls, store: Optional[ResultStore]) -> "CostModel":
        """Load the persisted model; defaults on any failure."""
        if store is None:
            return cls()
        try:
            payload = store.get(COSTS_KEY)
            if payload is None or payload.get("kind") != COSTS_KIND:
                return cls()
            return cls.from_payload(payload["result"])
        except (AttributeError, KeyError, TypeError, ValueError, OSError):
            return cls()

    def save(self, store: Optional[ResultStore]) -> None:
        """Persist the model; failures are swallowed (best effort)."""
        if store is None:
            return
        try:
            store.put(COSTS_KEY, {"kind": COSTS_KIND,
                                  "result": self.to_payload()})
        except OSError:
            pass
