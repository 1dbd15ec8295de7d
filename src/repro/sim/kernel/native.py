"""The C replay kernel: build, preflight, marshaling and write-back.

``replay.c`` holds one C function that replays one MPPPB candidate
over flat ``int64`` arrays.  This module builds it with the system C
compiler on first use and calls it through :mod:`ctypes`:

* **Build.**  ``cc -O2 -shared -fPIC`` compiles the source into the
  kernel package's ``__pycache__/``, under a name that is the SHA-256
  of the source, the flags and the compiler's ``--version`` line.  The
  library is written under a temporary name and ``os.replace``\\ d into
  place, so forked workers racing on a cold checkout are safe; when
  that directory is read-only a per-process temporary directory is
  used instead.  Each process loads the library once.
* **Preflight.**  C does not bounds-check, so before any candidate
  state is touched :func:`replay_all` declines (returns ``None``)
  unless every index the kernel will read lies inside its array and
  every threshold is an ``int``.  The batch engine then replays in
  Python with identical results.
* **Marshaling.**  State arrays are allocated once per batch, sized for
  the largest candidate, and refilled per candidate from the Python
  objects; afterwards the state is written back with one ``.tolist()``
  per array, so result hashing, artifact serialization and a later
  replay on the same policy objects see exactly the state
  :class:`~repro.sim.llc.LLCSimulator` would have left.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.predictor import CONFIDENCE_MAX, CONFIDENCE_MIN
from repro.core.sampler import SamplerEntry
from repro.core.tables import WEIGHT_MAX, WEIGHT_MIN
from repro.sim.llc import LLCResult, LLCStats

_SOURCE = Path(__file__).with_name("replay.c")
_FLAGS = ("-O2", "-shared", "-fPIC")
# Scalar parameters in the order of the P_* enum in replay.c.
_PARAMS = ("n", "warmup", "needs_h", "nf", "kind", "ways",
           "levels", "promote", "rrpv_max", "tau_bypass", "tau1", "tau2",
           "tau3", "p1", "p2", "p3", "tau_np", "theta", "sampler_ways",
           "conf_min", "conf_max", "weight_min", "weight_max", "xor_mask")
_NARGS = 27
_XOR_MASK = 255
# Thresholds must be ints well inside int64 (``-theta`` included).
_INT_LIMIT = 1 << 62

_KIND_MDPP = 0
_KIND_SRRIP = 1
_F_SLOT, _F_CONST0 = 0, 1
_F_DYN = {"insert": 2, "burst": 3, "lastmiss": 4}

_kernel = None
_load_error: Optional[str] = None


def _compiler() -> Optional[str]:
    return shutil.which("cc")


def _build_dirs() -> Iterator[Path]:
    yield _SOURCE.parent / "__pycache__"
    scratch = tempfile.mkdtemp(prefix="repro-kernel-")
    atexit.register(shutil.rmtree, scratch, True)
    yield Path(scratch)


def _build(cc: str) -> Path:
    """Compile ``replay.c`` unless a matching library already exists."""
    version = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, check=True).stdout.partition("\n")[0]
    digest = hashlib.sha256(b"\0".join([
        _SOURCE.read_bytes(), " ".join(_FLAGS).encode(), version.encode(),
    ])).hexdigest()
    for directory in _build_dirs():
        target = directory / f"{digest}.so"
        if target.is_file():
            return target
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=directory)
        except OSError:
            continue
        os.close(fd)
        try:
            subprocess.run([cc, *_FLAGS, "-o", tmp, str(_SOURCE)],
                           capture_output=True, text=True, check=True)
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return target
    raise OSError("no writable directory for the kernel library")


def load() -> Tuple[Optional[object], Optional[str]]:
    """``(kernel, None)`` once built and loaded, else ``(None, why)``.

    Memoized per process, failure included.
    """
    global _kernel, _load_error
    if _kernel is None and _load_error is None:
        cc = _compiler()
        if cc is None:
            _load_error = "no C compiler (cc) on PATH"
            return None, _load_error
        try:
            import ctypes

            fn = ctypes.CDLL(str(_build(cc))).mpppb_replay
            fn.argtypes = [ctypes.c_void_p] * _NARGS
            fn.restype = None
            _kernel = fn
        except subprocess.CalledProcessError as exc:
            detail = (exc.stderr or "").strip().splitlines()
            _load_error = f"{cc} failed: {detail[0] if detail else exc}"
        except (OSError, AttributeError) as exc:
            _load_error = str(exc)
    return _kernel, _load_error


def prefix_fills(cache) -> Optional[List[int]]:
    """Per-set valid counts, or ``None`` if validity is not a prefix.

    A fresh cache (all invalid) and any cache that has only ever been
    driven through install/evict have prefix-shaped validity, because
    ``invalid_way`` always returns the lowest invalid way.  A cache
    manipulated some other way (e.g. explicit ``invalidate``) makes the
    kernel decline rather than risk a divergence.
    """
    fills: List[int] = []
    for valid_row in cache.valid:
        count = 0
        for flag in valid_row:
            if flag:
                count += 1
            else:
                break
        if any(valid_row[count:]):
            return None
        fills.append(count)
    return fills


def _is_int(value) -> bool:
    return isinstance(value, int) and -_INT_LIMIT < value < _INT_LIMIT


def _ranges(columns, num_sets: int):
    """Min/max of the sampler-set and slot columns, or ``None`` when a
    column is not ``n`` long or a set index lies outside the cache (no
    candidate can run)."""
    n = columns.n
    if any(len(col) != n for col in (
            columns.blocks, columns.set_idxs, columns.tags,
            columns.samp_idxs, columns.prefetch, *columns.cols)):
        return None
    if n == 0:
        return (0, -1), [(0, -1)] * len(columns.cols)
    if columns.set_idxs.min() < 0 or columns.set_idxs.max() >= num_sets:
        return None
    return ((int(columns.samp_idxs.min()), int(columns.samp_idxs.max())),
            [(int(col.min()), int(col.max())) for col in columns.cols])


def _entry_fits(entry, size: int, col_ranges) -> bool:
    """Whether every index feature ``entry`` can produce fits ``size``."""
    if entry[0] == "slot":
        if not 0 <= entry[1] < len(col_ranges):
            return False
        lo, hi = col_ranges[entry[1]]
        return 0 <= lo and hi < size
    if entry[0] == "const0":
        return size >= 1
    return size >= (_XOR_MASK + 1 if entry[2] else 2)


class _Candidate:
    """One candidate's preflighted kernel inputs (small: K are held)."""

    def __init__(self, sim, k: int, fills: List[int], columns,
                 warm_boundary: int) -> None:
        policy = sim.policies[k]
        config, sampler, default = policy.config, policy.sampler, policy.default
        predictor = policy.predictor
        self.policy, self.cache, self.fills = policy, sim.caches[k], fills
        self.entries = entries = sim._entry_sets[k]
        self.nf = len(entries)
        self.sizes = [len(table) for table in predictor._weights]
        self.woff = np.cumsum([0] + self.sizes, dtype=np.int64)
        self.mdpp = type(default).__name__ == "MDPPPolicy"
        self.s_lens = [len(row) for row in sampler._sets]
        self.params = [
            columns.n, warm_boundary, int(sim._needs_h),
            self.nf, _KIND_MDPP if self.mdpp else _KIND_SRRIP, sim.ways,
            default.trees[0].levels if self.mdpp else 0,
            default.promote_position if self.mdpp else 0,
            0 if self.mdpp else default.rrpv_max, config.tau_bypass,
            *config.taus, *config.placements, config.tau_no_promote,
            sampler.theta, sampler.ways, CONFIDENCE_MIN, CONFIDENCE_MAX,
            WEIGHT_MIN, WEIGHT_MAX, _XOR_MASK,
        ]
        kinds = [_F_SLOT if e[0] == "slot" else _F_CONST0
                 if e[0] == "const0" else _F_DYN[e[1]] for e in entries]
        args = [e[1] if e[0] == "slot" else 0 for e in entries]
        xors = [1 if e[0] == "dyn" and e[2] else 0 for e in entries]
        self.feats = [np.asarray(v, dtype=np.int64) for v in
                      (kinds, args, xors, predictor.associativities)]
        # Per-position demotion plans as CSR over sampler._features_at
        # (indexed by sampler position + 1, up to the sampler's ways).
        starts, feats = [0], []
        for position in range(sampler.ways + 1):
            feats.extend(sampler._features_at[position])
            starts.append(len(feats))
        self.fa_start = np.asarray(starts, dtype=np.int64)
        self.fa_feats = np.asarray(feats, dtype=np.int64)
        self.s_rows = None  # carried-over sampler entries (preflight)

    def preflight(self, sim, samp_range, col_ranges) -> bool:
        """Every index the kernel reads for this candidate is in range
        and every scalar is an ``int``; also lowers carried-over
        sampler entries (``self.s_rows``), which must fit too."""
        sampler, default = self.policy.sampler, self.policy.default
        if not (len(self.params) == len(_PARAMS)
                and all(map(_is_int, self.params))
                and self.nf == len(self.sizes)
                and self.nf == len(self.policy.predictor.associativities)
                and default.num_sets == sim.num_sets
                and default.ways == sim.ways
                and samp_range[0] >= -1
                and samp_range[1] < len(sampler._sets)
                and max(self.s_lens, default=0) <= sampler.ways
                and all(_entry_fits(entry, size, col_ranges)
                        for entry, size in zip(self.entries, self.sizes))):
            return False
        flat = [entry for row in sampler._sets for entry in row]
        if not flat:
            return True
        try:
            indices = np.array([e.indices for e in flat], dtype=np.int64)
            tags_conf = np.array([(e.tag, e.confidence) for e in flat],
                                 dtype=np.int64)
        except (ValueError, TypeError, OverflowError):
            return False
        self.s_rows = (indices, tags_conf)
        return (indices.shape == (len(flat), self.nf)
                and bool((indices >= 0).all())
                and bool((indices < np.asarray(self.sizes)).all()))


def replay_all(sim, columns, warmup: int) -> Optional[List[LLCResult]]:
    """Replay every candidate of ``sim`` over ``columns`` in C.

    Returns one :class:`~repro.sim.llc.LLCResult` per candidate, or
    ``None`` when the library is unavailable or any candidate fails
    the preflight — checked for all candidates before any state is
    touched, so the Python fallback never double-runs a candidate.
    """
    kernel, _ = load()
    ranges = _ranges(columns, sim.num_sets)
    if kernel is None or ranges is None:
        return None
    n = columns.n
    warm_boundary = min(max(warmup, 0), n)
    candidates = []
    for k, cache in enumerate(sim.caches):
        fills = prefix_fills(cache)
        if fills is None:
            return None
        candidate = _Candidate(sim, k, fills, columns, warm_boundary)
        if not candidate.preflight(sim, *ranges):
            return None
        candidates.append(candidate)

    warm_prefetches = int(columns.prefetch[:warm_boundary].sum())
    measured_prefetches = int(columns.prefetch[warm_boundary:].sum())
    cols = [np.ascontiguousarray(col, dtype=np.int64) for col in columns.cols]
    stream = [np.ascontiguousarray(a, dtype=np.int64) for a in (
        columns.blocks, columns.set_idxs, columns.tags, columns.samp_idxs)]
    stream += [np.ascontiguousarray(columns.prefetch, dtype=np.uint8),
               np.asarray([col.ctypes.data for col in cols] or [0],
                          dtype=np.uintp)]

    num_sets, ways = sim.num_sets, sim.ways
    sampler_sets = max(len(c.s_lens) for c in candidates)
    sampler_ways = max(c.policy.sampler.ways for c in candidates)
    max_nf = max(max(c.nf for c in candidates), 1)
    state = _State(num_sets, ways, sampler_sets, sampler_ways, max_nf,
                   max(int(c.woff[-1]) for c in candidates), n)
    results = []
    for candidate in candidates:
        counts = state.run(kernel, candidate, stream)
        results.append(LLCResult(
            outcomes=state.outcomes.view(np.bool_).tolist(),
            stats=_segment_stats(n - warm_boundary, measured_prefetches,
                                 counts[4:8]),
            warm_stats=_segment_stats(warm_boundary, warm_prefetches,
                                      counts[0:4]),
        ))
    return results


class _State:
    """The kernel's mutable arrays, allocated once per batch."""

    def __init__(self, num_sets: int, ways: int, sampler_sets: int,
                 sampler_ways: int, max_nf: int, max_weights: int,
                 n: int) -> None:
        self.ctags = np.empty((num_sets, ways), dtype=np.int64)
        self.fills = np.empty(num_sets, dtype=np.int64)
        self.tree = np.empty((num_sets, ways - 1), dtype=np.int64)
        self.rrpv = np.empty((num_sets, ways), dtype=np.int64)
        self.lastm = np.empty(num_sets, dtype=np.int64)
        self.s_tags = np.empty(sampler_sets * sampler_ways, dtype=np.int64)
        self.s_conf = np.empty_like(self.s_tags)
        self.s_idx = np.empty(sampler_sets * sampler_ways * max_nf,
                              dtype=np.int64)
        self.s_len = np.empty(sampler_sets, dtype=np.int64)
        self.weights = np.empty(max_weights, dtype=np.int64)
        self.scratch = np.empty(max_nf, dtype=np.int64)
        self.counters = np.empty(11, dtype=np.int64)
        self.outcomes = np.empty(n, dtype=np.uint8)
        self.params = np.empty(len(_PARAMS), dtype=np.int64)

    def run(self, kernel, c: _Candidate, stream) -> List[int]:
        """Lower ``c``'s state, replay it, write it back; the counters."""
        policy, cache, default = c.policy, c.cache, c.policy.default
        sampler, tables = policy.sampler, policy.predictor._weights
        nf, woff = c.nf, c.woff.tolist()
        sets, sways = len(c.s_lens), sampler.ways
        weights = self.weights[:woff[-1]]
        for f, table in enumerate(tables):
            weights[woff[f]:woff[f + 1]] = table
        if any(c.fills):
            self.ctags[...] = cache.tags
        else:
            self.ctags.fill(-1)
        self.fills[:] = c.fills
        if c.mdpp:
            self.tree[...] = [tree.bits for tree in default.trees]
        else:
            self.rrpv[...] = default.rrpvs
        self.lastm.fill(0)
        self.counters.fill(0)
        s_tags = self.s_tags[:sets * sways].reshape(sets, sways)
        s_conf = self.s_conf[:sets * sways].reshape(sets, sways)
        s_idx = self.s_idx[:sets * sways * nf].reshape(sets, sways, nf)
        s_len = self.s_len[:sets]
        s_len[:] = c.s_lens
        if c.s_rows is not None:
            indices, tags_conf = c.s_rows
            rows = np.repeat(np.arange(sets), c.s_lens)
            starts = np.cumsum(c.s_lens) - c.s_lens
            cols = np.arange(len(rows)) - np.repeat(starts, c.s_lens)
            s_idx[rows, cols] = indices
            s_tags[rows, cols] = tags_conf[:, 0]
            s_conf[rows, cols] = tags_conf[:, 1]
        self.params[:] = c.params
        kernel(self.params.ctypes.data,
               *(a.ctypes.data for a in stream),
               *(a.ctypes.data for a in c.feats),
               c.fa_start.ctypes.data, c.fa_feats.ctypes.data,
               c.woff.ctypes.data, weights.ctypes.data,
               self.ctags.ctypes.data, self.fills.ctypes.data,
               self.tree.ctypes.data, self.rrpv.ctypes.data,
               s_tags.ctypes.data, s_conf.ctypes.data, s_idx.ctypes.data,
               s_len.ctypes.data, self.lastm.ctypes.data,
               self.outcomes.ctypes.data, self.counters.ctypes.data,
               self.scratch.ctypes.data)

        # -- write back ------------------------------------------------
        fills = self.fills.tolist()
        tag_rows = self.ctags.tolist()
        cache.tags[:] = tag_rows
        cache.valid[:] = (np.arange(cache.ways)
                          < self.fills[:, None]).tolist()
        cache._where[:] = [dict(zip(row, range(count)))
                           for row, count in zip(tag_rows, fills)]
        if c.mdpp:
            for tree, bits in zip(default.trees, self.tree.tolist()):
                tree.bits = bits
        else:
            default.rrpvs[:] = self.rrpv.tolist()
        flat = weights.tolist()
        for f, table in enumerate(tables):
            table[:] = flat[woff[f]:woff[f + 1]]
        sampler._sets = [
            list(map(SamplerEntry, tag_row[:length], idx_row, conf_row))
            for tag_row, idx_row, conf_row, length in zip(
                s_tags.tolist(), s_idx.tolist(), s_conf.tolist(),
                s_len.tolist())
        ]
        counts = self.counters.tolist()
        policy.bypasses += counts[2] + counts[6]
        policy.promotions_suppressed += counts[8]
        sampler.trainings_live += counts[9]
        sampler.trainings_dead += counts[10]
        return counts


def _segment_stats(accesses: int, prefetches: int, counts) -> LLCStats:
    hits, demand_hits, bypasses, evictions = counts
    demand_accesses = accesses - prefetches
    return LLCStats(
        accesses=accesses,
        hits=hits,
        misses=accesses - hits,
        bypasses=bypasses,
        evictions=evictions,
        demand_accesses=demand_accesses,
        demand_hits=demand_hits,
        demand_misses=demand_accesses - demand_hits,
    )
