"""The user-facing filter: slot array plus reverse map, kept in step.

Inserts write both structures.  Lookups walk the slot array alone until
a fingerprint matches; only then is the map consulted to tell a true
positive from a false one.  A false positive triggers adaptation: the
matched fingerprint is extended with chunks of its owner's hash until it
stops matching the offending query, and the loop re-runs in case another
stored fingerprint still matches.  The map never changes during
adaptation, which is what keeps it cheap.

Once corrected, a query key stays corrected for as long as the filter is
not mutated: extensions only ever narrow what a fingerprint matches.
Deletes with shortening enabled trade that guarantee away to reclaim
space, which is why shortening defaults to off.
"""

from __future__ import annotations

import enum
import operator
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    Fingerprint,
    FrozenIndex,
    SlotArray,
    pack_minirun_id,
)
from .errors import (
    AdaptationExhaustedError,
    FilterFullError,
    FormatError,
    InvalidConfigError,
    NotFoundError,
    StateCorruptionError,
)
from .hashing import (
    FilterConfig,
    HashStream,
    extension_chunk,
    extension_chunk_batch,
    split,
    split_batch,
)
from .revmap import ReverseMap
from .snapshot import ByteReader, pack_section

COMBINED_MAGIC = b"AQFS"
COMBINED_VERSION = 1

_F_AUTO_ADAPT = 1
_F_DEDUPE = 2
_F_SHORTEN = 4


@dataclass(frozen=True)
class Policy:
    """Behavioral switches; the defaults match the common read path.

    max_extensions caps a single fingerprint's chunk count.  Hitting it
    means two keys agreed on 56+ hash chunks, which in practice means
    the same key was handed to adapt() as both owner and query.
    """

    auto_adapt: bool = True
    max_extensions: int = 56
    dedupe_keys: bool = False
    shorten_on_delete: bool = False

    def __post_init__(self):
        if not 1 <= self.max_extensions <= 255:
            raise InvalidConfigError(
                f"max_extensions {self.max_extensions} out of range [1, 255]"
            )


class LookupResult(enum.Enum):
    NOT_PRESENT = "not_present"
    PRESENT = "present"
    # answered positive, then the colliding fingerprint was extended away
    FALSE_POSITIVE_CORRECTED = "false_positive_corrected"
    # answered positive with adaptation off; will answer positive again
    FALSE_POSITIVE = "false_positive"


def _key_array(keys) -> np.ndarray:
    """keys as a 1-D uint64 array; refuses anything but ints in [0, 2**64)."""
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
        if keys.ndim != 1:
            raise InvalidConfigError("keys must be a flat sequence")
        if keys.dtype.kind == "i" and keys.size and keys.min() < 0:
            raise InvalidConfigError("keys must be ints in [0, 2**64)")
        return keys.astype(np.uint64, copy=False)
    try:
        return np.fromiter(map(operator.index, keys), dtype=np.uint64)
    except (OverflowError, TypeError) as exc:
        raise InvalidConfigError(f"keys must be ints in [0, 2**64): {exc}") from exc


class AdaptiveFilter:
    def __init__(
        self,
        cfg: FilterConfig,
        policy: Policy | None = None,
        value_bits: int = 0,
        map_path=None,
    ):
        self.cfg = cfg
        self.policy = policy if policy is not None else Policy()
        self.arr = SlotArray(cfg, value_bits=value_bits)
        self.map = ReverseMap(cfg.q, path=map_path)
        # r bits per extension chunk written by adapt()
        self.adaptivity_bits = 0
        self.adaptations = 0
        self.adaptation_failures = 0

    @classmethod
    def _from_parts(cls, arr: SlotArray, revmap: ReverseMap, policy: Policy) -> "AdaptiveFilter":
        f = cls.__new__(cls)
        f.cfg = arr.cfg
        f.policy = policy
        f.arr = arr
        f.map = revmap
        f.adaptivity_bits = 0
        f.adaptations = 0
        f.adaptation_failures = 0
        return f

    @property
    def value_bits(self) -> int:
        return self.arr.value_bits

    @property
    def map_accesses(self) -> int:
        return self.map.accesses

    def __len__(self) -> int:
        return self.arr.fp_count

    # ------------------------------------------------------------------
    # mutation

    def insert(self, key: int, value: bytes | None = None, tag: int = 0) -> tuple[int, int]:
        """Store key's fingerprint; returns its (minirun id, rank).

        value lands in the reverse map; tag is a small integer kept in
        the slot payload's low value_bits (0 when the filter was built
        without them).  With dedupe_keys on, re-inserting a key bumps
        its fingerprint's counter instead of storing a second copy.
        """
        self.map.check_entry(key, value)
        stream = HashStream(key, self.cfg.seed)
        qt, rem = split(stream, self.cfg)
        mid = pack_minirun_id(qt, rem, self.cfg.q)
        if self.policy.dedupe_keys:
            rank = self.map.find_rank(mid, key)
            if rank is not None:
                self.arr.set_count(mid, rank, self.arr.get_count(mid, rank) + 1)
                return mid, rank
        _, rank = self.arr.insert_fp(Fingerprint(quotient=qt, remainder=rem), value=tag)
        self.map.map_insert(mid, rank, key, value)
        return mid, rank

    def delete(self, key: int) -> None:
        """Remove one occurrence of key.

        Counted duplicates just decrement.  With shorten_on_delete on,
        the survivors of the key's minirun drop extension chunks they no
        longer need to stay distinct from each other.
        """
        stream = HashStream(key, self.cfg.seed)
        qt, rem = split(stream, self.cfg)
        mid = pack_minirun_id(qt, rem, self.cfg.q)
        rank = self.map.find_rank(mid, key)
        if rank is None:
            raise NotFoundError(f"key {key} is not stored")
        count = self.arr.get_count(mid, rank)
        if count > 1:
            self.arr.set_count(mid, rank, count - 1)
            return
        self.arr.remove_fp(mid, rank)
        self.map.map_remove(mid, rank)
        if self.policy.shorten_on_delete:
            self._shorten_minirun(mid)

    def _shorten_minirun(self, mid: int) -> None:
        size = self.map.list_size(mid)
        if size == 0:
            return
        exts = [self.arr.get_ext(mid, k) for k in range(size)]
        for k, ext in enumerate(exts):
            need = 0
            for j, other in enumerate(exts):
                if j == k:
                    continue
                lcp = 0
                while lcp < len(ext) and lcp < len(other) and ext[lcp] == other[lcp]:
                    lcp += 1
                # one chunk past the split point; identical twins stay whole
                need = max(need, min(lcp + 1, len(ext)))
            if need < len(ext):
                self.arr.truncate_ext(mid, k, need)

    # ------------------------------------------------------------------
    # lookup and adaptation

    def lookup(self, key: int) -> tuple[LookupResult, bytes | None]:
        """Membership verdict plus the stored value on a true hit.

        Negative answers never touch the reverse map.  A false positive
        is adapted away (policy permitting) and the match is re-run, so
        one call settles every stored fingerprint the query collides
        with.  Adaptation is best effort: if the array is too full to
        take another extension, or the streams agree past the policy
        cap, the query degrades to an uncorrected FALSE_POSITIVE and
        adaptation_failures is bumped.
        """
        stream = HashStream(key, self.cfg.seed)
        hit = self.arr.query_fp(stream)
        if hit is None:
            return LookupResult.NOT_PRESENT, None
        qt, rem = split(stream, self.cfg)
        mid = pack_minirun_id(qt, rem, self.cfg.q)
        while hit is not None:
            rank, _ = hit
            try:
                owner, value = self.map.map_get(mid, rank)
            except NotFoundError as exc:
                raise StateCorruptionError(
                    f"filter matched minirun {mid} rank {rank} with no map entry"
                ) from exc
            if owner == key:
                return LookupResult.PRESENT, value
            if not self.policy.auto_adapt:
                return LookupResult.FALSE_POSITIVE, None
            try:
                self.adapt(mid, rank, owner, stream)
            except (FilterFullError, AdaptationExhaustedError):
                self.adaptation_failures += 1
                return LookupResult.FALSE_POSITIVE, None
            hit = self.arr.query_fp(stream)
        return LookupResult.FALSE_POSITIVE_CORRECTED, None

    def lookup_many(self, keys) -> list[tuple[LookupResult, bytes | None]]:
        """lookup() of each key in turn, as one batch.

        Element i is what lookup(keys[i]) returns when the keys are
        looked up one by one in order, and the filter, its counters and
        the reverse map end in the same state.  The batch is first
        probed against the array's superset index: a key it rejects
        cannot match now, nor after any adaptation of this batch, so it
        answers NOT_PRESENT without a walk.  The survivors go through
        lookup() in order.  keys is a uint64 array or an iterable of
        ints in [0, 2**64).
        """
        keys = _key_array(keys)
        out = [(LookupResult.NOT_PRESENT, None)] * len(keys)
        survivors = np.flatnonzero(self.arr.superset_index().query_keys(keys))
        for i, key in zip(survivors.tolist(), keys[survivors].tolist()):
            out[i] = self.lookup(key)
        return out

    def contains(self, key: int) -> bool:
        """Fingerprint match only; never adapts, never reads the map."""
        return self.arr.query_fp(HashStream(key, self.cfg.seed)) is not None

    def adapt(self, mid: int, rank: int, owner_key: int, query_stream: HashStream) -> int:
        """Extend one stored fingerprint until the query stops matching.

        Chunks come from the owner's hash, so the fingerprint keeps
        matching its owner by construction.  Returns how many chunks
        were appended (at least 1).  Raises before mutating when the
        streams agree past policy.max_extensions.
        """
        cfg = self.cfg
        stored = self.arr.get_ext(mid, rank)
        owner_stream = HashStream(owner_key, cfg.seed)
        for i, ch in enumerate(stored):
            if ch != extension_chunk(owner_stream, cfg, i):
                raise StateCorruptionError(
                    f"minirun {mid} rank {rank} does not match its owner's hash"
                )
        t = len(stored)
        while extension_chunk(owner_stream, cfg, t) == extension_chunk(query_stream, cfg, t):
            t += 1
            if t >= self.policy.max_extensions:
                raise AdaptationExhaustedError(
                    f"streams still agree after {t} chunks; owner and query "
                    "are likely the same key"
                )
        chunks = [extension_chunk(owner_stream, cfg, i) for i in range(len(stored), t + 1)]
        self.arr.extend_fp(mid, rank, chunks)
        self.adaptations += 1
        self.adaptivity_bits += len(chunks) * cfg.r
        return len(chunks)

    # ------------------------------------------------------------------
    # verification

    def check_consistency(self) -> None:
        """Full cross-check of slot array against reverse map.

        Verifies the map holds exactly one entry per fingerprint at the
        matching (id, rank), and that every stored fingerprint is a
        prefix of its owner key's hash.  Raises StateCorruptionError.
        """
        cfg = self.cfg
        cols = self.arr._columns()
        # hash order, which the map's columns come in; the stable sort
        # keeps rank order inside each minirun
        cols = cols.take(np.argsort(cols.packed(cfg.r), kind="stable"))
        mids = cols.mids(cfg.q)
        opens = np.ones(len(mids), dtype=bool)
        opens[1:] = mids[1:] != mids[:-1]
        first = np.flatnonzero(opens)
        ids = mids[first]
        sizes = np.diff(first, append=len(mids))
        map_ids, lengths, keys, _ = self.map._columns()
        if len(map_ids) != len(ids) or (map_ids != ids).any():
            raise StateCorruptionError("filter and map disagree on minirun ids")
        short = np.flatnonzero(lengths != sizes)
        if short.size:
            g = int(short[0])
            raise StateCorruptionError(
                f"minirun {ids[g]}: {sizes[g]} fingerprints, {lengths[g]} map entries"
            )
        bad = split_batch(keys, cfg) != cols.packed(cfg.r)
        for t in range(int(cols.ext_len.max(initial=0))):
            rows = np.flatnonzero(cols.ext_len > t)
            bad[rows] |= (extension_chunk_batch(keys[rows], cfg, t)
                          != cols.chunks[cols.ext_off[rows] + t])
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            g = int(np.searchsorted(first, at, side="right")) - 1
            raise StateCorruptionError(
                f"minirun {ids[g]} rank {at - first[g]} is not a prefix of key {keys[at]}"
            )

    def frozen_index(self) -> FrozenIndex:
        """Read-only snapshot for bulk probing; stale after any mutation."""
        return self.arr.frozen_index()

    # ------------------------------------------------------------------
    # snapshot

    def to_bytes(self) -> bytes:
        flags = 0
        if self.policy.auto_adapt:
            flags |= _F_AUTO_ADAPT
        if self.policy.dedupe_keys:
            flags |= _F_DEDUPE
        if self.policy.shorten_on_delete:
            flags |= _F_SHORTEN
        head = struct.pack(
            "<4sIBBBB",
            COMBINED_MAGIC,
            COMBINED_VERSION,
            flags,
            self.policy.max_extensions,
            self.arr.value_bits,
            0,
        )
        return head + pack_section(self.arr.to_bytes()) + pack_section(self.map.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "AdaptiveFilter":
        rd = ByteReader(data)
        rd.expect_magic(COMBINED_MAGIC)
        version = rd.u32()
        if version != COMBINED_VERSION:
            raise FormatError(f"unsupported combined snapshot version {version}")
        flags = rd.u8()
        max_ext = rd.u8()
        value_bits = rd.u8()
        rd.u8()
        arr = SlotArray.from_bytes(rd.section())
        if arr.value_bits != value_bits:
            raise FormatError(
                f"header says {value_bits} value bits, payload carries {arr.value_bits}"
            )
        map_blob = rd.section()
        rd.done()
        revmap = ReverseMap.from_bytes(bytes(map_blob), qbits=arr.cfg.q)
        policy = Policy(
            auto_adapt=bool(flags & _F_AUTO_ADAPT),
            max_extensions=max_ext,
            dedupe_keys=bool(flags & _F_DEDUPE),
            shorten_on_delete=bool(flags & _F_SHORTEN),
        )
        f = cls._from_parts(arr, revmap, policy)
        return f

    def save(self, path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path) -> "AdaptiveFilter":
        return cls.from_bytes(Path(path).read_bytes())
