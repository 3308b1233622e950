"""The user-facing filter: slot array plus reverse map, kept in step.

Inserts write both structures.  Lookups walk the slot array alone until
a fingerprint matches; only then is the map consulted to tell a true
positive from a false one.  A false positive triggers adaptation: the
matched fingerprint is extended with chunks of its owner's hash until it
stops matching the offending query, and the walk goes on from the next
rank in case another stored fingerprint matches.  The map never changes
during adaptation, which is what keeps it cheap.  With adaptation off,
or once an extension finds no room, the walk still goes on, so a stored
key answers PRESENT whatever fingerprints of other keys precede its own.

Once corrected, a query key stays corrected for as long as the filter is
not mutated: extensions only ever narrow what a fingerprint matches.
Deletes with shortening enabled trade that guarantee away to reclaim
space, which is why shortening defaults to off.

A snapshot (version 2) holds the policy and the adaptation counters in
its header, then the slot array's snapshot and the reverse map's key
column, under one CRC32 trailer.  The map's minirun ids are not stored:
loading rebuilds them from the slot array's columns in hash order.
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
    MASK64,
    FilterConfig,
    HashStream,
    extension_chunk,
    extension_chunk_batch,
    split,
    split_batch,
)
from .revmap import ReverseMap
from .snapshot import ByteReader, pack_section, seal, unseal

COMBINED_MAGIC = b"AQFS"
COMBINED_VERSION = 2
# magic, version, flags, max_extensions, value bits, reserved byte, and
# the adaptations, adaptivity_bits and adaptation_failures counters
_HEAD = struct.Struct("<4sIBBBBQQQ")

_F_AUTO_ADAPT = 1
_F_DEDUPE = 2
_F_SHORTEN = 4
_F_KNOWN = _F_AUTO_ADAPT | _F_DEDUPE | _F_SHORTEN


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


# verdicts after which no stored fingerprint matches the key
_SETTLED = (LookupResult.NOT_PRESENT, LookupResult.FALSE_POSITIVE_CORRECTED)


def _key(key) -> int:
    """key as an int; refuses anything but an int in [0, 2**64)."""
    try:
        key = operator.index(key)
    except TypeError as exc:
        raise InvalidConfigError(f"key must be an int in [0, 2**64): {exc}") from exc
    if not 0 <= key <= MASK64:
        raise InvalidConfigError(f"key {key} outside [0, 2**64)")
    return key


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
    ):
        self.cfg = cfg
        self.policy = policy if policy is not None else Policy()
        self.arr = SlotArray(cfg, value_bits=value_bits)
        self.map = ReverseMap(cfg.q)
        # r bits per extension chunk written by adapt()
        self.adaptivity_bits = 0
        self.adaptations = 0
        self.adaptation_failures = 0

    @classmethod
    def _from_parts(cls, arr: SlotArray, revmap: ReverseMap, policy: Policy,
                    adaptations: int = 0, adaptivity_bits: int = 0,
                    adaptation_failures: int = 0) -> "AdaptiveFilter":
        f = cls.__new__(cls)
        f.cfg = arr.cfg
        f.policy = policy
        f.arr = arr
        f.map = revmap
        f.adaptivity_bits = adaptivity_bits
        f.adaptations = adaptations
        f.adaptation_failures = adaptation_failures
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
        key = _key(key)
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

        A counted duplicate just decrements; a table without counter
        digits holds only count-1 fingerprints and skips reading the
        count.  Otherwise the fingerprint's slots close in place, moving
        only the slots between it and the first run at its canonical slot
        (see SlotArray.remove_fp).  With shorten_on_delete on, the
        survivors of its minirun are also cut back to the extension chunks
        they need to stay distinct from each other.
        """
        key = _key(key)
        stream = HashStream(key, self.cfg.seed)
        qt, rem = split(stream, self.cfg)
        mid = pack_minirun_id(qt, rem, self.cfg.q)
        rank = self.map.find_rank(mid, key)
        if rank is None:
            raise NotFoundError(f"key {key} is not stored")
        if self.arr.ctr_slot_count:
            count = self.arr.get_count(mid, rank)
            if count > 1:
                self.arr.set_count(mid, rank, count - 1)
                return
        self.arr.remove_fp(mid, rank, shorten=self.policy.shorten_on_delete)
        self.map.map_remove(mid, rank)

    # ------------------------------------------------------------------
    # lookup and adaptation

    def lookup(self, key: int) -> tuple[LookupResult, bytes | None]:
        """Membership verdict plus the stored value on a true hit.

        Negative answers never touch the reverse map.  The matches of the
        key's hash are read in rank order, each checked against the map:
        the key's own fingerprint answers PRESENT with its value, and
        another key's is adapted away (policy permitting) before the walk
        goes on from the next rank, so one call settles every stored
        fingerprint the query collides with.  Adaptation is best effort:
        after the first failure (the array too full to take another
        extension, or the streams agreeing past the policy cap)
        adaptation_failures is bumped, once per call, and the call
        adapts no more but keeps reading matches.  It answers PRESENT if
        the key's own fingerprint turns up, else FALSE_POSITIVE.
        """
        key = _key(key)
        stream = HashStream(key, self.cfg.seed)
        hit = self.arr.query_fp(stream)
        if hit is None:
            return LookupResult.NOT_PRESENT, None
        qt, rem = split(stream, self.cfg)
        mid = pack_minirun_id(qt, rem, self.cfg.q)
        adapting = self.policy.auto_adapt
        verdict = LookupResult.FALSE_POSITIVE_CORRECTED
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
            if adapting:
                try:
                    self.adapt(mid, rank, owner, stream)
                except (FilterFullError, AdaptationExhaustedError):
                    self.adaptation_failures += 1
                    adapting = False
            if not adapting:
                verdict = LookupResult.FALSE_POSITIVE
            # extension only narrows matches: the ranks before this one
            # still miss, and an adapted one now misses too
            hit = self.arr.query_fp(stream, rank + 1)
        return verdict, None

    def lookup_many(self, keys) -> list[tuple[LookupResult, bytes | None]]:
        """lookup() of each key in turn, as one batch.

        Element i is what lookup(keys[i]) returns when the keys are
        looked up one by one in order, and the filter, its counters and
        the reverse map end in the same state.  The batch is first
        probed against the array's superset index: a key it rejects
        cannot match now, nor after any adaptation of this batch, so it
        answers NOT_PRESENT without a walk.  The survivors go through
        lookup() in order, except for settled keys: once lookup() has
        answered a key NOT_PRESENT or FALSE_POSITIVE_CORRECTED, no
        fingerprint matches it, and the only mutation inside a batch is
        extension, which only narrows matches, so its later copies in
        the batch answer NOT_PRESENT without a walk.  PRESENT and
        FALSE_POSITIVE copies still go through lookup(), which charges
        the reverse map or adaptation_failures each time.  The settled
        set lives for one batch.  keys is a uint64 array or an iterable
        of ints in [0, 2**64).
        """
        keys = _key_array(keys)
        out = [(LookupResult.NOT_PRESENT, None)] * len(keys)
        survivors = np.flatnonzero(self.arr.superset_index().query_keys(keys))
        settled = set()
        for i, key in zip(survivors.tolist(), keys[survivors].tolist()):
            if key in settled:
                continue
            out[i] = self.lookup(key)
            if out[i][0] in _SETTLED:
                settled.add(key)
        return out

    def contains(self, key: int) -> bool:
        """Fingerprint match only; never adapts, never reads the map."""
        return self.arr.query_fp(HashStream(_key(key), self.cfg.seed)) is not None

    def adapt(self, mid: int, rank: int, owner_key: int, query_stream: HashStream) -> int:
        """Extend one stored fingerprint until the query stops matching.

        Chunks come from the owner's hash, so the fingerprint keeps
        matching its owner by construction.  Returns how many chunks
        were appended (at least 1).  Raises before mutating when the
        streams agree past policy.max_extensions.
        """
        chunks = self._adapt_chunks(mid, rank, owner_key, query_stream)
        self.arr.extend_fp(mid, rank, chunks)
        self.adaptations += 1
        self.adaptivity_bits += len(chunks) * self.cfg.r
        return len(chunks)

    def _adapt_chunks(self, mid: int, rank: int, owner_key: int,
                      query_stream: HashStream) -> list[int]:
        """The chunks adapt() would append, without appending them."""
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
        return [extension_chunk(owner_stream, cfg, i) for i in range(len(stored), t + 1)]

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
        cols = cols.take(cols.hash_order(cfg.r))
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
        """Serialize as version 2.

        Little-endian: magic, version (u32), policy flags (u8),
        max_extensions (u8), value bits (u8), a reserved zero byte, and
        the adaptations, adaptivity_bits and adaptation_failures
        counters (u64 each); then the slot array's and the reverse map's
        snapshots as length-prefixed sections, and a CRC32 of everything
        before it.
        """
        flags = 0
        if self.policy.auto_adapt:
            flags |= _F_AUTO_ADAPT
        if self.policy.dedupe_keys:
            flags |= _F_DEDUPE
        if self.policy.shorten_on_delete:
            flags |= _F_SHORTEN
        head = _HEAD.pack(COMBINED_MAGIC, COMBINED_VERSION, flags,
                          self.policy.max_extensions, self.arr.value_bits, 0,
                          self.adaptations, self.adaptivity_bits, self.adaptation_failures)
        return seal(head + pack_section(self.arr.to_bytes())
                    + pack_section(self.map.to_bytes()))

    @classmethod
    def from_bytes(cls, data: bytes) -> "AdaptiveFilter":
        """Parse a snapshot; the map's minirun ids come from the slot array."""
        rd = ByteReader(unseal(data))
        magic, version, flags, max_ext, value_bits, reserved, *counters = _HEAD.unpack(
            rd.take(_HEAD.size))
        if magic != COMBINED_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {COMBINED_MAGIC!r}")
        if version != COMBINED_VERSION:
            raise FormatError(f"unsupported combined snapshot version {version}")
        if flags & ~_F_KNOWN:
            raise FormatError(f"unknown policy flags {flags & ~_F_KNOWN:#04x}")
        if reserved:
            raise FormatError(f"reserved header byte is {reserved}, not 0")
        try:
            policy = Policy(
                auto_adapt=bool(flags & _F_AUTO_ADAPT),
                max_extensions=max_ext,
                dedupe_keys=bool(flags & _F_DEDUPE),
                shorten_on_delete=bool(flags & _F_SHORTEN),
            )
        except InvalidConfigError as exc:
            raise FormatError(str(exc)) from exc
        arr = SlotArray.from_bytes(rd.section())
        if arr.value_bits != value_bits:
            raise FormatError(
                f"header says {value_bits} value bits, payload carries {arr.value_bits}"
            )
        map_blob = rd.section()
        rd.done()
        cols = arr._columns()
        revmap = ReverseMap.from_bytes(map_blob, arr.cfg.q,
                                       cols.mids(arr.cfg.q)[cols.hash_order(arr.cfg.r)])
        return cls._from_parts(arr, revmap, policy, *counters)

    def save(self, path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path) -> "AdaptiveFilter":
        return cls.from_bytes(Path(path).read_bytes())
