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

The reverse map holds each key's hash word, word 0 of its stream, in
place of the key: the word is a bijection of the key
(``hashing.unhash_word``), and lookup, insert and delete already compute
it, so they compare words.  The key itself is needed only to adapt, for
the owner's later chunks, and by the whole-filter passes that read
chunks past word 0 or change the seed.

A snapshot (version 3) holds the policy and the adaptation counters in
its header, then the slot array's section and the reverse map's, under
one CRC32 trailer; the sections carry none of their own.  The map's
minirun ids are not stored: the slot array's loader checks its layout
and then takes them, in hash order, from the table's blocks.  They are
the top q + r bits of each hash word, so the map's section holds only
the other 64 - q - r bits of each.  The encoder collects the parts of
all three (headers, length prefixes and views of the columns) and joins
them once.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FrozenIndex, SlotArray, pack_minirun_id
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
    _chunk_rounds,
    _int_in,
    _key,
    _key_array,
    _pairs,
    as_index,
    extension_chunk,
    split,
    unhash_word,
)
from .revmap import ReverseMap
from .snapshot import ByteReader, section, sealed, unseal

COMBINED_MAGIC = b"AQFS"
COMBINED_VERSION = 3
# magic, version, flags, max_extensions, value bits, reserved byte, and
# the adaptations, adaptivity_bits and adaptation_failures counters
_HEAD = struct.Struct("<4sIBBBBQQQ")

# the header's policy flags: (bit, Policy field)
_FLAGS = ((1, "auto_adapt"), (2, "dedupe_keys"), (4, "shorten_on_delete"))
_F_KNOWN = 7


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
        as_index(self.max_extensions, "max_extensions")
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
        self.map = ReverseMap()
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

        value lands in the reverse map; tag is an int in [0,
        2**value_bits) kept in the slot payload's low value_bits (only 0
        when the filter was built without them).  With dedupe_keys on,
        re-inserting a key bumps its fingerprint's counter, in one walk,
        instead of storing a second copy.

        A bad key, value or tag raises InvalidConfigError, and at the
        19/20 load cap, which extension slots share (see lookup), it
        raises FilterFullError; either way nothing changes.
        """
        key = _key(key)
        self.map.check_entry(key, value)
        tag = _int_in(tag, "tag", 0, (1 << self.value_bits) - 1)
        stream = HashStream(key, self.cfg.seed)
        qt, rem = split(stream, self.cfg)
        word = stream.word(0)
        if self.policy.dedupe_keys:
            mid = pack_minirun_id(qt, rem, self.cfg.r)
            rank = self.map.find_rank(mid, word)
            if rank is not None:
                self.arr.add_count(mid, rank, 1)
                return mid, rank
        mid, rank = self.arr.insert_fp(qt, rem, tag)
        self.map.map_insert(mid, rank, word, value)
        return mid, rank

    def delete(self, key: int) -> None:
        """Remove one occurrence of key.

        A counted duplicate just decrements, in the one walk that reads
        its count; a table without counter digits holds only count-1
        fingerprints and skips reading the count.  Otherwise the
        fingerprint's slots close in place, moving only the slots between
        it and the first run at its canonical slot (see
        SlotArray.remove_fp).  With shorten_on_delete on, the survivors of
        its minirun are also cut back to the extension chunks they need to
        stay distinct from each other.
        """
        key = _key(key)
        stream = HashStream(key, self.cfg.seed)
        mid = pack_minirun_id(*split(stream, self.cfg), self.cfg.r)
        rank = self.map.find_rank(mid, stream.word(0))
        if rank is None:
            raise NotFoundError(f"key {key} is not stored")
        if self.arr.ctr_slot_count and self.arr.add_count(mid, rank, -1) >= 1:
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

        Extension slots share the 19/20 load cap with inserts: a filter
        at load L corrects about (0.95 - L) * 2**q distinct false
        positives, one slot each.  Past that, corrections fail as above,
        insert raises FilterFullError, and only rebuild, which drops
        every correction, gives the room back.
        """
        key = _key(key)
        stream = HashStream(key, self.cfg.seed)
        pair = split(stream, self.cfg)
        hit = self.arr.query_fp(stream, 0, pair)
        if hit is None:
            return LookupResult.NOT_PRESENT, None
        mid = pack_minirun_id(*pair, self.cfg.r)
        adapting = self.policy.auto_adapt
        verdict = LookupResult.FALSE_POSITIVE_CORRECTED
        while hit is not None:
            rank = hit[0]
            try:
                owner, value = self.map.map_get(mid, rank)
            except NotFoundError as exc:
                raise StateCorruptionError(
                    f"filter matched minirun {mid} rank {rank} with no map entry"
                ) from exc
            if owner == stream.word(0):
                return LookupResult.PRESENT, value
            if adapting:
                try:
                    self.adapt(mid, rank, unhash_word(owner, self.cfg.seed), stream)
                except (FilterFullError, AdaptationExhaustedError):
                    self.adaptation_failures += 1
                    adapting = False
            if not adapting:
                verdict = LookupResult.FALSE_POSITIVE
            # extension only narrows matches: the ranks before this one
            # still miss, and an adapted one now misses too
            hit = self.arr.query_fp(stream, rank + 1, pair)
        return verdict, None

    def lookup_many(self, keys) -> list[tuple[LookupResult, bytes | None]]:
        """lookup() of each key in turn, as one batch.

        Element i is what lookup(keys[i]) returns when the keys are
        looked up one by one in order, and the filter, its counters and
        the reverse map end in the same state.  The batch is first
        probed against the array's exact index (frozen_index): a key it
        rejects cannot match now, nor after any adaptation of this batch,
        so it answers NOT_PRESENT without a walk.  The survivors go through
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
        survivors = np.flatnonzero(self.arr.frozen_index().query_keys(keys))
        settled = set()
        for i, key in zip(survivors.tolist(), keys[survivors].tolist()):
            if key in settled:
                continue
            out[i] = self.lookup(key)
            if out[i][0] in _SETTLED:
                settled.add(key)
        return out

    def contains(self, key: int) -> bool:
        """Slot-array match only; never adapts, never reads the map."""
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

        The table's rows and the map's both come in hash order, ties in
        rank order, so they hold the same entries exactly when every row
        has the same minirun id in both.  The table is read a block at a
        time (SlotArray._blocks), each compared with the map's rows at
        the same offset; the map's base rows are read in place unless
        its overlay holds entries (ReverseMap._merged).  A row's id is
        also the top q + r bits of its hash word, and only the rows with
        extension chunks have their words turned back into keys, for the
        chunks.  The first fault found, in the order of the checks below,
        is raised.
        """
        cfg = self.cfg
        mids, words, _ = self.map._merged()
        rows, wrong_id, not_prefix = 0, None, None
        for cols in self.arr._blocks():
            lo, rows = rows, rows + len(cols.quot)
            if wrong_id is not None or rows > len(mids):
                continue
            ids, owners = cols.packed(cfg.r), words[lo:rows]
            off = np.flatnonzero(ids != mids[lo:rows])
            if off.size:
                wrong_id = lo + int(off[0]), ids[off[0]]
            if off.size or not_prefix is not None:
                continue
            bad = _pairs(owners, cfg) != ids
            for t, ext, chunks in _chunk_rounds(owners, cols.ext_len, cfg):
                bad[ext] |= chunks != cols.chunks[cols.ext_off[ext] + t]
            if bad.any():
                not_prefix = lo + int(np.flatnonzero(bad)[0])
        if rows != len(mids):
            raise StateCorruptionError(f"{rows} fingerprints, {len(mids)} map entries")
        if wrong_id is not None:
            at, mid = wrong_id
            raise StateCorruptionError(f"filter and map disagree on minirun ids at row {at}: "
                                       f"{mid} in the filter, {mids[at]} in the map")
        if not_prefix is not None:
            at = first = not_prefix  # and the first row of its minirun
            while first and mids[first - 1] == mids[at]:
                first -= 1
            raise StateCorruptionError(
                f"minirun {mids[at]} rank {at - first} is not a prefix of key "
                f"{unhash_word(int(words[at]), cfg.seed)}"
            )

    def frozen_index(self) -> FrozenIndex:
        """Read-only snapshot for bulk probing; stale after any mutation."""
        return self.arr.frozen_index()

    # ------------------------------------------------------------------
    # snapshot

    def to_bytes(self) -> bytes:
        """Serialize as version 3.

        Little-endian: magic, version (u32), policy flags (u8),
        max_extensions (u8), value bits (u8), a reserved zero byte, and
        the adaptations, adaptivity_bits and adaptation_failures
        counters (u64 each); then two length-prefixed sections, and a
        CRC32 of everything before it.  The first is the slot array's
        snapshot without its trailer (SlotArray.to_bytes).  The second is
        the reverse map's without its trailer, each hash word cut to the
        w = 64 - q - r bits below its minirun id: the low min(w, 32)
        bits, then, when w > 32, the other w - 32, each as a column of
        the narrowest unsigned type that holds it (u32 and u8 for q + r
        in 24..31); then the map's values as ReverseMap.to_bytes writes
        them.
        """
        flags = sum(bit for bit, field in _FLAGS if getattr(self.policy, field))
        head = _HEAD.pack(COMBINED_MAGIC, COMBINED_VERSION, flags,
                          self.policy.max_extensions, self.arr.value_bits, 0,
                          self.adaptations, self.adaptivity_bits, self.adaptation_failures)
        w = 64 - self.cfg.q - self.cfg.r
        parts = [head, section(self.arr._parts()), section(self.map._parts(w))]
        return b"".join(sealed(parts))

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
            policy = Policy(max_extensions=max_ext,
                            **{field: bool(flags & bit) for bit, field in _FLAGS})
        except InvalidConfigError as exc:
            raise FormatError(str(exc)) from exc
        arr, mids = SlotArray._decode(rd.section())
        if arr.value_bits != value_bits:
            raise FormatError(
                f"header says {value_bits} value bits, payload carries {arr.value_bits}"
            )
        map_blob = rd.section()
        rd.done()
        revmap = ReverseMap._decode(map_blob, mids, 64 - arr.cfg.q - arr.cfg.r)
        return cls._from_parts(arr, revmap, policy, *counters)

    def save(self, path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path) -> "AdaptiveFilter":
        return cls.from_bytes(Path(path).read_bytes())
