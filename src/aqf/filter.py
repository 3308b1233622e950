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

Adaptivity is strong, as the paper states it: once a query key is
corrected, it matches no fingerprint of a key that was stored then and
has stayed stored since.  Extensions only ever narrow what a
fingerprint matches, and inserts, deletes, merges and reloads keep the
extensions of every fingerprint they do not remove.  A key stored later
may collide with the query afresh, and is corrected in its turn.  Only
rebuild ends the guarantee, since it drops every extension under its
new seed.

The reverse map holds each key's hash word, word 0 of its stream, in
place of the key: the word is a bijection of the key
(``hashing.unhash_word``), and lookup, insert and delete already compute
it, so they compare words.  The key itself is needed only to adapt, for
the owner's later chunks, and by the whole-filter passes that read
chunks past word 0 or change the seed.  A word's top q + r bits are its
minirun id, so the map keeps no id column: it reads each row's id from
its word.

A snapshot (version 3) holds the policy and the adaptation counters in
its header, then the slot array's section and the reverse map's, under
one CRC32 trailer; the sections carry none of their own.  The map's
minirun ids are not stored: the slot array's loader checks its layout
and then takes them, in hash order, from the table's blocks, and the
map's loader puts each back above the other 64 - q - r bits of its
word, which are all its section holds.  The encoder collects the parts
of all three (headers, length prefixes and views of the columns) and
joins them once.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FrozenIndex, SlotArray, unpack_minirun_id
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
    extension_chunk,
    hash_word,
    minirun_id,
    split,
    unhash_word,
)
from .revmap import ReverseMap, _reader
from .snapshot import ByteReader, replace_file, seal, section, unseal

COMBINED_MAGIC = b"AQFS"
COMBINED_VERSION = 3
# magic, version, flags, max_extensions, value bits, reserved byte, and
# the adaptations, adaptivity_bits and adaptation_failures counters
_HEAD = struct.Struct("<4sIBBBBQQQ")

# the header's policy flags: (bit, Policy field)
_FLAGS = ((1, "auto_adapt"), (2, "dedupe_keys"))
_F_KNOWN = 3


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

    def __post_init__(self):
        _int_in(self.max_extensions, "max_extensions", 1, 255)
        for _, field in _FLAGS:
            if not isinstance(getattr(self, field), bool):
                raise InvalidConfigError(f"{field} must be a bool, got {getattr(self, field)!r}")


def _policy(policy: Policy | None) -> Policy:
    """policy, or the default Policy for None; InvalidConfigError for anything else."""
    if policy is not None and not isinstance(policy, Policy):
        raise InvalidConfigError(f"policy must be a Policy, got {policy!r}")
    return policy or Policy()


class LookupResult(enum.Enum):
    NOT_PRESENT = "not_present"
    PRESENT = "present"
    # answered positive, then the colliding fingerprint was extended away
    FALSE_POSITIVE_CORRECTED = "false_positive_corrected"
    # answered positive with adaptation off; will answer positive again
    FALSE_POSITIVE = "false_positive"


# verdicts after which no stored fingerprint matches the key
_SETTLED = (LookupResult.NOT_PRESENT, LookupResult.FALSE_POSITIVE_CORRECTED)

# keys at the head of a batch that lookup_many looks at for repeats
_SAMPLE = 1 << 10


def _block_faults(cols, owners: np.ndarray, lo: int, cfg: FilterConfig, not_prefix):
    """(wrong_id, not_prefix) of AdaptiveFilter._fault after the table
    block cols, whose first row is row lo of the table: not_prefix as it
    was, or the block's first row whose fingerprint is no prefix of its
    owner's hash, when it was None; wrong_id, the block's first row whose
    id the map does not hold, or None.  owners is a copy of the map's
    rows at the block's rows, which the extension check reads as words
    and which then holds their ids.  Its temporaries go with the call,
    before the next block is decoded."""
    ids = cols.packed(cfg.r)
    if not_prefix is None:
        bad = np.zeros(len(ids), dtype=bool)
        for t, ext, chunks in _chunk_rounds(owners, cols.ext_len, cfg):
            bad[ext] |= chunks != cols.chunks[cols.ext_off[ext] + t]
        if bad.any():
            at = first = int(np.flatnonzero(bad)[0])
            while first and ids[first - 1] == ids[at]:
                first -= 1
            not_prefix = ids[at], at - first, owners[at]
    _pairs(owners, cfg, out=owners)
    off = np.flatnonzero(ids != owners)
    if not off.size:
        return None, not_prefix
    at = int(off[0])
    return (lo + at, ids[at], owners[at]), not_prefix


class AdaptiveFilter:
    def __init__(
        self,
        cfg: FilterConfig,
        policy: Policy | None = None,
        value_bits: int = 0,
    ):
        self.cfg = cfg
        self.policy = _policy(policy)
        self.arr = SlotArray(cfg, value_bits=value_bits)
        self.map = ReverseMap(64 - cfg.q - cfg.r)
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
        key, cfg = _key(key), self.cfg
        self.map.check_entry(key, value)
        tag = _int_in(tag, "tag", 0, (1 << self.value_bits) - 1)
        word = hash_word(key, cfg.seed, 0)
        mid = minirun_id(word, cfg)
        if self.policy.dedupe_keys:
            rank = self.map.find_rank(mid, word)
            if rank is not None:
                self.arr.add_count(mid, rank, 1)
                return mid, rank
        mid, rank = self.arr.insert_fp(*unpack_minirun_id(mid, cfg.r), tag)
        self.map.map_insert(mid, rank, word, value)
        return mid, rank

    def delete(self, key: int) -> None:
        """Remove one occurrence of key.

        A counted duplicate just decrements, in the one walk that reads
        its count; a table without counter digits holds only count-1
        fingerprints and skips reading the count.  Otherwise the
        fingerprint's slots close in place, moving only the slots between
        it and the first run at its canonical slot (see
        SlotArray.remove_fp).  The other fingerprints keep their
        extensions, so every correction made against them stays.
        """
        key, cfg = _key(key), self.cfg
        word = hash_word(key, cfg.seed, 0)
        mid = minirun_id(word, cfg)
        rank = self.map.find_rank(mid, word)
        if rank is None:
            raise NotFoundError(f"key {key} is not stored")
        if self.arr.ctr_slot_count and self.arr.add_count(mid, rank, -1) >= 1:
            return
        self.arr.remove_fp(mid, rank)
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

        A key corrected here matches none of the fingerprints it was
        corrected against for as long as their keys stay stored,
        whatever inserts, deletes, merges and reloads follow; only a
        rebuild undoes that (see the module docstring).

        Extension slots share the 19/20 load cap with inserts: a filter
        at load L corrects about (0.95 - L) * 2**q distinct false
        positives, one slot each.  Past that, corrections fail as above,
        insert raises FilterFullError, and only rebuild, which drops
        every correction, gives the room back.
        """
        key, cfg = _key(key), self.cfg
        word = hash_word(key, cfg.seed, 0)
        mid = minirun_id(word, cfg)
        pair, box = unpack_minirun_id(mid, cfg.r), [key]  # the key, or its stream once built
        hit = self.arr.query_fp(box, 0, pair)
        if hit is None:
            return LookupResult.NOT_PRESENT, None
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
            if owner == word:
                return LookupResult.PRESENT, value
            if box[0] is key:
                box[0] = HashStream(key, cfg.seed)
            if adapting:
                try:
                    self.adapt(mid, rank, unhash_word(owner, cfg.seed), box[0])
                except (FilterFullError, AdaptationExhaustedError):
                    self.adaptation_failures += 1
                    adapting = False
            if not adapting:
                verdict = LookupResult.FALSE_POSITIVE
            # extension only narrows matches: the ranks before this one
            # still miss, and an adapted one now misses too
            hit = self.arr.query_fp(box[0], rank + 1, pair)
        return verdict, None

    def lookup_many(self, keys) -> list[tuple[LookupResult, bytes | None]]:
        """lookup() of each key in turn, as one batch.

        Element i is what lookup(keys[i]) returns when the keys are
        looked up one by one in order, and the filter, its counters and
        the reverse map end in the same state.  The batch is first
        probed against the table (SlotArray.contains_many): a key it
        rejects matches no fingerprint now, nor after any adaptation of
        this batch, since extension only narrows matches, so it answers
        NOT_PRESENT without a walk.  When the first _SAMPLE keys repeat
        (fewer than half of them distinct), each distinct key of the
        batch is probed once.  The survivors go through
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
        probe, head = keys, np.sort(keys[:_SAMPLE])
        if 2 * (np.count_nonzero(head[1:] != head[:-1]) + 1) < len(head):
            probe = np.sort(keys)
            probe = probe[np.append(True, probe[1:] != probe[:-1])]
        hit = self.arr.contains_many(probe)
        survivors = np.flatnonzero(hit if probe is keys else np.isin(keys, probe[hit]))
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

        Verifies the block offsets, one map entry per fingerprint at the
        matching (id, rank), and that every stored fingerprint is a
        prefix of its owner key's hash.  Raises StateCorruptionError.

        The table's rows and the map's both come in hash order, ties in
        rank order, so they hold the same entries exactly when every row
        has the same minirun id in both.  The map's id of a row is the top
        q + r bits of its hash word (hashing._pairs), so that comparison
        also checks the pair half of the prefix.  The table is read a
        block at a time (SlotArray._blocks), each compared with the map's
        rows at the same offset, read from its blocks (ReverseMap._runs)
        and joined in one copy per table block.  Only the rows with
        extension chunks have their words turned back into keys, for the
        chunks.  The first fault found, in the order of the checks in
        _fault, is raised.
        """
        fault = self._fault()
        if fault is not None:
            raise StateCorruptionError(fault)

    def _fault(self) -> str | None:
        """The message of check_consistency's first fault; None when
        there is none.  The views of the map's blocks that it reads,
        each of which keeps its block from growing, go with this call,
        before the check raises (ReverseMap._runs)."""
        cfg, arr = self.cfg, self.arr
        fresh = arr._block_offsets()
        for b in np.flatnonzero(arr.offsets != fresh)[:1].tolist():
            return f"block {b} keeps offset {arr.offsets[b]}, where its runs give {fresh[b]}"
        runs = self.map._runs()
        entries = sum(map(len, runs))
        take = _reader(runs)
        rows, wrong_id, not_prefix = 0, None, None
        for cols in arr._blocks():
            lo, rows = rows, rows + len(cols.quot)
            pieces = take(len(cols.quot))
            if wrong_id is None and rows <= entries and pieces:
                wrong_id, not_prefix = _block_faults(cols, np.concatenate(pieces), lo, cfg,
                                                     not_prefix)
        if rows != entries:
            return f"{rows} fingerprints, {entries} map entries"
        if wrong_id is not None:
            at, mid, entry = wrong_id
            return (f"filter and map disagree on minirun ids at row {at}: "
                    f"{mid} in the filter, {entry} in the map")
        if not_prefix is not None:
            mid, rank, word = not_prefix
            return (f"minirun {mid} rank {rank} is not a prefix of key "
                    f"{unhash_word(int(word), cfg.seed)}")
        return None

    def frozen_index(self) -> FrozenIndex:
        """A snapshot of the table for batch probes (SlotArray.frozen_index)."""
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
        in 24..31); then the map's value lengths and bytes, when some
        value is stored (ReverseMap._parts).
        """
        flags = sum(bit for bit, field in _FLAGS if getattr(self.policy, field))
        head = _HEAD.pack(COMBINED_MAGIC, COMBINED_VERSION, flags,
                          self.policy.max_extensions, self.arr.value_bits, 0,
                          self.adaptations, self.adaptivity_bits, self.adaptation_failures)
        parts = [head, section(self.arr._parts()), section(self.map._parts())]
        return seal(parts)

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
        """Write the snapshot to path, replacing the file there whole or
        not at all (snapshot.replace_file)."""
        replace_file(path, self.to_bytes())

    @classmethod
    def load(cls, path) -> "AdaptiveFilter":
        return cls.from_bytes(Path(path).read_bytes())
