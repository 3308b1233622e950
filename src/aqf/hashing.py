"""Keyed hash streams and fingerprint bit layout.

Every key owns an unbounded, reproducible bit string: word ``i`` of the
stream is a mixed function of ``(key, seed + i)``, and bits are numbered
MSB-first inside each 64-bit word.  The filter consumes a prefix of that
string: the first ``q`` bits select a slot (the quotient), the next ``r``
bits are the stored remainder, and adaptation appends later ``r``-bit
chunks one at a time.  Because the chunks come from fixed, disjoint bit
ranges, two lookups of the same key always see the same stream, and a
fingerprint can be re-derived from nothing but the key and the seed.

The word mixer is a MurmurHash-style 64-bit finalizer.  Nothing here
needs cryptographic strength; it needs avalanche and cheap vectorization,
and the finalizer provides both.  Its xorshifts by 33 bits undo
themselves and its multipliers are odd, so a word is a bijection of its
key: ``unhash_word`` gives the key back, which lets a filter keep each
key's word 0 in place of the key.
"""

from __future__ import annotations

import array
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidConfigError

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xFF51AFD7ED558CCD
_MIX2 = 0xC4CEB9FE1A85EC53
# their inverses modulo 2**64
_UNMIX1 = pow(_MIX1, -1, 1 << 64)
_UNMIX2 = pow(_MIX2, -1, 1 << 64)


def _fmix64(z: int, m1: int = _MIX1, m2: int = _MIX2) -> int:
    """Finalizer round: full avalanche over 64 bits.  With the inverses
    of its multipliers in swapped order (_UNMIX2, _UNMIX1) it undoes
    itself."""
    z ^= z >> 33
    z = (z * m1) & MASK64
    z ^= z >> 33
    z = (z * m2) & MASK64
    z ^= z >> 33
    return z


def _fmix64_batch(z: np.ndarray, m1: int = _MIX1, m2: int = _MIX2) -> np.ndarray:
    """_fmix64 in place over a uint64 array, which it returns."""
    z ^= z >> np.uint64(33)
    z *= np.uint64(m1)
    z ^= z >> np.uint64(33)
    z *= np.uint64(m2)
    z ^= z >> np.uint64(33)
    return z


@lru_cache(maxsize=1024)
def _salt(seed: int, index: int) -> int:
    """The mixed (seed, word index) that word ``index`` of every stream
    under ``seed`` xors into its key; a filter asks for a handful."""
    return _fmix64((seed + index * _GOLDEN) & MASK64)


def hash_word(key: int, seed: int, index: int) -> int:
    """Word ``index`` of ``key``'s stream under ``seed``."""
    return _fmix64((key & MASK64) ^ _salt(seed, index))


def hash_word_batch(keys: np.ndarray, seed: int, index: int = 0) -> np.ndarray:
    """Vectorized :func:`hash_word` over a uint64 key array.

    Bit-identical to the scalar path; tests pin the equivalence.
    """
    z = keys.astype(np.uint64, copy=True)
    z ^= np.uint64(_salt(seed, index))
    return _fmix64_batch(z)


def unhash_word(word: int, seed: int) -> int:
    """The key whose word 0 under ``seed`` is word: the inverse of
    hash_word."""
    return _fmix64(word, _UNMIX2, _UNMIX1) ^ _salt(seed, 0)


def unhash_word_batch(words: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized :func:`unhash_word` over a uint64 word array."""
    z = _fmix64_batch(words.astype(np.uint64, copy=True), _UNMIX2, _UNMIX1)
    z ^= np.uint64(_salt(seed, 0))
    return z


def as_index(value, name: str) -> int:
    """value as an int, as operator.index takes it; InvalidConfigError
    for anything else."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise InvalidConfigError(f"{name} must be an int, got {value!r}") from exc


def _int_in(value, name: str, low, high) -> int:
    """value as an int (see as_index) in [low, high]; InvalidConfigError
    for anything else."""
    value = as_index(value, name)
    if not low <= value <= high:
        raise InvalidConfigError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def _real(value, name: str):
    """value, if it is a real number (numbers.Real: an int, a float or a
    numpy number of either); InvalidConfigError for anything else.  The
    caller checks its range."""
    if not isinstance(value, numbers.Real):
        raise InvalidConfigError(f"{name} must be a real number, got {value!r}")
    return value


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
        # an unsigned 64-bit array takes each element through __index__
        # and range-checks it, as operator.index and the bounds would; all
        # but a list go in as an iterator, so bytes count as ints, not as
        # a raw buffer
        items = keys if isinstance(keys, list) else iter(keys)
        return np.frombuffer(array.array("Q", items), dtype=np.uint64)
    except (OverflowError, TypeError) as exc:
        raise InvalidConfigError(f"keys must be ints in [0, 2**64): {exc}") from exc


@dataclass(frozen=True)
class FilterConfig:
    """Geometry of a filter: 2**q slots of r-bit remainders, one hash seed."""

    q: int
    r: int
    seed: int = 0

    def __post_init__(self):
        for name in ("q", "r", "seed"):
            as_index(getattr(self, name), name)
        if not (1 <= self.q <= 56):
            raise InvalidConfigError(f"q must be in [1, 56], got {self.q}")
        if not (1 <= self.r <= 56):
            raise InvalidConfigError(f"r must be in [1, 56], got {self.r}")
        if self.q + self.r > 64:
            raise InvalidConfigError(
                f"q + r must fit one hash word: {self.q} + {self.r} > 64"
            )
        if not (0 <= self.seed <= MASK64):
            raise InvalidConfigError("seed must be an unsigned 64-bit value")

    @property
    def nslots(self) -> int:
        return 1 << self.q


class HashStream:
    """Lazy view of one key's unbounded hash bit string.

    Word 0, which holds the quotient and remainder, is computed when the
    stream is made; later words on demand, and cached, so asking for deep
    extension chunks during adaptation only ever pays for the words it
    touches.
    """

    __slots__ = ("key", "seed", "_words")

    def __init__(self, key: int, seed: int):
        self.key = key & MASK64
        self.seed = seed
        self._words = [hash_word(self.key, seed, 0)]

    def word(self, i: int) -> int:
        while len(self._words) <= i:
            self._words.append(hash_word(self.key, self.seed, len(self._words)))
        return self._words[i]

    def bits(self, lo: int, width: int) -> int:
        """Bits [lo, lo+width) as an int, MSB-first, crossing words as needed."""
        if width <= 0:
            return 0
        hi = lo + width
        w0 = lo >> 6
        w1 = (hi - 1) >> 6
        if w0 == w1:
            shift = ((w0 + 1) << 6) - hi
            return (self.word(w0) >> shift) & ((1 << width) - 1)
        left = ((w0 + 1) << 6) - lo
        right = width - left
        return (self.bits(lo, left) << right) | self.bits(w1 << 6, right)


def split(stream: HashStream, cfg: FilterConfig) -> tuple[int, int]:
    """Leading (quotient, remainder) pair of the stream under ``cfg``."""
    r = cfg.r
    pair = stream._words[0] >> (64 - cfg.q - r)
    return pair >> r, pair & ((1 << r) - 1)


def extension_chunk(stream: HashStream, cfg: FilterConfig, i: int) -> int:
    """The i-th r-bit adaptation chunk, drawn after the baseline prefix."""
    if i < 0:
        raise InvalidConfigError("chunk index must be non-negative")
    lo = cfg.q + cfg.r + i * cfg.r
    return stream.bits(lo, cfg.r)


def split_batch(keys: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """Packed ``(quotient << r) | remainder`` values for a uint64 key array."""
    return _pairs(hash_word_batch(keys, cfg.seed, 0), cfg)


def _pairs(words: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """split_batch of the keys whose words 0 are words: their top q + r
    bits."""
    return words >> np.uint64(64 - cfg.q - cfg.r)


def extension_chunk_batch(keys: np.ndarray, cfg: FilterConfig, i: int) -> np.ndarray:
    """Vectorized :func:`extension_chunk` over a uint64 key array."""
    if i < 0:
        raise InvalidConfigError("chunk index must be non-negative")
    lo = cfg.q + cfg.r + i * cfg.r
    hi = lo + cfg.r
    w0, w1 = lo >> 6, (hi - 1) >> 6
    mask = np.uint64((1 << cfg.r) - 1)
    word = hash_word_batch(keys, cfg.seed, w0)
    if w0 == w1:
        return (word >> np.uint64(((w0 + 1) << 6) - hi)) & mask
    # the chunk ends ``right`` bits into the next word: its low bits are
    # that word's top bits, the rest are the low bits of this one
    right = hi - (w1 << 6)
    nxt = hash_word_batch(keys, cfg.seed, w1)
    return ((word << np.uint64(right)) | (nxt >> np.uint64(64 - right))) & mask


def _chunk_rounds(words: np.ndarray, ext_len: np.ndarray, cfg: FilterConfig):
    """(t, rows, chunks) for t = 0, 1, ...: the rows whose ext_len
    exceeds t, and the t-th extension chunk of each, drawn from the key
    whose word 0 under cfg is the row's word.  Only those rows' words
    are turned back into keys."""
    rows = np.flatnonzero(ext_len)
    keys, ext_len = unhash_word_batch(words[rows], cfg.seed), ext_len[rows]
    for t in range(int(ext_len.max(initial=0))):
        on = ext_len > t
        yield t, rows[on], extension_chunk_batch(keys[on], cfg, t)
