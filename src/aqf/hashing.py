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
and the finalizer provides both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xFF51AFD7ED558CCD
_MIX2 = 0xC4CEB9FE1A85EC53


def _fmix64(z: int) -> int:
    """Finalizer round: full avalanche over 64 bits."""
    z ^= z >> 33
    z = (z * _MIX1) & MASK64
    z ^= z >> 33
    z = (z * _MIX2) & MASK64
    z ^= z >> 33
    return z


def hash_word(key: int, seed: int, index: int) -> int:
    """Word ``index`` of ``key``'s stream under ``seed``."""
    salt = _fmix64((seed + index * _GOLDEN) & MASK64)
    return _fmix64((key & MASK64) ^ salt)


def hash_word_batch(keys: np.ndarray, seed: int, index: int = 0) -> np.ndarray:
    """Vectorized :func:`hash_word` over a uint64 key array.

    Bit-identical to the scalar path; tests pin the equivalence.
    """
    salt = np.uint64(_fmix64((seed + index * _GOLDEN) & MASK64))
    z = keys.astype(np.uint64, copy=True)
    z ^= salt
    z ^= z >> np.uint64(33)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(33)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(33)
    return z


@dataclass(frozen=True)
class FilterConfig:
    """Geometry of a filter: 2**q slots of r-bit remainders, one hash seed."""

    q: int
    r: int
    seed: int = 0

    def __post_init__(self):
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

    Words are computed on demand and cached, so asking for deep extension
    chunks during adaptation only ever pays for the words it touches.
    """

    __slots__ = ("key", "seed", "_words")

    def __init__(self, key: int, seed: int):
        self.key = key & MASK64
        self.seed = seed
        self._words: list[int] = []

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
    word0 = stream.word(0)
    quotient = word0 >> (64 - cfg.q)
    remainder = (word0 >> (64 - cfg.q - cfg.r)) & ((1 << cfg.r) - 1)
    return quotient, remainder


def extension_chunk(stream: HashStream, cfg: FilterConfig, i: int) -> int:
    """The i-th r-bit adaptation chunk, drawn after the baseline prefix."""
    if i < 0:
        raise ValueError("chunk index must be non-negative")
    lo = cfg.q + cfg.r + i * cfg.r
    return stream.bits(lo, cfg.r)


def split_batch(keys: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """Packed ``(quotient << r) | remainder`` values for a uint64 key array."""
    word0 = hash_word_batch(keys, cfg.seed, 0)
    return word0 >> np.uint64(64 - cfg.q - cfg.r)


def extension_chunk_batch(keys: np.ndarray, cfg: FilterConfig, i: int) -> np.ndarray:
    """Vectorized :func:`extension_chunk` over a uint64 key array."""
    if i < 0:
        raise ValueError("chunk index must be non-negative")
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
