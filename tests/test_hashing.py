"""Hash stream and bit-layout behavior, checked against the naive
string extractor in oracles.py."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aqf.errors import InvalidConfigError
from aqf.hashing import (
    FilterConfig,
    HashStream,
    extension_chunk,
    extension_chunk_batch,
    hash_word,
    hash_word_batch,
    split,
    split_batch,
    unhash_word,
    unhash_word_batch,
)

from oracles import ref_chunk, ref_split, ref_unword, ref_word

# 64-bit values with both ends of the range drawn often
u64 = st.one_of(st.sampled_from([0, 1, (1 << 64) - 1]), st.integers(0, (1 << 64) - 1))


def fixed_stream(*words) -> HashStream:
    """A stream pinned to explicit words, for layout tests that care
    about exact bit patterns rather than any particular key."""
    s = HashStream(0, 0)
    s._words = list(words)
    return s


class TestHashWord:
    def test_matches_reference_mixer(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            key = int(rng.integers(0, 1 << 64, dtype=np.uint64))
            seed = int(rng.integers(0, 1 << 64, dtype=np.uint64))
            i = int(rng.integers(0, 12))
            assert hash_word(key, seed, i) == ref_word(key, seed, i)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(12)
        keys = rng.integers(0, 1 << 64, size=4096, dtype=np.uint64)
        for index in (0, 1, 7):
            batch = hash_word_batch(keys, seed=99, index=index)
            scalar = [hash_word(int(k), 99, index) for k in keys]
            assert batch.tolist() == scalar

    def test_stream_words_are_cached_consistently(self):
        s = HashStream(123456789, seed=42)
        w3 = s.word(3)
        assert s.word(3) == w3
        assert s.word(0) == hash_word(123456789, 42, 0)

    def test_output_bits_are_balanced(self):
        # avalanche sanity on word 0: each output bit near fair
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 1 << 64, size=200_000, dtype=np.uint64)
        words = hash_word_batch(keys, seed=0)
        ones = np.array(
            [np.count_nonzero(words >> np.uint64(b) & np.uint64(1)) for b in range(64)]
        )
        freq = ones / len(keys)
        # 4 standard errors of a fair coin at this sample size
        assert np.all(np.abs(freq - 0.5) < 4 * np.sqrt(0.25 / len(keys)))

    def test_baseline_collision_rate(self):
        # distinct keys collide on (quotient, remainder) at ~2^-(q+r)
        cfg = FilterConfig(q=8, r=8, seed=3)
        rng = np.random.default_rng(14)
        keys = rng.integers(0, 1 << 64, size=2000, dtype=np.uint64)
        packed = np.sort(split_batch(keys, cfg))
        _, counts = np.unique(packed, return_counts=True)
        pairs = int(np.sum(counts * (counts - 1) // 2))
        n_pairs = len(keys) * (len(keys) - 1) // 2
        expect = n_pairs / 65536
        assert abs(pairs - expect) < 4 * np.sqrt(expect)


class TestUnhashWord:
    @given(key=u64, seed=u64)
    def test_unhash_inverts_word_0(self, key, seed):
        word = hash_word(key, seed, 0)
        assert unhash_word(word, seed) == key == ref_unword(word, seed)

    @given(word=u64, seed=u64)
    def test_every_word_has_one_key(self, word, seed):
        """The mixer is a bijection: any 64-bit word is some key's."""
        assert hash_word(unhash_word(word, seed), seed, 0) == word

    @given(keys=st.lists(u64, max_size=50), seed=u64)
    def test_batch_matches_scalar(self, keys, seed):
        words = hash_word_batch(np.array(keys, dtype=np.uint64), seed)
        back = unhash_word_batch(words, seed)
        assert back.dtype == np.uint64
        assert back.tolist() == [unhash_word(int(w), seed) for w in words] == keys


class TestSplit:
    def test_all_zero_word(self):
        for q, r in [(4, 4), (8, 9), (20, 9)]:
            assert split(fixed_stream(0), FilterConfig(q=q, r=r)) == (0, 0)

    def test_top_byte_slices(self):
        s = fixed_stream(0b1011_0110 << 56)
        assert split(s, FilterConfig(q=4, r=4)) == (0b1011, 0b0110)

    def test_nine_bit_remainder_slice(self):
        s = fixed_stream(0xA5C3_0000_0000_0000)
        assert split(s, FilterConfig(q=8, r=9)) == (0xA5, 0b1100_0011_0)

    def test_matches_reference_extractor(self):
        rng = np.random.default_rng(21)
        for q, r in [(1, 1), (4, 4), (8, 9), (20, 9), (56, 8), (1, 56)]:
            cfg = FilterConfig(q=q, r=r, seed=7)
            for _ in range(50):
                key = int(rng.integers(0, 1 << 64, dtype=np.uint64))
                assert split(HashStream(key, 7), cfg) == ref_split(key, 7, q, r)

    def test_batch_packs_quotient_over_remainder(self):
        cfg = FilterConfig(q=12, r=7, seed=5)
        rng = np.random.default_rng(22)
        keys = rng.integers(0, 1 << 64, size=2048, dtype=np.uint64)
        packed = split_batch(keys, cfg)
        for k, p in zip(keys[:256], packed[:256]):
            qt, rem = split(HashStream(int(k), 5), cfg)
            assert int(p) == (qt << cfg.r) | rem


class TestExtensionChunk:
    def test_first_chunk_follows_baseline(self):
        s = fixed_stream(0b1011_0110_0010_1111 << 48)
        assert extension_chunk(s, FilterConfig(q=4, r=4), 0) == 0b0010

    def test_all_zero_stream(self):
        s = fixed_stream(0, 0, 0)
        cfg = FilterConfig(q=8, r=9)
        assert all(extension_chunk(s, cfg, i) == 0 for i in range(12))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            extension_chunk(HashStream(1, 0), FilterConfig(q=4, r=4), -1)

    def test_matches_reference_across_word_boundary(self):
        # q=8, r=9: chunk 5 sits at bits 62..70 and straddles the word
        # seam; neighbors sit cleanly inside one word
        cfg = FilterConfig(q=8, r=9, seed=17)
        rng = np.random.default_rng(23)
        for _ in range(200):
            key = int(rng.integers(0, 1 << 64, dtype=np.uint64))
            s = HashStream(key, 17)
            for i in range(8):
                assert extension_chunk(s, cfg, i) == ref_chunk(key, 17, 8, 9, i)

    def test_deep_chunks_match_reference(self):
        cfg = FilterConfig(q=20, r=9, seed=1)
        rng = np.random.default_rng(24)
        for _ in range(20):
            key = int(rng.integers(0, 1 << 64, dtype=np.uint64))
            s = HashStream(key, 1)
            for i in (0, 3, 7, 15, 30):
                assert extension_chunk(s, cfg, i) == ref_chunk(key, 1, 20, 9, i)

    def test_batch_matches_reference(self):
        # q=20, r=9: chunk 3 spans bits 56..65, across the first seam
        rng = np.random.default_rng(25)
        keys = rng.integers(0, 1 << 64, size=64, dtype=np.uint64)
        for q, r in ((20, 9), (8, 9), (6, 2), (1, 56)):
            cfg = FilterConfig(q=q, r=r, seed=9)
            for i in range(12):
                want = [ref_chunk(int(k), 9, q, r, i) for k in keys]
                assert extension_chunk_batch(keys, cfg, i).tolist() == want


class TestFilterConfig:
    def test_rejects_out_of_range_shapes(self):
        for bad in [dict(q=0, r=4), dict(q=4, r=0), dict(q=57, r=4), dict(q=32, r=33)]:
            with pytest.raises(InvalidConfigError):
                FilterConfig(**bad)
        with pytest.raises(InvalidConfigError):
            FilterConfig(q=4, r=4, seed=-1)
        with pytest.raises(InvalidConfigError):
            FilterConfig(q=4, r=4, seed=1 << 64)

    def test_accepts_boundary_shapes(self):
        assert FilterConfig(q=56, r=8).nslots == 1 << 56
        assert FilterConfig(q=8, r=56).q == 8
        assert FilterConfig(q=1, r=1, seed=(1 << 64) - 1).seed == (1 << 64) - 1
