"""The snapshot helpers: CRC32 combination and nested sections."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqf.snapshot import crc32_combine, le_bytes, sealed, section, unseal


@settings(max_examples=200, deadline=None)
@given(a=st.binary(max_size=300), b=st.binary(max_size=300), start=st.integers(0, 2**32 - 1))
def test_crc32_combine_is_the_crc_of_the_concatenation(a, b, start):
    crc_a = zlib.crc32(a, start)
    assert crc32_combine(crc_a, zlib.crc32(b), len(b)) == zlib.crc32(a + b, start)


@pytest.mark.parametrize("len2", [0, 1, 7, 4096, 7_549_744, 1 << 40])
def test_crc32_combine_at_long_lengths(len2):
    """Past a long run of zero bytes, checked against zlib; a zero CRC
    needs no shift."""
    zeros = bytes(min(len2, 1 << 23))
    if len(zeros) == len2:
        assert crc32_combine(0xDEADBEEF, zlib.crc32(zeros), len2) == zlib.crc32(
            zeros, 0xDEADBEEF)
    assert crc32_combine(0, 0x1234, len2) == 0x1234


@pytest.mark.parametrize("len1, len2", [(1 << 28, 1 << 28), (2**33 + 5, 2**35 + 123)])
def test_crc32_combine_composes_past_2_to_the_32_bits(len1, len2):
    """Shifting past len1 and then len2 zero bytes is shifting past
    len1 + len2: the powers x**(2**k) with k of 32 and more, which no
    byte string here is long enough to check against zlib, wrap to
    those of k - 32."""
    crc = 0xDEADBEEF
    assert crc32_combine(crc32_combine(crc, 0, len1), 0, len2) == crc32_combine(
        crc, 0, len1 + len2)


def flat_sealed(parts):
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def flat_section(parts):
    body = b"".join(parts)
    return struct.pack("<Q", len(body)) + body


def test_nested_sections_and_seals_write_the_flat_bytes():
    """Sections and seals nested in the parts of a section or a seal
    give the bytes and the trailer that the same parts laid out flat
    give."""
    col = np.arange(1000, dtype=np.uint64)
    inner = sealed([le_bytes(col, "<u8"), b"tail"])
    outer = sealed([b"head", section([b"x", section([b"yz"])]), section([inner]), [b"plain"]])
    want = flat_sealed([b"head", flat_section([b"x", flat_section([b"yz"])]),
                        flat_section([flat_sealed([col.tobytes(), b"tail"])]), b"plain"])
    got = b"".join(outer)
    assert got == want
    assert outer.size == len(want) and outer.crc == zlib.crc32(want)
    assert bytes(unseal(got)) == want[:-4]
