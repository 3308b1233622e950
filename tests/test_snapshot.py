"""The snapshot helpers: nested sections and seals."""

import struct
import zlib

import numpy as np

from aqf.snapshot import le_bytes, sealed, section, unseal


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
    assert struct.unpack("<I", got[-4:])[0] == zlib.crc32(got[:-4])
    assert bytes(unseal(got)) == want[:-4]
