"""The columnar decoder and the layout writer against the raw-state
oracle, and snapshot loading under every single-bit flip, with the
checksum trailer as written and recomputed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqf.core import Fingerprint, SlotArray, pack_minirun_id
from aqf.errors import FilterFullError, FormatError
from aqf.hashing import FilterConfig

from oracles import decode_raw, reseal, shorten_minirun


def populations(arr):
    """(used, fingerprints, extension chunks, counter digits) from the bits."""
    pop = lambda vec: int(np.bitwise_count(vec).sum())
    return (pop(arr.used), pop(arr.used & ~arr.ext), pop(arr.ext & ~arr.run),
            pop(arr.ext & arr.run))


def grouped(rows):
    """decode_raw rows as {(quotient, remainder): [(ext, count, value), ...]}."""
    out = {}
    for qt, rem, ext, count, value in rows:
        out.setdefault((qt, rem), []).append((ext, count, value))
    return out


def column_rows(arr):
    """arr._columns() as decode_raw rows, counts rebuilt from the digits."""
    cols = arr._columns()
    chunks, r = cols.chunks.tolist(), arr.cfg.r
    rows = []
    for qt, rem, value, o, e, d in zip(*(col.tolist() for col in (
            cols.quot, cols.rem, cols.value, cols.ext_off, cols.ext_len, cols.ctr_len))):
        digits = chunks[o + e : o + e + d]
        count = 1 + sum(dg << (k * r) for k, dg in enumerate(digits))
        rows.append((qt, rem, tuple(chunks[o : o + e]), count, value))
    return rows


def check(arr, model):
    rows = decode_raw(arr)
    assert grouped(rows) == {k: v for k, v in model.items() if v}
    assert column_rows(arr) == rows
    assert populations(arr) == (arr.used_count, arr.fp_count, arr.ext_slot_count,
                                arr.ctr_slot_count)
    back = SlotArray.from_bytes(arr.to_bytes())
    assert decode_raw(back) == rows
    assert populations(back) == populations(arr)


@st.composite
def tables(draw):
    q = draw(st.integers(2, 6))
    r = draw(st.integers(2, 4))
    n = 1 << q
    # quotients near the top of the table make clusters wrap the seam
    quot = st.one_of(st.integers(n - 3, n - 1), st.integers(0, n - 1))
    fp = st.builds(
        Fingerprint,
        quot,
        st.integers(0, 1),  # two remainders: miniruns of several ranks
        st.lists(st.integers(0, (1 << r) - 1), max_size=3).map(tuple),
        st.one_of(st.just(1), st.integers(2, 1 << (2 * r + 1))),
    )
    return (FilterConfig(q=q, r=r), draw(st.integers(0, 2)),
            draw(st.lists(st.tuples(fp, st.integers(0, 3)), max_size=40)))


edit_st = st.tuples(st.sampled_from(["remove", "shorten", "count"]),
                    st.integers(0, 10**6), st.integers(0, 10**6))


@settings(max_examples=200, deadline=None)
@given(table=tables(), edits=st.lists(edit_st, max_size=25))
def test_decoder_and_writer_match_the_oracle(table, edits):
    cfg, value_bits, fps = table
    arr = SlotArray(cfg, value_bits=value_bits)
    model = {}
    for fp, value in fps:
        value &= (1 << value_bits) - 1
        try:
            arr.insert_fp(fp, value=value)
        except FilterFullError:
            continue
        model.setdefault((fp.quotient, fp.remainder), []).append((fp.ext, fp.count, value))
    check(arr, model)
    for op, pick, arg in edits:
        live = [(k, rank) for k, lst in model.items() for rank in range(len(lst))]
        if not live:
            break
        (qt, rem), rank = live[pick % len(live)]
        mid = pack_minirun_id(qt, rem, cfg.q)
        ext, count, value = model[(qt, rem)][rank]
        if op == "remove":
            arr.remove_fp(mid, rank)
            model[(qt, rem)].pop(rank)
        elif op == "shorten":
            index = arr.superset_index()
            arr.remove_fp(mid, rank, shorten=True)
            rest = model[(qt, rem)]
            rest.pop(rank)
            exts = shorten_minirun([row[0] for row in rest])
            cut = exts != [row[0] for row in rest]
            model[(qt, rem)] = [(e, *row[1:]) for e, row in zip(exts, rest)]
            # only a cut can widen what the table matches
            assert (arr.superset_index() is index) == (not cut)
        else:
            count = 1 + arg % count
            arr.set_count(mid, rank, count)
            model[(qt, rem)][rank] = (ext, count, value)
        check(arr, model)


@pytest.fixture(scope="module")
def snapshot():
    """A 215-byte snapshot: q=7, r=5, one value bit, filled to the load cap."""
    rng = np.random.default_rng(7)
    arr = SlotArray(FilterConfig(q=7, r=5, seed=3), value_bits=1)
    while True:
        ext = tuple(int(c) for c in rng.integers(0, 32, size=rng.integers(0, 3)))
        count = int(rng.choice([1, 1, 1, 40, 2000]))
        fp = Fingerprint(int(rng.integers(0, 128)), int(rng.integers(0, 32)), ext, count)
        try:
            arr.insert_fp(fp, value=int(rng.integers(0, 2)))
        except FilterFullError:
            if arr.used_count >= 121:
                return arr.to_bytes()


def test_snapshot_is_at_the_load_cap(snapshot):
    arr = SlotArray.from_bytes(snapshot)
    assert len(snapshot) == 215
    assert arr.used_count == 121 and arr.ext_slot_count and arr.ctr_slot_count


def test_every_bit_flip_fails(snapshot):
    """No flip loads: the trailer catches every single-bit flip, payload
    bits included."""
    for bit in range(len(snapshot) * 8):
        blob = bytearray(snapshot)
        blob[bit >> 3] ^= 1 << (bit & 7)
        with pytest.raises(FormatError):
            SlotArray.from_bytes(bytes(blob))


def test_every_bit_flip_fails_cleanly_or_reloads_identically(snapshot):
    """Behind the trailer: with the trailer recomputed, a flip either
    fails a field check or loads a table that encodes to the same bytes."""
    loaded = 0
    for bit in range((len(snapshot) - 4) * 8):
        blob = bytearray(snapshot)
        blob[bit >> 3] ^= 1 << (bit & 7)
        blob = reseal(blob)
        try:
            arr = SlotArray.from_bytes(blob)
        except FormatError:
            continue
        assert arr.to_bytes() == blob
        assert populations(arr) == (arr.used_count, arr.fp_count, arr.ext_slot_count,
                                    arr.ctr_slot_count)
        loaded += 1
    # payload bits carry no redundancy, so their flips must load
    assert loaded >= 128 * 6


def test_every_truncation_fails_cleanly(snapshot):
    for cut in range(len(snapshot)):
        with pytest.raises(FormatError):
            SlotArray.from_bytes(snapshot[:cut])
