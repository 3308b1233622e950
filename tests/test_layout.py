"""The columnar decoder, the layout writer and the scalar edits against
the raw-state oracle, the walk's reads, and snapshot loading under
every single-bit flip, with the checksum trailer as written and
recomputed, and under edits that leave the encoder's layout."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqf import core
from aqf.core import SlotArray, pack_minirun_id
from aqf.errors import FilterFullError, FormatError, NotFoundError, StateCorruptionError
from aqf.filter import AdaptiveFilter, LookupResult, Policy
from aqf.hashing import FilterConfig, HashStream, extension_chunk, split, split_batch
from aqf.snapshot import unseal

from oracles import (
    _bit,
    decode_raw,
    find_run,
    insert_whole,
    relaid,
    reseal,
    shorten_minirun,
    slot_fields,
    with_slot_fields,
)


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


def column_rows(cols, r):
    """Columns (arr._columns() or a block) as decode_raw rows, counts
    rebuilt from the digits."""
    chunks = cols.chunks.tolist()
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
    # hash order: decode_raw's storage order, stably sorted by quotient
    assert column_rows(arr._columns(), arr.cfg.r) == sorted(rows, key=lambda row: row[0])
    # the canonical layout, vacated payloads zeroed: what the snapshot
    # bytes of the benchmark's behaviour line depend on
    assert arr.to_bytes() == relaid(arr).to_bytes()
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
    fp = st.tuples(
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
    for (qt, rem, ext, count), value in fps:
        value &= (1 << value_bits) - 1
        try:
            insert_whole(arr, qt, rem, ext, count, value)
        except FilterFullError:
            continue
        model.setdefault((qt, rem), []).append((ext, count, value))
    check(arr, model)
    for op, pick, arg in edits:
        live = [(k, rank) for k, lst in model.items() for rank in range(len(lst))]
        if not live:
            break
        (qt, rem), rank = live[pick % len(live)]
        mid = pack_minirun_id(qt, rem, cfg.r)
        ext, count, value = model[(qt, rem)][rank]
        index = arr.frozen_index()
        if op == "remove":
            arr.remove_fp(mid, rank)
            model[(qt, rem)].pop(rank)
        elif op == "shorten":
            arr.remove_fp(mid, rank, shorten=True)
            rest = model[(qt, rem)]
            rest.pop(rank)
            exts = shorten_minirun([row[0] for row in rest])
            model[(qt, rem)] = [(e, *row[1:]) for e, row in zip(exts, rest)]
        else:
            count = 1 + arg % count
            arr.set_count(mid, rank, count)
            model[(qt, rem)][rank] = (ext, count, value)
        # any removal rebuilds the cached index; a count edit keeps it
        assert (arr.frozen_index() is index) == (op == "count")
        check(arr, model)


# Deterministic cases of the in-place delete and counter shrink: each is
# checked against the raw-state oracle and against the canonical layout
# that _lay_out writes from the same columns.

C52 = FilterConfig(q=5, r=2)


def wide(qt, rem, ext=(), count=1):
    """A fingerprint as (quotient, remainder, extension chunks, count)."""
    return qt, rem, ext, count


def filled(fps, cfg=C52):
    arr = SlotArray(cfg)
    for fp in fps:
        insert_whole(arr, *fp)
    return arr


def removed(fps, k):
    """decode_raw rows of fps, in insert order (already storage order),
    without the k-th."""
    return [(*fp, 0) for i, fp in enumerate(fps) if i != k]


def check_edit(arr, rows):
    assert decode_raw(arr) == rows
    # hash order: decode_raw's storage order, stably sorted by quotient
    assert column_rows(arr._columns(), arr.cfg.r) == sorted(rows, key=lambda row: row[0])
    assert arr.to_bytes() == relaid(arr).to_bytes()
    assert populations(arr) == (arr.used_count, arr.fp_count, arr.ext_slot_count,
                                arr.ctr_slot_count)


# quotient 4 holds a three-fingerprint run at slots 4-6, which pushes
# quotient 5 to slot 7 and quotient 6 to slot 8; quotient 9 sits at its
# canonical slot behind them
RUN3 = [wide(4, 1), wide(4, 2), wide(4, 3), wide(5, 0), wide(6, 1), wide(9, 2)]


@pytest.mark.parametrize("k", [0, 1, 2], ids=["first", "middle", "terminator"])
def test_remove_from_a_run(k):
    arr = filled(RUN3)
    arr.remove_fp(pack_minirun_id(*RUN3[k][:2], C52.r), 0)
    check_edit(arr, removed(RUN3, k))
    assert find_run(arr, 4) == (4, 2)
    assert find_run(arr, 5) == (6, 1) and find_run(arr, 6) == (7, 1)
    assert find_run(arr, 9) == (9, 1)


def test_remove_the_only_fingerprint_of_its_run():
    arr = filled(RUN3)
    arr.remove_fp(pack_minirun_id(5, 0, C52.r), 0)
    check_edit(arr, removed(RUN3, 3))
    assert not _bit(arr.occ, 5)
    # quotient 6 moves back one slot, to slot 7: still one past canonical
    assert find_run(arr, 6) == (7, 1)


def test_remove_from_a_run_that_wraps_the_seam():
    # quotient 30's run takes slots 30-1, and the three runs behind it
    # wait one to three slots past their quotients
    fps = [wide(30, 0), wide(30, 1), wide(30, 2), wide(30, 3), wide(31, 3), wide(0, 1),
           wide(1, 2)]
    arr = filled(fps)
    assert find_run(arr, 30) == (30, 4)
    assert [find_run(arr, qt)[0] for qt in (31, 0, 1)] == [2, 3, 4]
    arr.remove_fp(pack_minirun_id(30, 0, C52.r), 0)
    check_edit(arr, removed(fps, 0))
    assert find_run(arr, 30) == (30, 3)
    assert [find_run(arr, qt)[0] for qt in (31, 0, 1)] == [1, 2, 3]
    assert arr.used_count == 6 and not _bit(arr.used, 4)


def test_the_shift_shrinks_at_a_run_near_its_canonical_slot():
    # quotient 10's three-slot fingerprint (two extension chunks) pushes
    # quotient 11 two slots, quotient 12 two, quotient 14 one; quotient
    # 16 sits at its canonical slot
    fps = [wide(10, 1, (2, 3)), wide(11, 0), wide(12, 0), wide(14, 1), wide(16, 0)]
    arr = filled(fps)
    assert [find_run(arr, qt)[0] for qt in (10, 11, 12, 14, 16)] == [10, 13, 14, 15, 16]
    arr.remove_fp(pack_minirun_id(10, 1, C52.r), 0)
    check_edit(arr, removed(fps, 0))
    # shifts of 2, 2 and 1, then nothing: slots 13 and 15 fall empty
    assert [find_run(arr, qt)[0] for qt in (11, 12, 14, 16)] == [11, 12, 14, 16]
    assert [_bit(arr.used, i) for i in range(10, 18)] == [0, 1, 1, 0, 1, 0, 1, 0]


def test_remove_a_fingerprint_with_extension_and_counter_slots():
    # the middle fingerprint holds two chunks and the digits of 40 - 1
    fps = [wide(4, 1, (3,)), wide(4, 2, (1, 2), 40), wide(4, 3, (), 3),
           wide(6, 0), wide(7, 1)]
    arr = filled(fps)
    assert arr.ext_slot_count == 3 and arr.ctr_slot_count == 4
    arr.remove_fp(pack_minirun_id(4, 2, C52.r), 0)
    check_edit(arr, removed(fps, 1))
    assert (arr.ext_slot_count, arr.ctr_slot_count, arr.used_count) == (1, 1, 6)


@pytest.mark.parametrize("before,after,digits", [(10, 2, 1), (2, 1, 0), (10, 1, 0)],
                         ids=["two_digits_to_one", "one_digit_to_none", "two_digits_to_none"])
def test_counter_shrinks(before, after, digits):
    # r=2: 10 - 1 takes two base-4 digits, 2 - 1 one, 1 - 1 none
    fps = [wide(4, 1), wide(4, 2, (3,), before), wide(4, 3), wide(5, 0), wide(8, 1)]
    arr = filled(fps)
    arr.set_count(pack_minirun_id(4, 2, C52.r), 0, after)
    fps[1] = wide(4, 2, (3,), after)
    check_edit(arr, removed(fps, None))
    assert arr.ctr_slot_count == digits


def test_a_missing_rank_or_quotient_changes_nothing():
    arr = filled(RUN3 + [wide(9, 2, (), 5)])
    blob = arr.to_bytes()
    for mid, rank in ((pack_minirun_id(4, 1, C52.r), 1), (pack_minirun_id(4, 0, C52.r), 0),
                      (pack_minirun_id(12, 1, C52.r), 0), (pack_minirun_id(9, 2, C52.r), 2)):
        with pytest.raises(NotFoundError):
            arr.remove_fp(mid, rank)
        with pytest.raises(NotFoundError):
            arr.remove_fp(mid, rank, shorten=True)
        for count in (1, 2, 100):
            with pytest.raises(NotFoundError):
                arr.set_count(mid, rank, count)
        assert arr.to_bytes() == blob


# Walks read their whole cluster at once: a long cluster whose read
# doubles, a cluster across the seam, and a table smaller than one read.
# Fingerprints come from keys, so query_fp can be checked against the
# prefix model: a query matches the first fingerprint of its minirun,
# in rank order, whose extension chunks are a prefix of its own.


def chunks(cfg, key, count):
    stream = HashStream(key, cfg.seed)
    return tuple(extension_chunk(stream, cfg, t) for t in range(count))


def model_query(cfg, model, key):
    """(rank, extension length, value) of the prefix model's match, or None."""
    for rank, (ext, _, value) in enumerate(model.get(split(HashStream(key, cfg.seed), cfg), [])):
        if ext == chunks(cfg, key, len(ext)):
            return rank, len(ext), value
    return None


def counting_reads(arr):
    """Wrap arr's bit reads; returns the list that each read appends its
    (start, length) to.  A read across the seam is one read, not the two
    pieces it reads itself in."""
    calls, depth = [], [0]
    read = arr._read_bits

    def counted(start, length):
        if not depth[0]:
            calls.append((start, length))
        depth[0] += 1
        try:
            return read(start, length)
        finally:
            depth[0] -= 1

    arr._read_bits = counted
    return calls


def reads_of_walk(arr, qt):
    """How many bit reads one walk to quotient qt's run makes."""
    calls = counting_reads(arr)
    try:
        arr._walk_to_run(qt)
    finally:
        del arr._read_bits
    return len(calls)


@pytest.mark.parametrize("q,quots,size,walked,reads", [
    # the walked run sits 299 slots into the cluster: one read, then both
    # sides grow twice, 128 -> 256 -> 512 slots, one margin read each time
    (10, range(100, 400), 600, 399, 5),
    (8, range(-30, 10), 60, 5, 1),  # the cluster wraps past slot 255
    (5, range(8, 22), 16, 20, 1),  # 32 slots: one read holds the table twice
], ids=["doubling", "seam", "small"])
def test_cluster_reads(q, quots, size, walked, reads):
    cfg = FilterConfig(q=q, r=4, seed=q)
    n = 1 << q
    pool = np.random.default_rng(q).integers(0, 1 << 62, size=40 * n, dtype=np.uint64)
    quot = (split_batch(pool, cfg) >> np.uint64(cfg.r)).astype(np.int64)
    inside = pool[np.isin(quot, [x % n for x in quots])].tolist()
    keys, spare = inside[:size], inside[size:]
    arr = SlotArray(cfg, value_bits=1)
    model, owner = {}, {}  # owner: the key of each model entry

    def insert(key, nchunks, value):
        fp = split(HashStream(key, cfg.seed), cfg)
        ext = chunks(cfg, key, nchunks)
        lst = model.setdefault(fp, [])
        assert insert_whole(arr, *fp, ext, value=value) == (
            pack_minirun_id(*fp, cfg.r), len(lst))
        lst.append((ext, 1, value))
        owner.setdefault(fp, []).append(key)

    def verify():
        check(arr, model)
        for key in keys + spare[:300]:
            assert arr.query_fp(HashStream(key, cfg.seed)) == model_query(cfg, model, key)

    for i, key in enumerate(keys):
        insert(key, (i % 7 == 0) + (i % 11 == 0), i & 1)
    verify()
    assert _bit(arr.used, walked) and reads_of_walk(arr, walked) == reads
    win, _ = arr._walk_to_run(walked)
    if q == 8:
        assert (win.base - walked) % n > n // 2 and win.used >> (n - win.base)  # wraps
    # the runs of walked's cluster, in storage order
    length = win.used.bit_length()
    runs = sorted((qt for qt in {fp[0] for fp, lst in model.items() if lst}
                   if (qt - win.base) % n < length), key=lambda qt: (qt - win.base) % n)
    first, middle, last = runs[0], runs[len(runs) // 2], runs[-1]
    live = lambda qt: min(fp for fp, lst in model.items() if fp[0] == qt and lst)

    # insert into the middle run, then extend, grow and shrink the
    # counter of one of its fingerprints
    insert(next(k for k in spare if split(HashStream(k, cfg.seed), cfg)[0] == middle), 0, 0)
    verify()
    fp = live(middle)
    mid = pack_minirun_id(*fp, cfg.r)
    ext, count, value = model[fp][0]
    more = chunks(cfg, owner[fp][0], len(ext) + 2)[len(ext):]
    arr.extend_fp(mid, 0, more)
    model[fp][0] = (ext + more, count, value)
    verify()
    for count in (1000, 2, 1):  # r=4: three counter digits, then one, then none
        arr.set_count(mid, 0, count)
        model[fp][0] = (ext + more, count, value)
        verify()
    # delete at the first, a middle and the last run of the cluster
    for qt in (first, middle, last):
        fp = live(qt)
        arr.remove_fp(pack_minirun_id(*fp, cfg.r), 0)
        model[fp].pop(0)
        owner[fp].pop(0)
        verify()


@pytest.mark.parametrize("q", [5, 10])
def test_a_table_without_an_unused_slot_fails_the_walk(q):
    arr = SlotArray(FilterConfig(q=q, r=2))
    arr.insert_fp(3, 1)
    arr.used[:] = np.uint64((1 << 64) - 1)
    with pytest.raises(StateCorruptionError, match="no cluster boundary"):
        find_run(arr, 3)
    with pytest.raises(StateCorruptionError, match="no cluster boundary"):
        arr.remove_fp(pack_minirun_id(3, 1, arr.cfg.r), 0)


def counting_walks(arr):
    """Wrap arr's walks, stores and bit reads.  Returns a Counter of
    walks, stores and the reads the walks make, and the list of every
    read (counting_reads).  A store across the seam is one store, not
    the two pieces it writes itself in."""
    seen, depth = Counter(), [0]
    walk, store, reads = arr._walk_to_run, arr._store, counting_reads(arr)

    def walked(qt):
        seen["walks"] += 1
        before = len(reads)
        out = walk(qt)
        seen["walk reads"] += len(reads) - before
        return out

    def stored(win, lo, hi):
        seen["stores"] += not depth[0]
        depth[0] += 1
        try:
            store(win, lo, hi)
        finally:
            depth[0] -= 1

    arr._walk_to_run, arr._store = walked, stored
    return seen, reads


C64 = FilterConfig(q=6, r=4)
MID = {qt: pack_minirun_id(qt, rem, C64.r) for qt, rem in [(10, 1), (13, 2), (20, 3)]}

# (edit, reads outside the walk): one walk and one store each.  Slots
# 10-12 hold (10, 1) with two chunks, 13 holds (13, 2), 20 holds (20, 3)
# and 22 (22, 1).  The bare edits read nothing past the walk; the wide
# edits at 20 open into slot 21, which joins the cluster at 22, and the
# next open reads that cluster in.
SCALAR_EDITS = {
    "insert into a run": (lambda arr: arr.insert_fp(13, 5), 0),
    "insert a new run": (lambda arr: arr.insert_fp(30, 0), 0),
    "remove a bare fingerprint": (lambda arr: arr.remove_fp(MID[13], 0), 0),
    "extend by 3 chunks": (lambda arr: arr.extend_fp(MID[20], 0, [1, 2, 3]), 1),
    "grow the count by 2 digits": (lambda arr: arr.set_count(MID[20], 0, 100), 1),
    "remove a fingerprint 3 slots wide": (lambda arr: arr.remove_fp(MID[10], 0), 0),
}


@pytest.mark.parametrize("edit,reads", SCALAR_EDITS.values(), ids=SCALAR_EDITS.keys())
def test_a_scalar_edit_walks_once_and_stores_once(edit, reads):
    arr = SlotArray(C64)
    for qt, rem, ext in [(10, 1, (5, 6)), (13, 2, ()), (20, 3, ()), (22, 1, ())]:
        insert_whole(arr, qt, rem, ext)
    assert decode_raw(arr) == [(10, 1, (5, 6), 1, 0), (13, 2, (), 1, 0), (20, 3, (), 1, 0),
                               (22, 1, (), 1, 0)]
    assert find_run(arr, 13) == (13, 1) and find_run(arr, 22) == (22, 1)
    seen, all_reads = counting_walks(arr)
    edit(arr)
    assert (seen["walks"], seen["stores"], len(all_reads) - seen["walk reads"]) == (1, 1, reads)
    assert arr.to_bytes() == relaid(arr).to_bytes()


# Scalar edits in any order on small tables run up to the load cap, each
# checked against the model and the layout writer.  The edits that reach
# past one cluster are counted, as test_cluster_reads counts reads, and
# every run must meet each of them: an open that merges its cluster with
# the next one, a later open on the same window that reads in the
# cluster an earlier one joined, an open and a close across the seam,
# and a walk whose read grows.  The first read is narrowed for some
# tables, so that walks grow their reads on tables smaller than the
# usual read.

CASES = ("open merges clusters", "a later open reads the cluster it joins",
         "open across the seam", "close across the seam", "walk grows its read")


def count_cases(arr, seen):
    """Wrap arr's opens, closes and walks to count the CASES they meet."""
    n = arr.nslots
    open_slot, close_slot, walk = arr._open_slot, arr._close_slot, arr._walk_to_run
    reads = counting_reads(arr)

    def opened(win, at, run, ext, payload):
        end = win.used.bit_length()
        stop = open_slot(win, at, run, ext, payload)
        seen[CASES[0]] += _bit(arr.used, (win.base + stop) % n)
        seen[CASES[1]] += stop > end + 1
        seen[CASES[2]] += (win.base + at) % n + stop - at > n
        return stop

    def closed(win, qt, fp, at):
        hi = close_slot(win, qt, fp, at)
        seen[CASES[3]] += (win.base + at) % n + hi - at > n
        return hi

    def walked(qt):
        before = len(reads)
        out = walk(qt)
        seen[CASES[4]] += len(reads) - before > 1
        return out

    arr._open_slot, arr._close_slot, arr._walk_to_run = opened, closed, walked


@st.composite
def edit_programs(draw):
    q = draw(st.integers(2, 6))
    r = draw(st.integers(2, 4))
    n = 1 << q
    quot = st.one_of(st.integers(n - 3, n - 1), st.integers(0, n - 1))
    ext = st.lists(st.integers(0, (1 << r) - 1), max_size=3).map(tuple)
    count = st.one_of(st.just(1), st.integers(2, 1 << (2 * r + 1)))
    pick = st.integers(0, 10**6)
    insert = st.tuples(st.just("insert"), quot, st.integers(0, 1), ext, count, st.integers(0, 3))
    edit = st.one_of(
        insert,
        st.tuples(st.just("extend"), pick, ext.filter(bool)),
        st.tuples(st.just("count"), pick, count),
        st.tuples(st.just("remove"), pick, st.booleans()),
    )
    # enough inserts to run into the load cap, then edits of every kind
    fill = draw(st.lists(insert, min_size=n // 2, max_size=n))
    return (FilterConfig(q=q, r=r), draw(st.integers(0, 2)), draw(st.sampled_from([1, 4, core._READ])),
            fill + draw(st.lists(edit, max_size=3 * n)))


def run_edits(program, seen):
    """Apply an edit program to a table and the model, checking each edit."""
    cfg, value_bits, read, edits = program
    arr = SlotArray(cfg, value_bits=value_bits)
    count_cases(arr, seen)
    model = {}
    for op, pick, *args in edits:
        blob = arr.to_bytes()
        live = [(k, rank) for k, lst in model.items() for rank in range(len(lst))]
        if op == "insert":
            qt, (rem, ext, count, value) = pick, args
            value &= (1 << value_bits) - 1
            key = (qt, rem)
        elif not live:
            continue
        else:
            key, rank = live[pick % len(live)]
            mid = pack_minirun_id(*key, cfg.r)
            ext, count, value = model[key][rank]
        try:
            if op == "insert":
                insert_whole(arr, qt, rem, ext, count, value)
                model.setdefault(key, []).append((ext, count, value))
            elif op == "extend":
                arr.extend_fp(mid, rank, args[0])
                model[key][rank] = (ext + args[0], count, value)
            elif op == "count":
                arr.set_count(mid, rank, args[0])
                model[key][rank] = (ext, args[0], value)
            else:
                arr.remove_fp(mid, rank, shorten=args[0])
                rest = model[key]
                rest.pop(rank)
                if args[0]:
                    exts = shorten_minirun([row[0] for row in rest])
                    model[key] = [(e, *row[1:]) for e, row in zip(exts, rest)]
        except FilterFullError:
            assert arr.to_bytes() == blob
            continue
        check(arr, model)


EDIT_CASES = Counter()

# meets every case, whatever the random programs do: quotient 14's run
# wraps the seam and an insert into it moves the wrapped tail; quotient
# 2 joins its cluster to quotient 3's; the first chunk opened behind
# quotient 8's fingerprint joins the run at 10, which the second reads in
# and moves; the first delete closes across the seam; and a one-slot
# first read grows in every walk of a longer cluster
PINNED = (FilterConfig(q=4, r=2), 0, 1, [
    ("insert", 14, 0, (), 1, 0), ("insert", 14, 1, (), 1, 0), ("insert", 15, 0, (), 1, 0),
    ("insert", 14, 0, (), 1, 0), ("insert", 3, 0, (), 1, 0), ("insert", 2, 0, (), 1, 0),
    ("insert", 10, 0, (), 1, 0), ("insert", 8, 0, (1, 2), 1, 0), ("remove", 0, False)])


@settings(max_examples=60, deadline=None)
@given(program=edit_programs())
@example(program=PINNED)
def run_edit_programs(program, monkeypatch):
    monkeypatch.setattr(core, "_READ", program[2])
    run_edits(program, EDIT_CASES)


def test_scalar_edits_keep_the_layout(monkeypatch):
    EDIT_CASES.clear()
    run_edit_programs(monkeypatch=monkeypatch)
    assert all(EDIT_CASES[case] for case in CASES), EDIT_CASES


@pytest.fixture(scope="module")
def snapshot():
    """A 215-byte snapshot: q=7, r=5, one value bit, filled to the load cap."""
    rng = np.random.default_rng(7)
    arr = SlotArray(FilterConfig(q=7, r=5, seed=3), value_bits=1)
    while True:
        ext = tuple(int(c) for c in rng.integers(0, 32, size=rng.integers(0, 3)))
        count = int(rng.choice([1, 1, 1, 40, 2000]))
        fp = (int(rng.integers(0, 128)), int(rng.integers(0, 32)), ext, count)
        try:
            insert_whole(arr, *fp, value=int(rng.integers(0, 2)))
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
    loaded = zeroed = 0
    for bit in range((len(snapshot) - 4) * 8):
        blob = bytearray(snapshot)
        blob[bit >> 3] ^= 1 << (bit & 7)
        blob = reseal(blob)
        try:
            arr = SlotArray.from_bytes(blob)
        except FormatError as exc:
            zeroed += "zero counter digit" in str(exc)
            continue
        assert arr.to_bytes() == blob
        assert populations(arr) == (arr.used_count, arr.fp_count, arr.ext_slot_count,
                                    arr.ctr_slot_count)
        loaded += 1
    # the seed and most payload bits carry no redundancy, so their flips
    # must load; those of unused slots, of a tail slot's value bit and
    # of remainders that would leave their run's order fail, and so does
    # the flip of a count's last digit to zero, one per last digit that
    # holds a single set bit, each of which loaded before the loader
    # refused zero last digits
    (_, run, ext), pay = slot_fields(snapshot)
    digit = run & ext
    last = pay[digit & ~np.roll(digit, -1)] >> np.uint64(1)  # one value bit
    assert zeroed == sum(int(d).bit_count() == 1 for d in last) > 0
    assert loaded + zeroed >= 128 * 6


def test_every_truncation_fails_cleanly(snapshot):
    for cut in range(len(snapshot)):
        with pytest.raises(FormatError):
            SlotArray.from_bytes(snapshot[:cut])


# Snapshots that are not in the encoder's layout, behind a valid trailer:
# each must fail with FormatError, through the slot array's loader and
# through the filter's.


@pytest.fixture(scope="module")
def laid_filter():
    """A q=6 filter with a value bit and counted keys: quotient 10's run
    holds remainders 0 and 1 at slots 10-11, and slots 30-33 hold
    quotient 30's one fingerprint with two extension chunks and one
    counter digit; every other slot is unused."""
    cfg = FilterConfig(q=6, r=3, seed=11)
    pairs = {}
    for k in range(1 << 12):
        pairs.setdefault(split(HashStream(k, cfg.seed), cfg), []).append(k)
    owner, other = pairs[(30, 0)][:2]
    f = AdaptiveFilter(cfg, policy=Policy(dedupe_keys=True), value_bits=1)
    f.insert(pairs[(10, 1)][0], tag=1)
    f.insert(pairs[(10, 0)][0])
    f.insert(owner, tag=1)
    f.insert(owner)
    assert f.lookup(other)[0] == LookupResult.FALSE_POSITIVE_CORRECTED
    assert decode_raw(f.arr) == [(10, 0, (), 1, 0), (10, 1, (), 1, 1), (30, 0, (4, 4), 2, 1)]
    assert find_run(f.arr, 10) == (10, 2) and find_run(f.arr, 30) == (30, 4)
    return f


def swap_remainders(rows, pay):
    pay[[10, 11]] = pay[[11, 10]]


def digit_before_chunk(rows, pay):
    run = rows[1]
    run[32], run[33] = True, False
    pay[[32, 33]] = pay[[33, 32]]


def run_starts_extended(rows, pay):
    rows[2][10] = True


def payload_in_unused(rows, pay):
    pay[40] = 2


def value_bit_on_chunk(rows, pay):
    pay[31] |= np.uint64(1)


def zero_last_digit(rows, pay):
    pay[33] = 0  # count 1 with one digit, where the encoder writes none


def unterminated_run(rows, pay):
    rows[1][11] = False  # quotient 10's terminator


def occupied_past_its_run(rows, pay):
    rows[0][10], rows[0][12] = False, True


def extension_on_unused(rows, pay):
    rows[2][40] = True


OFF_LAYOUT = {
    "swapped_remainders": (swap_remainders, "out of order"),
    "digit_before_chunk": (digit_before_chunk, "after a counter digit"),
    "run_starts_extended": (run_starts_extended, "run starts with"),
    "payload_in_unused_slot": (payload_in_unused, "payload in an unused slot"),
    "value_bit_on_chunk": (value_bit_on_chunk, "value bits on an extension"),
    "zero_last_digit": (zero_last_digit, "zero counter digit"),
    "unterminated_run": (unterminated_run, "1 run terminators for 2 occupied quotients"),
    "occupied_past_its_run": (occupied_past_its_run, "run has no terminator"),
    "extension_on_unused_slot": (extension_on_unused, "extension bit on an unused slot"),
}


@pytest.mark.parametrize("edit,match", OFF_LAYOUT.values(), ids=OFF_LAYOUT.keys())
def test_a_snapshot_off_the_layout_is_rejected(laid_filter, edit, match, monkeypatch):
    slots = laid_filter.arr.to_bytes()
    rows, pay = slot_fields(slots)
    assert with_slot_fields(slots, rows, pay) == slots
    edit(rows, pay)
    bad = with_slot_fields(slots, rows, pay)
    # the same slot snapshot, less its trailer, inside a combined one, resealed
    whole = laid_filter.to_bytes()
    size = int.from_bytes(whole[36:44], "little")
    assert whole[44 : 44 + size] == slots[:-4]
    for block in (1 << 14, 4, 1):  # the loader's blocks: the whole table, or a few slots
        monkeypatch.setattr(core, "_BLOCK", block)
        with pytest.raises(FormatError, match=match):
            SlotArray.from_bytes(bad)
        with pytest.raises(FormatError, match=match):
            AdaptiveFilter.from_bytes(reseal(whole[:44] + bad[:-4] + whole[44 + size :]))


PADDED = ("occupied", "runend", "extension", "payload")


@pytest.mark.parametrize("section", PADDED)
@pytest.mark.parametrize("q", [1, 2])
def test_a_set_padding_bit_is_rejected(q, section):
    """At q <= 2 a bit vector's one byte holds bits past the last slot,
    and 5-bit payloads end in a partial byte.  The encoder leaves those
    bits zero, so a snapshot that sets them behind a valid trailer is
    refused, through the slot array's loader and the filter's."""
    f = AdaptiveFilter(FilterConfig(q=q, r=5, seed=1))
    f.insert(7)
    slots = f.arr.to_bytes()
    n = 1 << q
    if section == "payload":
        at, nbits = len(slots) - 5, 5 * n
    else:
        at, nbits = 34 + 8 + 9 * PADDED.index(section), n
    bad = bytearray(slots)
    bad[at] |= 0xFF << (nbits & 7) & 0xFF
    bad = reseal(bad)
    with pytest.raises(FormatError, match="padding bits"):
        SlotArray.from_bytes(bad)
    whole = f.to_bytes()
    size = int.from_bytes(whole[36:44], "little")
    assert whole[44 : 44 + size] == slots[:-4]
    with pytest.raises(FormatError, match="padding bits"):
        AdaptiveFilter.from_bytes(reseal(whole[:44] + bad[:-4] + whole[44 + size :]))


# the loader's blocks: the whole table, or a few slots each
loader_blocks = st.one_of(st.just(1 << 14), st.integers(1, 8))


@settings(max_examples=200, deadline=None)
@given(table=tables(), block=loader_blocks)
def test_the_loader_derives_the_ids_of_the_columns(table, block):
    """The minirun ids that a load derives from the table's blocks, which
    the filter's load hands to the reverse map, are those of the loaded
    table's columns in hash order, whatever cluster wraps the seam and
    wherever the first unused slot lies."""
    cfg, value_bits, fps = table
    arr = SlotArray(cfg, value_bits=value_bits)
    for (qt, rem, ext, count), v in fps:
        try:
            insert_whole(arr, qt, rem, ext, count, v & ((1 << value_bits) - 1))
        except FilterFullError:
            pass
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", block)
        back, mids = SlotArray._decode(unseal(arr.to_bytes()))
    assert mids.dtype == np.uint64
    assert mids.tolist() == arr._columns().packed(cfg.r).tolist()
    assert len(mids) == arr.fp_count
    assert np.array_equal(back.used, arr.used)
    assert (back.used_count, back.fp_count, back.ext_slot_count, back.ctr_slot_count) == (
        arr.used_count, arr.fp_count, arr.ext_slot_count, arr.ctr_slot_count)


MUTATIONS = ("swap", "occupied", "runend", "extension", "value")


@settings(max_examples=200, deadline=None)
@given(table=tables(), kind=st.sampled_from(MUTATIONS), i=st.integers(0, 63),
       j=st.integers(0, 63), value=st.integers(1, 3), block=loader_blocks)
def test_a_mutated_snapshot_fails_or_loads_in_the_layout(table, kind, i, j, value, block):
    """One edit of a valid slot snapshot, behind a recomputed trailer:
    two payloads swapped, one occupied, runend or extension bit flipped,
    or value bits set.  The loader, at any block size, refuses it with
    FormatError or loads a table in the layout that _lay_out writes,
    which encodes back to the same bytes."""
    cfg, value_bits, fps = table
    arr = SlotArray(cfg, value_bits=value_bits)
    for (qt, rem, ext, count), v in fps:
        try:
            insert_whole(arr, qt, rem, ext, count, v & ((1 << value_bits) - 1))
        except FilterFullError:
            pass
    blob = arr.to_bytes()
    rows, pay = slot_fields(blob)
    i, j = i % arr.nslots, j % arr.nslots
    if kind == "swap":
        pay[[i, j]] = pay[[j, i]]
    elif kind == "value":
        pay[i] |= np.uint64(value & ((1 << value_bits) - 1))
    else:
        row = rows[MUTATIONS.index(kind) - 1]
        row[i] = not row[i]
    bad = with_slot_fields(blob, rows, pay)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK", block)
            back = SlotArray.from_bytes(bad)
    except FormatError:
        return
    assert back.to_bytes() == bad
    assert relaid(back).to_bytes() == bad


# ----------------------------------------------------------------------
# the blockwise decode, with blocks of a few slots


def filled_table(table):
    """The SlotArray of a tables() draw, filled until the load cap."""
    cfg, value_bits, fps = table
    arr = SlotArray(cfg, value_bits=value_bits)
    for (qt, rem, ext, count), value in fps:
        try:
            insert_whole(arr, qt, rem, ext, count, value & ((1 << value_bits) - 1))
        except FilterFullError:
            pass
    return arr


def assert_same_index(got, want):
    for name in ("dir", "base", "cand_packed", "cand_len", "cand_chunks"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@settings(max_examples=200, deadline=None)
@given(table=tables(), block=st.integers(1, 20))
def test_blocks_hold_whole_runs_in_hash_order(table, block):
    """Blocks of a few slots, over tables whose clusters wrap the seam
    and hold extension chunks, counter digits and value bits: their
    rows, each block read with its own chunks, are decode_raw's rows in
    hash order; no run straddles two blocks; a lean block is a full one
    without values and counter spans; and an index built block by block
    equals the one built from the joined columns."""
    arr = filled_table(table)
    cfg = arr.cfg
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", block)
        full, lean = list(arr._blocks(full=True)), list(arr._blocks())
        blockwise = core.FrozenIndex(cfg, arr._blocks())
    rows = sorted(decode_raw(arr), key=lambda row: row[0])
    assert [row for cols in full for row in column_rows(cols, cfg.r)] == rows
    quots = [cols.quot.tolist() for cols in full if len(cols.quot)]
    assert all(a[-1] < b[0] for a, b in zip(quots, quots[1:]))
    assert len(lean) == len(full)
    for thin, cols in zip(lean, full):
        assert thin.value is None and thin.ctr_len is None
        assert all(np.array_equal(getattr(thin, name), getattr(cols, name))
                   for name in ("quot", "rem", "ext_off", "ext_len", "chunks"))
    assert_same_index(blockwise, core.FrozenIndex(cfg, arr._columns()))


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 1 << 14])
def test_blocks_read_a_cluster_across_the_seam(block, monkeypatch):
    """The top quotients' runs, with extension chunks, counter digits
    and value bits, wrap the seam and push quotient 0's run past slot 0;
    every block size cuts the table into whole runs in hash order."""
    cfg = FilterConfig(q=5, r=3)
    arr = SlotArray(cfg, value_bits=2)
    for fp, value in (((30, 1, (5, 6), 1), 3), ((31, 2, (), 300), 1), ((31, 2, (7,), 9), 2),
                      ((0, 4, (1, 2, 3), 2), 0), ((1, 0, (), 1), 1)):
        insert_whole(arr, *fp, value=value)
    assert _bit(arr.used, 0) and find_run(arr, 0)[0] == 9
    monkeypatch.setattr(core, "_BLOCK", block)
    blocks = list(arr._blocks(full=True))
    assert [row for cols in blocks for row in column_rows(cols, cfg.r)] == sorted(
        decode_raw(arr), key=lambda row: row[0])
    assert_same_index(arr.frozen_index(), core.FrozenIndex(cfg, arr._columns()))


def corrupted(fault):
    """A table with runs at quotients 3, 4, 9 and 20, broken by fault."""
    arr = SlotArray(FilterConfig(q=5, r=3))
    for fp in ((3, 1, (), 1), (3, 5, (), 1), (4, 2, (6,), 1), (9, 0, (), 1), (20, 7, (), 70)):
        insert_whole(arr, *fp)
    flip = lambda vec, i: vec.__setitem__(i >> 6, vec[i >> 6] ^ np.uint64(1 << (i & 63)))
    if fault == "occupied bit cleared":
        flip(arr.occ, 9)
    elif fault == "occupied bit added":
        flip(arr.occ, 28)
    elif fault == "terminator cleared at a cluster's end":
        flip(arr.run, 9)
    elif fault == "terminator cleared inside a cluster":
        flip(arr.run, 4)  # quotient 3's run now ends at quotient 4's
    elif fault == "extension bit opening a cluster":
        flip(arr.ext, 9)
    else:
        arr.used[:] = np.uint64((1 << 64) - 1)
    return arr


@pytest.mark.parametrize("block", [1, 4, 1 << 14])
@pytest.mark.parametrize("fault", [
    "occupied bit cleared", "occupied bit added", "terminator cleared at a cluster's end",
    "terminator cleared inside a cluster", "extension bit opening a cluster", "no unused slot"])
def test_a_corrupt_table_fails_the_blocks(fault, block, monkeypatch):
    """Terminators that do not pair up with occupied quotients, or a
    table without an unused slot, raise StateCorruptionError from the
    decode, the index and the merge's columns, at any block size."""
    arr = corrupted(fault)
    monkeypatch.setattr(core, "_BLOCK", block)
    for decode in (lambda: list(arr._blocks()), arr.frozen_index, arr._columns):
        with pytest.raises(StateCorruptionError):
            decode()
