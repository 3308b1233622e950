"""Memory bounds of the whole-table passes and of a filled filter.

tracemalloc counts every numpy array a pass allocates, so the peak of
one call, over the keys it holds, is the number of bytes per key that
the pass needs above what was live before it.  At q=16 and 90% load a
fill peaks at about 34.9 bytes per key (numpy 2.4), against 40.1 while
the layout writer compacted its masks and 151 with 8-byte slots and
columns.  The first exact index and the consistency check decode the
table a block of about 2**14 slots at a time, so their peaks are what
they keep plus one block's temporaries: about 26.5 and
15.5 bytes per key at q=16, against 32 and 30 when each decoded the whole
table at once.  A load checks the layout over the whole table and then
takes the minirun ids from the same blocks: it peaks at about 23.9 bytes
per key at q=16, the filter it returns included, against 31.9 when it
built whole-table columns of rows to derive the ids.  The bounds leave
9% of headroom or more, so one more whole-table 8-byte temporary alive
at a pass's peak fails them.

After 100 fresh inserts, which write into the reverse map's blocks in
place, the check joins the map's rows of one table block at a time, as
it does on a fresh filter: at q=16 it peaks at about 15.5 bytes per key
(18.0 while it compared the pieces where a table block and a map block
meet one at a time, 22.7 while the map kept an id column beside its
entries), against 33.3 when a map with
written entries was merged into whole new columns first.  A save writes
the map's entry columns straight into the snapshot, a block's rows at a
time: beyond its blob it peaks at about 1.5 bytes per key, against 21.9
with the merge.  The bounds fail one more
whole-map 8-byte temporary.

The cached index keeps about 6.4 bytes per key: its quotient directory
and a 2-byte remainder per pair.  The bound leaves about 9% of headroom,
so a per-pair 1-byte flag or a packed 8-byte pair column fails it.

What a filled filter keeps is bounded too: at q=16 and 90% load about
10.8 bytes per key, 2.2 for the slots, 0.6 for the metadata bits and 8
for the reverse map's entries, against 18.8 when the map kept a uint64
id column beside them.  The bound leaves about 5% of headroom, so a
structure of 1 byte per key beside the columns fails it.  The same
bound holds a loaded filter after deletes that write into half of its
map's blocks: every block owns its rows, so it keeps about 11.1 bytes
per key, against 15.5 while a loaded map kept its whole load-time
column as long as any unwritten block was a view of it.

A snapshot holds, per key, the slots and metadata bits (about 1.8 bytes
at q=16 and 85% load) and the map's entries cut to the 64 - q - r bits
below their minirun ids: 5 bytes at q + r = 25.  The bound, 6.8 bytes
per key, fails a map section that writes whole 8-byte entries (9.8).
"""

import gc
import tracemalloc

import numpy as np

from aqf.filter import AdaptiveFilter
from aqf.hashing import FilterConfig
from aqf.workbench import fill_to_load

CFG = FilterConfig(q=16, r=9, seed=3)

FILL_BYTES_PER_KEY = 38.1
INDEX_BYTES_PER_KEY = 29
CHECK_BYTES_PER_KEY = 19
CHECK_AFTER_INSERTS_BYTES_PER_KEY = 25
SAVE_BEYOND_BLOB_BYTES_PER_KEY = 9
LOAD_BYTES_PER_KEY = 26
INDEX_LIVE_BYTES_PER_KEY = 7.0
LIVE_BYTES_PER_KEY = 11.4
SNAPSHOT_BYTES_PER_KEY = 6.8


def peak_bytes(call):
    """(call's result, the tracemalloc peak over the call)."""
    gc.collect()
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_fill_stays_under_its_bytes_per_key():
    fill_to_load(CFG, 0.9, seed=4)  # first-call allocations stay out of the count
    (_, keys), peak = peak_bytes(lambda: fill_to_load(CFG, 0.9, seed=5))
    assert peak / len(keys) < FILL_BYTES_PER_KEY


def test_the_first_index_stays_under_its_bytes_per_key():
    f, keys = fill_to_load(CFG, 0.9, seed=5)
    _, peak = peak_bytes(f.frozen_index)
    assert peak / len(keys) < INDEX_BYTES_PER_KEY


def test_the_consistency_check_stays_under_its_bytes_per_key():
    f, keys = fill_to_load(CFG, 0.9, seed=5)
    _, peak = peak_bytes(f.check_consistency)
    assert peak / len(keys) < CHECK_BYTES_PER_KEY


def filled_and_written():
    """A filter filled to 90% and then given 100 fresh keys."""
    f, _ = fill_to_load(CFG, 0.9, seed=5)
    for key in np.random.default_rng(6).integers(1 << 62, 1 << 63, size=100,
                                                  dtype=np.uint64).tolist():
        f.insert(key)
    return f


def test_the_check_after_fresh_inserts_stays_under_its_bytes_per_key():
    f = filled_and_written()
    _, peak = peak_bytes(f.check_consistency)
    assert peak / len(f) < CHECK_AFTER_INSERTS_BYTES_PER_KEY


def test_a_save_after_fresh_inserts_stays_under_its_bytes_per_key_beyond_its_blob():
    f = filled_and_written()
    blob, peak = peak_bytes(f.to_bytes)
    assert (peak - len(blob)) / len(f) < SAVE_BEYOND_BLOB_BYTES_PER_KEY


def test_a_load_stays_under_its_bytes_per_key():
    f, keys = fill_to_load(CFG, 0.9, seed=5)
    blob = f.to_bytes()
    del f
    AdaptiveFilter.from_bytes(blob)  # first-call allocations stay out of the count
    _, peak = peak_bytes(lambda: AdaptiveFilter.from_bytes(blob))
    assert peak / len(keys) < LOAD_BYTES_PER_KEY


def test_the_cached_index_keeps_under_its_bytes_per_key():
    f, keys = fill_to_load(CFG, 0.9, seed=5)
    gc.collect()
    tracemalloc.start()
    try:
        f.frozen_index()
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live / len(keys) < INDEX_LIVE_BYTES_PER_KEY


def test_a_filled_filter_keeps_under_its_bytes_per_key():
    fill_to_load(CFG, 0.9, seed=4)  # first-call allocations stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        f = fill_to_load(CFG, 0.9, seed=5)[0]
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live / len(f) < LIVE_BYTES_PER_KEY


def test_a_loaded_filter_half_written_keeps_under_its_bytes_per_key():
    """Deletes of every 64th key of the first half of hash order write
    into every map block that holds that half: each block owns its
    rows, so the map keeps no load-time column beside its copies."""
    f, keys = fill_to_load(CFG, 0.9, seed=5)
    blob = f.to_bytes()
    del f
    AdaptiveFilter.from_bytes(blob).delete(int(keys[0]))  # first-call allocations stay out
    gc.collect()
    tracemalloc.start()
    try:
        f = AdaptiveFilter.from_bytes(blob)
        for key in keys[: len(keys) // 2 : 64].tolist():
            f.delete(key)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live / len(f) < LIVE_BYTES_PER_KEY


def test_a_snapshot_stays_under_its_bytes_per_key():
    f, keys = fill_to_load(CFG, 0.85, seed=5)
    assert len(f.to_bytes()) / len(keys) <= SNAPSHOT_BYTES_PER_KEY
