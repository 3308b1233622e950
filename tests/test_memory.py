"""Memory bounds of the whole-table passes and of a filled filter.

tracemalloc counts every numpy array a pass allocates, so the peak of
one call, over the keys it holds, is the number of bytes per key that
the pass needs above what was live before it.  At q=16 and 90% load a
fill peaks at about 40 bytes per key (numpy 2.4), against 151 with
8-byte slots and columns.  The first exact index and the consistency
check decode the table a block of about 2**14 slots at a time, so their
peaks are what they keep plus one block's temporaries: about 26.5 and
17.3 bytes per key at q=16, against 32 and 30 when each decoded the whole
table at once.  A load checks the layout over the whole table and then
takes the minirun ids from the same blocks: it peaks at about 23.9 bytes
per key at q=16, the filter it returns included, against 31.9 when it
built whole-table columns of rows to derive the ids.  The bounds leave
9% of headroom or more, so one more whole-table 8-byte temporary alive
at a pass's peak fails them.

The cached index keeps about 6.4 bytes per key: its quotient directory
and a 2-byte remainder per pair.  The bound leaves about 9% of headroom,
so a per-pair 1-byte flag or a packed 8-byte pair column fails it.

What a filled filter keeps is bounded too: at q=16 and 90% load about
18.8 bytes per key, 2.2 for the slots, 0.6 for the metadata bits and 16
for the reverse map's id and key columns.  The bound leaves about 5% of
headroom, so a structure of 1 byte per key beside the columns fails it.

A snapshot holds, per key, the slots and metadata bits (about 1.8 bytes
at q=16 and 85% load) and the map's entries cut to the 64 - q - r bits
below their minirun ids: 5 bytes at q + r = 25.  The bound, 6.8 bytes
per key, fails a map section that writes whole 8-byte entries (9.8).
"""

import gc
import tracemalloc

from aqf.filter import AdaptiveFilter
from aqf.hashing import FilterConfig
from aqf.workbench import fill_to_load

CFG = FilterConfig(q=16, r=9, seed=3)

FILL_BYTES_PER_KEY = 46
INDEX_BYTES_PER_KEY = 29
CHECK_BYTES_PER_KEY = 19
LOAD_BYTES_PER_KEY = 26
INDEX_LIVE_BYTES_PER_KEY = 7.0
LIVE_BYTES_PER_KEY = 19.8
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


def test_a_snapshot_stays_under_its_bytes_per_key():
    f, keys = fill_to_load(CFG, 0.85, seed=5)
    assert len(f.to_bytes()) / len(keys) <= SNAPSHOT_BYTES_PER_KEY
