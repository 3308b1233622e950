"""The adaptive filter against the prefix model under any sequence of
inserts, deletes, lookups, merges, rebuilds and reloads, and the dynamic
yes/no filter under any sequence of its updates, queries and reloads.

At q=3..6 clusters wrap the seam, counters and extensions compete for
slots and inserts run into the load cap.  The filter machine runs with
adaptation on and, as the traditional filter the paper measures
against, off.  Every lookup of a stored key answers PRESENT with its
value, also when an extension found no room.  After every step: no
stored key is missed, the table's positives are exactly the model's
over a probe universe, a key answered FALSE_POSITIVE_CORRECTED answers
NOT_PRESENT until the next insert, delete or rebuild (or a merge with a
filter that matches it), check_consistency() passes, and the table is
byte for byte what the layout writer makes of its columns, its block
offsets those of oracles.block_offsets.  Strong
adaptivity, as the paper states it: a corrected key matches no
fingerprint of a key stored when it was corrected and stored without a
break since, through inserts, deletes, merges and reloads; only a
delete that shortens the key's minirun, and a rebuild, end it.  For the
yes/no filter, every stored key answers its own class.  A refused
mutation leaves the snapshot bytes as they were, and a reload
keeps the bytes and the counters.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from aqf.core import pack_minirun_id
from aqf.errors import FilterFullError, InvalidConfigError, NotFoundError
from aqf.filter import AdaptiveFilter, LookupResult, Policy
from aqf.hashing import FilterConfig
from aqf.setops import _GROW_AT, merge, rebuild
from aqf.yesno import NO, YES, YesNoFilter, YesNoParams

from oracles import (
    PrefixModel,
    bit_text,
    block_offsets,
    ref_chunk,
    ref_split,
    relaid,
    shorten_minirun,
    vector_word0,
)

# stored keys come from [0, 300]; probes also from above it, so some
# probes are never stored
STORED = st.integers(0, 300)
PROBES = np.arange(600, dtype=np.uint64)
PROBE = st.integers(0, len(PROBES) - 1)
# keys stored into the minirun of a corrected key, none of them a probe
BESIDE = np.arange(len(PROBES), 1 << 16, dtype=np.uint64)


def value_of(key):
    """The value stored with key."""
    return key.to_bytes(2, "little")


def sync_lengths(miniruns, f):
    """Set every model entry's length from f's table: entry k of a
    minirun is the fingerprint of rank k."""
    q, r = f.cfg.q, f.cfg.r
    for (qt, rem), lst in miniruns.items():
        mid = pack_minirun_id(qt, rem, r)
        for rank, e in enumerate(lst):
            e[1] = q + r + r * len(f.arr.get_ext(mid, rank))


class FilterMachine(RuleBasedStateMachine):
    """AdaptiveFilter against oracles.PrefixModel.

    With dedupe_keys on, a repeated insert folds into the key's first
    model entry as an extra copy, which deletes use up before the entry
    goes, as the filter's counter does.
    """

    AUTO_ADAPT = True

    @initialize(q=st.integers(3, 6), r=st.integers(2, 5), seed=st.integers(0, 1 << 16))
    def start(self, q, r, seed):
        self.cfg = FilterConfig(q=q, r=r, seed=seed)
        self.f = AdaptiveFilter(self.cfg, policy=Policy(auto_adapt=self.AUTO_ADAPT))
        self.model = PrefixModel(q, r, seed, adapt=self.AUTO_ADAPT)
        # id() of a model entry -> copies folded into it by dedupe
        self.extra: dict[int, int] = {}
        # keys corrected since the last insert, delete or rebuild
        self.corrected: set[int] = set()
        # corrected key -> the model entries of its minirun when it was
        # corrected, the only ones whose fingerprints it could match
        self.fixed: dict[int, list] = {}
        self.word0 = vector_word0(PROBES, seed)

    def use(self, **policy):
        self.f.policy = replace(self.f.policy, **policy)

    def entry(self, key):
        """key's minirun in the model and its first entry there, or None."""
        lst = self.model.miniruns.get(ref_split(key, self.cfg.seed, self.cfg.q, self.cfg.r), [])
        return lst, next((e for e in lst if e[0] == key), None)

    def correct(self, key):
        """key was answered FALSE_POSITIVE_CORRECTED."""
        self.corrected.add(key)
        self.fixed[key] = list(self.entry(key)[0])

    def resync(self):
        """Take every entry's length from the table, after a lookup that
        stopped adapting because an extension found no room."""
        sync_lengths(self.model.miniruns, self.f)

    @rule(keys=st.lists(STORED, min_size=1, max_size=6), dedupe=st.booleans())
    def insert(self, keys, dedupe):
        self.use(dedupe_keys=dedupe)
        for key in keys:
            before = self.f.to_bytes()
            try:
                self.f.insert(key, value=value_of(key))
            except FilterFullError:
                assert self.f.to_bytes() == before
                return
            self.corrected.clear()
            _, e = self.entry(key)
            if dedupe and e is not None:
                self.extra[id(e)] = self.extra.get(id(e), 0) + 1
            else:
                self.model.insert(key)

    @precondition(lambda self: self.model.miniruns)
    @rule(pick=st.integers(0, 1 << 16), shorten=st.booleans())
    def delete(self, pick, shorten):
        keys = self.model.keys()
        key = keys[pick % len(keys)]
        self.use(shorten_on_delete=shorten)
        self.f.delete(key)
        self.corrected.clear()
        lst, e = self.entry(key)
        if self.extra.get(id(e)):
            self.extra[id(e)] -= 1
            return
        self.extra.pop(id(e), None)
        assert self.model.delete(key)
        # corrections against no stored entry hold nothing more to check
        live = {id(e) for lst in self.model.miniruns.values() for e in lst}
        self.fixed = {k: v for k, v in self.fixed.items() if any(id(e) in live for e in v)}
        if shorten and lst:
            q, r, seed = self.cfg.q, self.cfg.r, self.cfg.seed
            exts = [tuple(ref_chunk(owner, seed, q, r, i) for i in range((nbits - q - r) // r))
                    for owner, nbits in lst]
            lengths = [e[1] for e in lst]
            for e, ext in zip(lst, shorten_minirun(exts)):
                e[1] = q + r + r * len(ext)
            if [e[1] for e in lst] != lengths:  # a cut may bring back its minirun's FPs
                qr = ref_split(key, seed, q, r)
                self.fixed = {k: v for k, v in self.fixed.items()
                              if ref_split(k, seed, q, r) != qr}

    @rule(pick=st.integers(0, 1 << 16), dedupe=st.booleans(),
          shorten=st.one_of(st.none(), st.booleans()))
    def write_beside_corrected(self, pick, dedupe, shorten):
        """Correct a probe that some stored fingerprint matches, or pick
        a corrected one; store a key in its minirun and, unless shorten
        is None, delete a key of that minirun, the new one when it went
        in: the minirun's other fingerprints keep their extensions,
        unless the delete shortens them."""
        stored = np.isin(PROBES, np.array(self.model.keys(), dtype=np.uint64))
        matched = PROBES[self.f.frozen_index().query_keys(PROBES) & ~stored].tolist()
        keys = sorted(set(matched) | set(self.fixed))
        if not keys:
            return
        key = keys[pick % len(keys)]
        if key not in self.fixed:
            self.check_lookup(key)
            if key not in self.fixed:
                return
        shift = np.uint64(64 - self.cfg.q - self.cfg.r)
        mid = vector_word0(np.array([key], dtype=np.uint64), self.cfg.seed)[0] >> shift
        beside = BESIDE[vector_word0(BESIDE, self.cfg.seed) >> shift == mid].tolist()
        new = beside[pick % len(beside)] if beside else None
        if new is not None:
            self.insert([new], dedupe)
        owners = [e[0] for e in self.entry(key)[0]]
        if shorten is not None and owners:
            victim = new if new in owners else owners[pick % len(owners)]
            self.delete(self.model.keys().index(victim), shorten)

    @rule(key=st.integers(301, 600))
    def delete_absent(self, key):
        before = self.f.to_bytes()
        with pytest.raises(NotFoundError):
            self.f.delete(key)
        assert self.f.to_bytes() == before

    def check_lookup(self, key):
        """lookup(key) against the model.  A lookup whose extension found
        no room counts one failure, adapts no further and answers PRESENT
        for a stored key, FALSE_POSITIVE for any other."""
        failures = self.f.adaptation_failures
        got = self.f.lookup(key)
        if self.f.adaptation_failures != failures:
            assert self.f.adaptation_failures == failures + 1
            self.resync()
            verdict = "present" if self.entry(key)[1] is not None else "false_positive"
        else:
            verdict = self.model.lookup(key)
        assert got == (LookupResult(verdict), value_of(key) if verdict == "present" else None)
        if verdict == "false_positive_corrected":
            self.correct(key)

    @rule(i=PROBE)
    def lookup(self, i):
        self.check_lookup(int(PROBES[i]))

    @rule()
    def lookup_stored(self):
        for key in self.model.keys():
            self.check_lookup(key)

    @rule(picks=st.lists(PROBE, max_size=12))
    def lookup_many(self, picks):
        keys = [int(PROBES[i]) for i in picks]
        failures = self.f.adaptation_failures
        got = self.f.lookup_many(keys)
        verdicts = [v for v, _ in got]
        for k, v in zip(keys, verdicts):
            if v is LookupResult.FALSE_POSITIVE_CORRECTED:
                self.correct(k)
        for k, answer in zip(keys, got):
            if self.entry(k)[1] is not None:
                assert answer == (LookupResult.PRESENT, value_of(k))
        if self.f.adaptation_failures != failures:
            self.resync()
            return
        assert [v.value for v in verdicts] == [self.model.lookup(k) for k in keys]

    def regroup(self, cfg, grow):
        """Move every model entry to its minirun under cfg, keeping rank
        order, its stored length grown by grow bits."""
        miniruns = {}
        for _, lst in sorted(self.model.miniruns.items()):
            for e in lst:
                e[1] += grow
                miniruns.setdefault(ref_split(e[0], cfg.seed, cfg.q, cfg.r), []).append(e)
        self.cfg = cfg
        self.model = PrefixModel(cfg.q, cfg.r, cfg.seed, adapt=self.AUTO_ADAPT)
        self.model.miniruns = miniruns

    @rule(keys=st.lists(STORED, min_size=1, max_size=6), probes=st.lists(PROBE, max_size=8))
    def merge(self, keys, probes):
        other = AdaptiveFilter(self.cfg)
        theirs = {}
        for key in keys:
            other.insert(key, value=value_of(key))
            theirs.setdefault(ref_split(key, self.cfg.seed, self.cfg.q, self.cfg.r),
                              []).append([key, 0])
        for i in probes:
            other.lookup(int(PROBES[i]))
        sync_lengths(theirs, other)
        grow = int(self.f.arr.used_count + other.arr.used_count > _GROW_AT * self.cfg.nslots)
        corrected = sorted(self.corrected)
        matched = other.frozen_index().query_keys(np.array(corrected, dtype=np.uint64))
        self.f = merge(self.f, other)
        assert self.f.cfg.q == self.cfg.q + grow
        for qr, lst in theirs.items():
            self.model.miniruns.setdefault(qr, []).extend(lst)
        self.regroup(self.f.cfg, grow)
        # a correction holds unless the other filter matches the key
        self.corrected = {k for k, hit in zip(corrected, matched.tolist()) if not hit}

    @rule(seed=st.integers(0, 1 << 16))
    def rebuild(self, seed):
        if seed == self.cfg.seed:
            seed += 1
        self.f = rebuild(self.f, new_seed=seed)
        for lst in self.model.miniruns.values():
            for e in lst:
                e[1] = self.cfg.q + self.cfg.r
        self.regroup(self.f.cfg, 0)
        self.word0 = vector_word0(PROBES, seed)
        self.corrected.clear()
        self.fixed.clear()
        self.lookup_stored()

    @rule()
    def save_load(self):
        blob = self.f.to_bytes()
        counters = (self.f.adaptations, self.f.adaptivity_bits, self.f.adaptation_failures)
        self.f = AdaptiveFilter.from_bytes(blob)
        assert (self.f.adaptations, self.f.adaptivity_bits,
                self.f.adaptation_failures) == counters
        assert self.f.to_bytes() == blob

    @invariant()
    def laid_out_as_the_columns_say(self):
        """Every scalar insert, adaptation, counter bump and delete leaves
        the bytes that the layout writer makes of the table's columns, and
        every step, reloads too, the block offsets of the oracle."""
        assert self.f.arr.to_bytes() == relaid(self.f.arr).to_bytes()
        assert self.f.arr.offsets.tolist() == block_offsets(self.f.arr)

    @invariant()
    def guarantees_hold(self):
        self.f.check_consistency()
        index = self.f.frozen_index()
        stored = np.array(self.model.keys(), dtype=np.uint64)
        assert index.query_keys(stored).all()
        assert (index.query_keys(PROBES) == self.model.positive_mask(PROBES, self.word0)).all()
        for key in self.corrected:
            assert self.f.lookup(key)[0] is LookupResult.NOT_PRESENT

    @invariant()
    def corrections_stay(self):
        """No corrected key matches the fingerprint, as the table holds
        it, of an entry of its minirun stored when it was corrected and
        stored since."""
        cfg = self.cfg
        for key, entries in self.fixed.items():
            qr = ref_split(key, cfg.seed, cfg.q, cfg.r)
            mid = pack_minirun_id(*qr, cfg.r)
            for rank, e in enumerate(self.model.miniruns.get(qr, [])):
                if any(e is old for old in entries):
                    nbits = cfg.q + cfg.r + cfg.r * len(self.f.arr.get_ext(mid, rank))
                    assert bit_text(key, cfg.seed, nbits) != bit_text(e[0], cfg.seed, nbits)


def test_filter_machine():
    run_state_machine_as_test(FilterMachine, settings=settings(
        max_examples=80, stateful_step_count=40, deadline=None))


class NoAdaptFilterMachine(FilterMachine):
    """The filter machine with auto_adapt off."""

    AUTO_ADAPT = False


def test_filter_machine_without_adaptation():
    run_state_machine_as_test(NoAdaptFilterMachine, settings=settings(
        max_examples=80, stateful_step_count=40, deadline=None))


YN_KEYS = st.integers(0, 200)


class YesNoMachine(RuleBasedStateMachine):
    """The dynamic YesNoFilter against a dict of stored keys, each with
    its class and its number of copies."""

    @initialize(q=st.integers(3, 6), r=st.integers(2, 5), seed=st.integers(0, 1 << 16))
    def start(self, q, r, seed):
        inner = AdaptiveFilter(FilterConfig(q=q, r=r, seed=seed), value_bits=1)
        self.f = YesNoFilter(inner, YesNoParams(n=1, m=0, epsilon=2.0**-r))
        # key -> [class, copies]
        self.stored: dict[int, list[int]] = {}

    def insert(self, key, bit, call):
        held = self.stored.get(key)
        before = self.f.inner.to_bytes()
        try:
            call(key)
        except InvalidConfigError:
            assert held is not None and held[0] != bit
            assert self.f.inner.to_bytes() == before
            return
        except FilterFullError:
            assert self.f.inner.to_bytes() == before
            return
        assert held is None or held[0] == bit
        if held is None:
            self.stored[key] = [bit, 1]
        else:
            held[1] += 1

    @rule(key=YN_KEYS)
    def yn_insert_yes(self, key):
        self.insert(key, YES, self.f.yn_insert_yes)

    @rule(key=YN_KEYS)
    def yn_insert_no(self, key):
        self.insert(key, NO, self.f.yn_insert_no)

    @rule(key=YN_KEYS)
    def yn_delete(self, key):
        held = self.stored.get(key)
        if held is None:
            before = self.f.inner.to_bytes()
            with pytest.raises(NotFoundError):
                self.f.yn_delete(key)
            assert self.f.inner.to_bytes() == before
            return
        self.f.yn_delete(key)
        held[1] -= 1
        if not held[1]:
            del self.stored[key]

    @rule(key=st.integers(0, 400))
    def yn_query(self, key):
        before = (self.f.inner.to_bytes(), self.f.inner.map_accesses)
        answer = self.f.yn_query(key)
        assert (self.f.inner.to_bytes(), self.f.inner.map_accesses) == before
        if key in self.stored:
            assert answer == self.stored[key][0]

    @rule()
    def save_load(self):
        blob, bits = self.f.inner.to_bytes(), self.f.consumed_adaptivity_bits
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "yn.aqfs"
            self.f.save(path)
            self.f = YesNoFilter.load(path, self.f.params)
        assert self.f.consumed_adaptivity_bits == bits
        assert self.f.inner.to_bytes() == blob

    @invariant()
    def every_stored_key_answers_its_class(self):
        self.f.inner.check_consistency()
        for key, (bit, _) in self.stored.items():
            assert self.f.yn_query(key) == bit


def test_yesno_machine():
    run_state_machine_as_test(YesNoMachine, settings=settings(
        max_examples=80, stateful_step_count=40, deadline=None))
