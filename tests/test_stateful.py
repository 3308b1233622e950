"""The adaptive filter against the prefix model under any sequence of
inserts, deletes, lookups and reloads, and the dynamic yes/no filter
under any sequence of its updates, queries and reloads.

At q=3..6 clusters wrap the seam, counters and extensions compete for
slots and inserts run into the load cap.  The filter machine runs with
adaptation on and, as the traditional filter the paper measures
against, off.  Every lookup of a stored key answers PRESENT with its
value, also when an extension found no room.  After every step: no
stored key is missed, the table's positives are exactly the model's
over a probe universe, a key answered FALSE_POSITIVE_CORRECTED answers
NOT_PRESENT until the next insert or delete, and check_consistency()
passes.  For the yes/no filter, every stored key answers its own class.
A refused mutation leaves the snapshot bytes as they were, and a reload
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
from aqf.yesno import NO, YES, YesNoFilter, YesNoParams

from oracles import PrefixModel, ref_chunk, ref_split, shorten_minirun, vector_word0

# stored keys come from [0, 300]; probes also from above it, so some
# probes are never stored
STORED = st.integers(0, 300)
PROBES = np.arange(600, dtype=np.uint64)
PROBE = st.integers(0, len(PROBES) - 1)


def value_of(key):
    """The value stored with key."""
    return key.to_bytes(2, "little")


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
        self.corrected: set[int] = set()
        self.word0 = vector_word0(PROBES, seed)

    def use(self, **policy):
        self.f.policy = replace(self.f.policy, **policy)

    def entry(self, key):
        """key's minirun in the model and its first entry there, or None."""
        lst = self.model.miniruns.get(ref_split(key, self.cfg.seed, self.cfg.q, self.cfg.r), [])
        return lst, next((e for e in lst if e[0] == key), None)

    def resync(self):
        """Take every entry's length from the table, after a lookup that
        stopped adapting because an extension found no room."""
        q, r = self.cfg.q, self.cfg.r
        for (qt, rem), lst in self.model.miniruns.items():
            mid = pack_minirun_id(qt, rem, q)
            for rank, e in enumerate(lst):
                e[1] = q + r + r * len(self.f.arr.get_ext(mid, rank))

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
        if shorten and lst:
            q, r, seed = self.cfg.q, self.cfg.r, self.cfg.seed
            exts = [tuple(ref_chunk(owner, seed, q, r, i) for i in range((nbits - q - r) // r))
                    for owner, nbits in lst]
            for e, ext in zip(lst, shorten_minirun(exts)):
                e[1] = q + r + r * len(ext)

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
            self.corrected.add(key)

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
        self.corrected.update(k for k, v in zip(keys, verdicts)
                              if v is LookupResult.FALSE_POSITIVE_CORRECTED)
        for k, answer in zip(keys, got):
            if self.entry(k)[1] is not None:
                assert answer == (LookupResult.PRESENT, value_of(k))
        if self.f.adaptation_failures != failures:
            self.resync()
            return
        assert [v.value for v in verdicts] == [self.model.lookup(k) for k in keys]

    @rule()
    def save_load(self):
        blob = self.f.to_bytes()
        counters = (self.f.adaptations, self.f.adaptivity_bits, self.f.adaptation_failures)
        self.f = AdaptiveFilter.from_bytes(blob)
        assert (self.f.adaptations, self.f.adaptivity_bits,
                self.f.adaptation_failures) == counters
        assert self.f.to_bytes() == blob

    @invariant()
    def guarantees_hold(self):
        self.f.check_consistency()
        index = self.f.frozen_index()
        stored = np.array(self.model.keys(), dtype=np.uint64)
        assert index.query_keys(stored).all()
        assert (index.query_keys(PROBES) == self.model.positive_mask(PROBES, self.word0)).all()
        for key in self.corrected:
            assert self.f.lookup(key)[0] is LookupResult.NOT_PRESENT


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
