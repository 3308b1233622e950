"""Yes/no-list filtering on top of the adaptive filter.

Given a YES list that must always answer YES and a NO list that must
always answer NO, the static construction stores only the YES keys, each
fingerprint extended with chunks of its own key's hash until no NO key
matches it.  No NO key is ever stored; exactness on the NO side is
carried entirely by extensions.  Keys outside both lists see the usual
baseline false-positive rate.

The result is the one the paper's sequential construction leaves:
insert every YES key, then look up every NO key in order and adapt each
false positive away.  It is reached in bulk.  An index of the YES keys'
bare fingerprints, sorted by pair, rejects almost every NO key; for
each remaining pair of a NO key and a YES key with the same
fingerprint, the first chunk at which their hash streams differ fixes
how far that fingerprint must grow, and whether the NO key's lookup
would have adapted it.  The YES keys are then laid out once with those
extensions.  When they would not fit, the bare YES keys are laid out
and the remaining NO keys looked up one by one, so that the failure is
the sequential one.

Each fingerprint carries one payload bit tagging its key YES or NO.
The static build only ever writes 1s; the bit earns its keep in the
dynamic setting, where NO keys are stored too and an exact NO answer
has to survive lookups that land on them.

The calculators put numbers on the space story: how many bits of
extension the NO pass is expected to burn, how many the construction
should reserve, and the information-theoretic floor no static scheme
can beat.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    FrozenIndex,
    _Cols,
    _pos_dtype,
    _ranges,
    _stable_order,
    max_used,
    pack_minirun_id,
)
from .errors import (
    ConstructionFailedError,
    FilterFullError,
    FormatError,
    InvalidConfigError,
)
from .filter import AdaptiveFilter, LookupResult, Policy
# extension_chunk is unused here but stays a module attribute: the
# benchmark's tracer (perfbench/spans.py) wraps it
from .hashing import (  # noqa: F401
    FilterConfig,
    HashStream,
    _int_in,
    _key,
    _key_array,
    _real,
    extension_chunk,
    extension_chunk_batch,
    split,
    split_batch,
)
from .setops import _extended_cols, _hash_order, _place

YES = 1
NO = 0

# advisory floor on the universe for the lower bound's regime
_UNIVERSE_FACTOR = 10


@dataclass(frozen=True)
class YesNoParams:
    """Problem shape: n YES keys, m NO keys, target rate epsilon.

    u is the universe size and only feeds the lower bound's sanity
    check; None skips that check.
    """

    n: int
    m: int
    epsilon: float
    u: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _int_in(self.n, "n", 1, math.inf))
        object.__setattr__(self, "m", _int_in(self.m, "m", 0, math.inf))
        if not 0.0 < _real(self.epsilon, "epsilon") < 1.0:
            raise InvalidConfigError(f"epsilon {self.epsilon} outside (0, 1)")
        if self.u is not None:
            object.__setattr__(self, "u", _int_in(self.u, "u", 1, math.inf))

    @property
    def mu(self) -> float:
        """Expected NO false positives per YES element."""
        return self.epsilon * self.m / self.n


def adaptivity_budget(p: YesNoParams, slack: float = 1.5) -> int:
    """Bits to reserve for the NO pass: ceil(slack * n * (2 + log2 e + log2(1+mu))).

    The 2 covers insert-time collisions among YES keys plus rounding;
    the rest is the expected NO-pass consumption.  slack soaks up the
    variance; 1.5 makes the reference construction succeed in at least
    95 of 100 seeds (see the calibration run in the workbench docs).
    """
    if not 1 <= _real(slack, "slack") < math.inf:
        raise InvalidConfigError(f"slack {slack} must be finite and at least 1")
    return math.ceil(slack * p.n * (2 + math.log2(math.e) + math.log2(1 + p.mu)))


def expected_adaptivity_bits(p: YesNoParams) -> float:
    """Expected extension bits consumed by the NO pass: n(1 + log2 e + log2(1+mu))."""
    return p.n * (1 + math.log2(math.e) + math.log2(1 + p.mu))


def lower_bound_bits(p: YesNoParams) -> float:
    """Space floor for any static yes/no filter, in bits.

    n*log2(max(1/eps, m/n)) + log2(e)*min(eps*m, n), the additive O(1)
    dropped.  Only meaningful for epsilon <= 1/2 and a universe much
    larger than both lists; a small universe draws a warning, not an
    error, since the caller may know better.
    """
    if p.epsilon > 0.5:
        raise InvalidConfigError("the lower bound needs epsilon <= 1/2")
    if p.u is not None and p.u < _UNIVERSE_FACTOR * (p.n**2 / p.epsilon + p.m**2):
        warnings.warn(
            "universe is small for the lower bound's regime; the floor may overstate",
            stacklevel=2,
        )
    return p.n * math.log2(max(1 / p.epsilon, p.m / p.n)) + math.log2(math.e) * min(
        p.epsilon * p.m, p.n
    )


class YesNoFilter:
    """Adaptive filter wrapper answering YES/NO with one tag bit per key."""

    def __init__(self, inner: AdaptiveFilter, params: YesNoParams, budget_bits: int = 0):
        if inner.value_bits != 1:
            raise InvalidConfigError("yes/no filtering needs exactly one tag bit")
        self.inner = inner
        self.params = params
        self.budget_bits = budget_bits

    @classmethod
    def create(
        cls,
        params: YesNoParams,
        slack: float = 1.5,
        seed: int = 0,
        dynamic: bool = False,
        policy: Policy | None = None,
    ) -> "YesNoFilter":
        """Size a filter for the given problem shape.

        The remainder width comes from epsilon; capacity covers the YES
        keys (plus the NO keys when dynamic, since those get stored),
        plus one slot per budgeted extension chunk.
        """
        r = max(1, math.ceil(-math.log2(params.epsilon)))
        budget = adaptivity_budget(params, slack)
        need = params.n + (params.m if dynamic else 0) + -(-budget // r)
        q = 1
        while need > max_used(1 << q):
            q += 1
            if q + r > 64:
                raise InvalidConfigError(
                    f"no config fits {need} slots with r={r} within 64 hash bits"
                )
        cfg = FilterConfig(q=q, r=r, seed=seed)
        inner = AdaptiveFilter(cfg, policy=policy, value_bits=1)
        return cls(inner, params, budget_bits=budget)

    @property
    def consumed_adaptivity_bits(self) -> int:
        return self.inner.adaptivity_bits

    def space_bits(self) -> int:
        return self.inner.arr.space_report().total_bits

    # ------------------------------------------------------------------
    # queries

    def yn_query(self, key: int) -> int:
        """YES or NO: the tag of the first stored fingerprint the key
        matches, read by the same walk.  Pure read: no adaptation, no map
        access."""
        hit = self.inner.arr.query_fp(HashStream(_key(key), self.inner.cfg.seed))
        return YES if hit is not None and hit[2] else NO

    # ------------------------------------------------------------------
    # dynamic updates

    def yn_insert_yes(self, key: int) -> None:
        self._insert(key, YES)

    def yn_insert_no(self, key: int) -> None:
        self._insert(key, NO)

    def _insert(self, key: int, bit: int) -> None:
        """Store key under bit, extending opposite-bit colliders away.

        Any stored fingerprint of the other class that matches the new
        key's hash would shadow or be shadowed by it, so each one grows
        until the new key stops matching it.  Same-class matches are
        harmless and stay untouched.  Every extension is worked out and
        checked against the load cap before anything is stored, so a
        raised error leaves the filter as it was.
        """
        key = _key(key)
        inner = self.inner
        cfg = inner.cfg
        stream = HashStream(key, cfg.seed)
        qt, rem = split(stream, cfg)
        mid = pack_minirun_id(qt, rem, cfg.r)
        colliders = []
        hit = inner.arr.query_fp(stream, 0, (qt, rem))
        while hit is not None:
            rank, _, tag = hit
            if tag != bit:
                owner, _ = inner.map.map_get(mid, rank)
                if owner == key:
                    raise InvalidConfigError(
                        f"key {key} is already stored with the opposite answer"
                    )
                colliders.append((rank, owner))
            hit = inner.arr.query_fp(stream, rank + 1, (qt, rem))
        # the insert takes one slot, or at most one counter digit
        need = 1 + sum(len(inner._adapt_chunks(mid, rank, owner, stream))
                       for rank, owner in colliders)
        if not inner.arr.has_room(need):
            raise FilterFullError(f"insert and its {need - 1} extension chunk(s) "
                                  "would exceed the load limit")
        inner.insert(key, tag=bit)
        for rank, owner in colliders:
            inner.adapt(mid, rank, owner, stream)

    def yn_delete(self, key: int) -> None:
        self.inner.delete(key)

    # ------------------------------------------------------------------
    # snapshot (same container as the plain filter; the tag bit rides
    # in the slot payload, flagged by the header's value width)

    def save(self, path) -> None:
        self.inner.save(path)

    @classmethod
    def load(cls, path, params: YesNoParams, budget_bits: int = 0) -> "YesNoFilter":
        inner = AdaptiveFilter.load(path)
        if inner.value_bits != 1:
            raise FormatError("snapshot does not carry a yes/no tag bit")
        return cls(inner, params, budget_bits=budget_bits)


def _check_disjoint(yes: np.ndarray, no: np.ndarray) -> None:
    """Raise InvalidConfigError when a key of no is also a key of yes."""
    ordered = np.sort(yes)
    at = np.minimum(np.searchsorted(ordered, no), len(ordered) - 1)
    both = no[ordered[at] == no]
    if len(both):
        raise InvalidConfigError(
            f"{len(np.unique(both))} key(s) appear on both lists; lists must be disjoint"
        )


def _place_yes(inner: AdaptiveFilter, yes: np.ndarray, packed: np.ndarray,
               ext_len: np.ndarray) -> AdaptiveFilter:
    """A filter like inner holding every YES key, tagged YES, with
    ext_len[i] chunks of its own stream after key i's fingerprint.  yes
    is in hash order, ties in rank order, and packed their pairs."""
    cfg, bits = inner.cfg, inner.value_bits
    no_ctr = np.zeros(len(yes), dtype=_pos_dtype(cfg.nslots))
    cols = _extended_cols(yes, packed, np.full(len(yes), YES), ext_len, no_ctr, (), cfg, bits)
    return _place(yes, cols, None, cfg, inner.policy, bits)


def _no_pass(yes: np.ndarray, packed: np.ndarray, hits: np.ndarray, cfg: FilterConfig,
             max_extensions: int) -> tuple[np.ndarray, int] | None:
    """What looking up hits in order does to bare YES fingerprints.

    yes are the YES keys in hash order, ties in rank order, and packed
    their (quotient, remainder) pairs.  hits are NO keys, in list order,
    that share a YES key's pair.  For each such pair of keys, d is the
    first chunk at which the NO key's stream leaves the YES key's.  A
    fingerprint of length L matches the NO key while d >= L, and
    adapting it appends its owner's chunks up to index d.  Extensions
    only grow, so the YES key's fingerprint ends at max(d + 1) over its
    pairs, and a pair adapts, with one map read, exactly when its d + 1
    beats every earlier NO key's on that fingerprint.  Returns each YES
    key's extension length and the number of adaptations, or None when
    some pair agrees for max_extensions chunks, where the scalar pass
    would give up on it.
    """
    want = split_batch(hits, cfg)
    lo = np.searchsorted(packed, want, side="left")
    count = np.searchsorted(packed, want, side="right") - lo
    # one row per pair: NO keys in list order, each with its YES keys
    # in rank order
    no_of = np.repeat(np.arange(len(hits)), count)
    yes_of = _ranges(lo, count)
    pos = _pos_dtype(cfg.nslots)
    reach = np.zeros(len(yes_of), dtype=pos)  # d + 1
    live = np.arange(len(yes_of))
    for t in range(max_extensions):
        if not live.size:
            break
        same = (extension_chunk_batch(hits[no_of[live]], cfg, t)
                == extension_chunk_batch(yes[yes_of[live]], cfg, t))
        reach[live[~same]] = t + 1
        live = live[same]
    if live.size:
        return None
    ext_len = np.zeros(len(yes), dtype=pos)
    np.maximum.at(ext_len, yes_of, reach)
    # the running max of reach per YES key, pairs in list order; reach
    # is at most max_extensions <= 255, so it fits below the key's bits
    by_key = _stable_order(yes_of, (len(yes) - 1).bit_length())
    top = np.maximum.accumulate((yes_of[by_key] << 8) | reach[by_key])
    return ext_len, int(np.count_nonzero(np.diff(top, prepend=0)))


def build_static(
    yes_keys,
    no_keys,
    epsilon: float,
    slack: float = 1.5,
    seed: int = 0,
) -> YesNoFilter:
    """Construct a filter that is exact on both lists.

    Leaves what inserting every YES key and then looking up every NO key
    in order leaves: the same bytes, counters and errors.  The YES keys
    are sorted into hash order once, and the NO keys probed against an
    index of their bare fingerprints; the few that share a YES key's
    (quotient, remainder) pair settle in closed form (see _no_pass), and
    the YES keys are placed with the extensions that leaves, in the one
    layout of the build.  True negatives cost nothing and nothing from
    the NO list is ever stored.  When the extensions would pass the load
    cap, or a NO key agrees with a YES key for policy.max_extensions
    chunks, the bare YES keys are placed and the hits looked up one by
    one instead, so the failure is the sequential one.  Both lists are
    uint64 arrays or iterables of ints in [0, 2**64).  Raises
    ConstructionFailedError, with consumed vs budgeted bits attached, if
    the filter fills before the NO list is exhausted.
    """
    yes, no = _key_array(yes_keys), _key_array(no_keys)
    if not len(yes):
        raise InvalidConfigError("need at least one YES key")
    # overlapping lists are reported ahead of every other error, as a
    # sequential build reports them; without an error, the hits below
    # hold every overlap, since a NO key that is a YES key matches it
    try:
        params = YesNoParams(n=len(yes), m=len(no), epsilon=epsilon)
        f = YesNoFilter.create(params, slack=slack, seed=seed)
    except InvalidConfigError:
        _check_disjoint(yes, no)
        raise
    inner, cfg = f.inner, f.inner.cfg
    order, packed = _hash_order(yes, cfg)  # list order stays rank order
    yes = yes[order]
    hits = no[FrozenIndex(cfg, _Cols.bare(packed, cfg)).query_keys(no)]
    _check_disjoint(yes, hits)

    settled = _no_pass(yes, packed, hits, cfg, inner.policy.max_extensions)
    if settled is not None and inner.arr.has_room(len(yes) + int(settled[0].sum())):
        ext_len, adaptations = settled
        f.inner = _place_yes(inner, yes, packed, ext_len)
        f.inner.adaptations = adaptations
        f.inner.adaptivity_bits = int(ext_len.sum()) * cfg.r
        f.inner.map.accesses += adaptations
        return f

    # the keys the index rejects answer NOT_PRESENT untouched, so the
    # hits alone reach the state and the first failure of the whole list
    try:
        f.inner = inner = _place_yes(inner, yes, packed, np.zeros(len(yes), dtype=np.int64))
    except FilterFullError as exc:
        raise ConstructionFailedError(
            f"filter filled placing the YES keys: {exc}",
            consumed_bits=inner.adaptivity_bits,
            budget_bits=f.budget_bits,
        ) from exc
    verdicts = inner.lookup_many(hits)
    if inner.adaptation_failures:
        # NO keys are never stored and the lists are disjoint, so no
        # verdict is PRESENT, and a fresh filter counts one adaptation
        # failure per uncorrected verdict: lookup degrades to one when
        # the array cannot take another extension, which here means the
        # construction failed, not the query
        z = int(hits[verdicts.index((LookupResult.FALSE_POSITIVE, None))])
        raise ConstructionFailedError(
            f"ran out of room extending away NO key {z}",
            consumed_bits=inner.adaptivity_bits,
            budget_bits=f.budget_bits,
        )
    return f
