"""Yes/no-list filtering on top of the adaptive filter.

Given a YES list that must always answer YES and a NO list that must
always answer NO, the static construction stores only the YES keys and
then queries every NO key, extending whichever stored fingerprints they
collide with until each collision dies.  No NO key is ever stored;
exactness on the NO side is carried entirely by extensions.  Keys
outside both lists see the usual baseline false-positive rate.

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
from pathlib import Path

import numpy as np

from .core import _LOAD_DEN, _LOAD_NUM, _Cols, pack_minirun_id
from .errors import (
    ConstructionFailedError,
    FilterFullError,
    FormatError,
    InvalidConfigError,
)
from .filter import AdaptiveFilter, LookupResult, Policy, _key, _key_array
# extension_chunk is unused here but stays a module attribute: the
# benchmark's tracer (perfbench/spans.py) wraps it
from .hashing import FilterConfig, HashStream, extension_chunk, split  # noqa: F401
from .setops import _build_rederived

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
        if self.n < 1:
            raise InvalidConfigError("need at least one YES key")
        if self.m < 0:
            raise InvalidConfigError("NO list size cannot be negative")
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidConfigError(f"epsilon {self.epsilon} outside (0, 1)")
        if self.u is not None and self.u < 1:
            raise InvalidConfigError("universe size must be positive")

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
    if slack < 1:
        raise InvalidConfigError(f"slack {slack} must be at least 1")
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
        while _LOAD_DEN * need > _LOAD_NUM * (1 << q):
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
        """YES or NO.  Pure read: no adaptation, no map access."""
        inner = self.inner
        stream = HashStream(_key(key), inner.cfg.seed)
        hit = inner.arr.query_fp(stream)
        if hit is None:
            return NO
        qt, rem = split(stream, inner.cfg)
        mid = pack_minirun_id(qt, rem, inner.cfg.q)
        return YES if inner.arr.get_value(mid, hit[0]) else NO

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
        mid = pack_minirun_id(qt, rem, cfg.q)
        colliders = []
        hit = inner.arr.query_fp(stream)
        while hit is not None:
            rank, _ = hit
            if inner.arr.get_value(mid, rank) != bit:
                owner, _ = inner.map.map_get(mid, rank)
                if owner == key:
                    raise InvalidConfigError(
                        f"key {key} is already stored with the opposite answer"
                    )
                colliders.append((rank, owner))
            hit = inner.arr.query_fp(stream, rank + 1)
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


def build_static(
    yes_keys,
    no_keys,
    epsilon: float,
    slack: float = 1.5,
    seed: int = 0,
) -> YesNoFilter:
    """Construct a filter that is exact on both lists.

    Places every YES key in one pass, then queries every NO key and
    adapts every false positive to death.  True negatives cost nothing
    and nothing from the NO list is ever stored.  Both lists are uint64
    arrays or iterables of ints in [0, 2**64).  Raises
    ConstructionFailedError, with consumed vs budgeted bits attached, if
    the filter fills before the NO list is exhausted.
    """
    yes, no = _key_array(yes_keys), _key_array(no_keys)
    if not len(yes):
        raise InvalidConfigError("need at least one YES key")
    distinct = np.unique(yes)
    at = np.minimum(np.searchsorted(distinct, no), len(distinct) - 1)
    both = no[distinct[at] == no]
    if len(both):
        raise InvalidConfigError(
            f"{len(np.unique(both))} key(s) appear on both lists; lists must be disjoint"
        )

    params = YesNoParams(n=len(yes), m=len(no), epsilon=epsilon)
    f = YesNoFilter.create(params, slack=slack, seed=seed)
    inner = f.inner
    # fresh YES fingerprints: tag 1, no extension, no counter digits; the
    # stable hash sort keeps list order as rank order, as inserts would
    bare = np.zeros(len(yes), dtype=np.int64)
    cols = _Cols.build(bare, bare, np.full(len(yes), YES), bare, bare, ())
    try:
        f.inner = inner = _build_rederived(cols, yes, [None] * len(yes), inner.cfg,
                                           inner.policy, inner.value_bits, keep_ext=False)
    except FilterFullError as exc:
        raise ConstructionFailedError(
            f"filter filled placing the YES keys: {exc}",
            consumed_bits=inner.adaptivity_bits,
            budget_bits=f.budget_bits,
        ) from exc

    # NO keys are never stored and the lists are disjoint, so no verdict
    # is PRESENT; a fresh filter counts one adaptation failure per
    # uncorrected verdict, which spares a Python pass over the list
    verdicts = inner.lookup_many(no)
    if inner.adaptation_failures:
        # lookup degrades to an uncorrected verdict when the array
        # cannot take another extension; here that means the
        # construction failed, not the query
        z = int(no[verdicts.index((LookupResult.FALSE_POSITIVE, None))])
        raise ConstructionFailedError(
            f"ran out of room extending away NO key {z}",
            consumed_bits=inner.adaptivity_bits,
            budget_bits=f.budget_bits,
        )
    return f
