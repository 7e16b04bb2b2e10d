"""Forward-motion encoding of gap-condition partitions.

A partition satisfying the gap conditions (difference >= 3, and >= 6 when
both parts are multiples of 3) is built from a minimal configuration by
three waves of motions: the m singletons move first (largest first, each
by a non-negative amount, weakly increasing toward the top), then the
floor(n2/2) pairs split off the top of the 2 mod 3 chain, then the
floor(n1/2) pairs off the 1 mod 3 chain.  Each pair step adds exactly 6
to the size and advances the pair bottom by 3(1 + number of crossed
parts).  `apply_motions` plays the motions forward, `decode` inverts
them, and `certify_range` checks both, budget by budget, up to a size
bound, and counts the images at each size against the oracle.

`minimal_configuration` is the only code that lays out the docks; every
other dock is read off its tuple (chain 1 is dock[:n1], chain 2 is
dock[n1:n1+n2], the singletons dock[n1+n2:]), but for the two chain
remainders `decode` writes per split; its size is `weight_a`, and the
budgets are walked on the cell walk `_cells`.  `max_motions` is the one
fit rule under a largest-part bound: a cell fits when its dock does, and
each block's cap is read off the dock.  `enumerate_motion_data` and
`schur_sums.bounded_gf` both read it.  Every gap check reads the oracle's
one rule through `is_schur_admissible`.

The motion rule is one table, `_crossings`: the tuples of parts a step
may cross, in rule order (none when nothing sits within [top+3, top+5];
else the next one, two or three parts in a window cluster; else, for
1 mod 3 pairs, a run of three or more parts 3 apart from top+4).  It is
keyed on part values, not on the role (singleton or chain member) a part
had at dock time.  `_jump` is the only code that moves a pair, in either
direction, and the inverse step tries every crossing size k on the k
parts just below the pair, so a new rule goes into `_crossings` alone.

`decode` does not search: it reads the chain lengths and the pair labels
off the partition (same-residue parts 3 apart, paired lowest first,
`_greedy_bottoms`) and undoes each pair's steps, the last pair first.
Where two inverse steps both replay, the same pairing of their shared
pre-state keeps one.  Every decoded result is replayed forward, and the
replay alone accepts it."""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator

from .partitions import Partition, is_schur_admissible, schur_counts


class MotionRuleError(RuntimeError):
    """No forwards motion applies to the pair in the current state.

    The offending state is reported verbatim so uncovered configurations
    can be inspected rather than silently patched over.
    """

    def __init__(self, family: int, bottom: int, state: tuple[int, ...]):
        self.family = family
        self.bottom = bottom
        self.state = state
        super().__init__(
            "no forwards motion applies: family=%d pair=(%d,%d) state=%s"
            % (family, bottom, bottom + 3, state))


class DecodeError(ValueError):
    """The partition has no (or no unique) motion pre-image."""


def weight_a(n1: int, n2: int, m: int) -> int:
    """Size of the minimal admissible configuration with chain lengths
    n1, n2 and m singletons: (2m+s+1)(2m+s)/2 + m*s + s^2 - n1, s=n1+n2."""
    s = n1 + n2
    u = 2 * m + s
    return u * (u + 1) // 2 + m * s + s * s - n1


# pure, and its tuple immutable: each (n1, n2, m) is laid out once
@lru_cache(maxsize=None)
def minimal_configuration(n1: int, n2: int, m: int) -> Partition:
    """n1 consecutive 1 mod 3 parts, then n2 consecutive 2 mod 3 parts,
    then m parts exactly 4 apart; the unique smallest admissible
    partition with these block sizes, of size weight_a(n1, n2, m)."""
    if n1 < 0 or n2 < 0 or m < 0:
        raise ValueError("chain lengths and singleton count must be >= 0")
    parts = [3 * i + 1 for i in range(n1)]
    parts += [3 * n1 + 2 + 3 * i for i in range(n2)]
    base = 3 * (n1 + n2) + 3
    parts += [base + 4 * i for i in range(m)]
    out = tuple(parts)
    assert sum(out) == weight_a(n1, n2, m)
    return out


def _pair_docks(dock: Partition, start: int, count: int) -> Partition:
    # chain dock[start:start+count]'s pair bottoms, lowest first (j-th from
    # the top at dock[start + count - 2j]); an odd chain's lowest part stays
    return dock[start + count % 2:start + count:2]


class MotionData:
    """A minimal configuration plus its motion budgets.

    r[i] is the forward displacement of the (i+1)-th smallest singleton,
    rho2[j] / rho1[j] the step count of the (j+1)-th smallest pair of the
    2 mod 3 / 1 mod 3 chain.  All three lists are weakly increasing, so
    the top mover always moves the most.  Immutable, and equal and hashed
    by value; `decode` orders ambiguous pre-images by the repr.
    """
    __slots__ = _FIELDS = ("n1", "n2", "m", "r", "rho2", "rho1")
    n1: int
    n2: int
    m: int
    r: tuple[int, ...]
    rho2: tuple[int, ...]
    rho1: tuple[int, ...]

    def __init__(self, n1: int, n2: int, m: int, r: Iterable[int] = (),
                 rho2: Iterable[int] = (), rho1: Iterable[int] = ()):
        for name, value in zip(self._FIELDS, (n1, n2, m, tuple(r),
                                              tuple(rho2), tuple(rho1))):
            object.__setattr__(self, name, value)
        if self.n1 < 0 or self.n2 < 0 or self.m < 0:
            raise ValueError("chain lengths and singleton count must be >= 0")
        for name, lst, want in (("r", self.r, self.m),
                                ("rho2", self.rho2, self.n2 // 2),
                                ("rho1", self.rho1, self.n1 // 2)):
            if len(lst) != want:
                raise ValueError("%s must have length %d" % (name, want))
            if lst and min(lst) < 0:
                raise ValueError("%s entries must be >= 0" % name)
            if list(lst) != sorted(lst):
                raise ValueError("%s must be weakly increasing" % name)

    def _values(self) -> tuple:
        return self.n1, self.n2, self.m, self.r, self.rho2, self.rho1

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "MotionData(%s)" % ", ".join(
            "%s=%r" % pair for pair in zip(self._FIELDS, self._values()))

    def __reduce__(self):
        return MotionData, self._values()

    @property
    def size(self) -> int:
        return (weight_a(self.n1, self.n2, self.m) + sum(self.r)
                + 6 * (sum(self.rho2) + sum(self.rho1)))

    def as_dict(self) -> dict[str, Any]:
        return {"n1": self.n1, "n2": self.n2, "m": self.m,
                "r": list(self.r), "rho2": list(self.rho2),
                "rho1": list(self.rho1)}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "MotionData":
        """Read a JSON object: n1, n2, m integers, and r, rho2, rho1 (each
        empty if absent) lists of integers.  Any other key, JSON value,
        float, string or bool raises ValueError; nothing is coerced."""
        if not isinstance(d, dict):
            raise ValueError("motion data must be a JSON object")
        unknown = sorted(map(repr, set(d) - set(cls._FIELDS)))
        if unknown:
            raise ValueError("motion data takes no key %s" % ", ".join(unknown))
        def whole(v: Any) -> int:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError("motion data must be integers, got %r" % (v,))
            return v

        def wholes(v: Any) -> tuple[int, ...]:
            if not isinstance(v, list):
                raise ValueError("motion budgets must be lists, got %r" % (v,))
            return tuple(whole(x) for x in v)

        try:
            return cls(n1=whole(d["n1"]), n2=whole(d["n2"]), m=whole(d["m"]),
                       r=wholes(d.get("r", [])), rho2=wholes(d.get("rho2", [])),
                       rho1=wholes(d.get("rho1", [])))
        except KeyError as exc:
            raise ValueError("motion data needs n1, n2, m") from exc


# ---------------------------------------------------------------------------
# the rule table

# A crossing of k parts (k <= 3) is admitted when part i sits at
# top + 3 + 4i + slack_i with 0 <= slack_i <= the widest slack for k, and
# no slack exceeds the one before it by more than 1.  The conditions
# nest: a cluster that admits k + 1 parts admits its first k.
_CLUSTERS = ((1, 2), (2, 2), (3, 1))


def _crossings(state: list[int], bottom: int) -> Iterator[tuple[int, ...]]:
    """The tuples of parts a forward step of the pair (bottom, bottom+3)
    may cross, in rule order; the first admissible jump wins.

    Every crossing is the next k parts above the top, which
    `_unstep_candidates` relies on: a new rule must keep to that.
    """
    top = bottom + 3
    above = state[bisect_right(state, top):]
    if not above or above[0] > top + 5:
        yield ()
        return
    slack = [z - (top + 3 + 4 * i) for i, z in enumerate(above[:3])]
    for k, widest in _CLUSTERS:
        s = slack[:k]
        if len(s) == k and all(0 <= v <= widest for v in s) \
                and all(b - a <= 1 for a, b in zip(s, s[1:])):
            yield tuple(above[:k])
    if bottom % 3 == 1 and above[0] == top + 4:
        run = 1
        while run < len(above) and above[run] == top + 4 + 3 * run:
            run += 1
        if run >= 3:
            yield tuple(above[:run])


def _jump(state: list[int], bottom: int, crossed: tuple[int, ...],
          direction: int) -> tuple[list[int], int]:
    """The state after the pair at bottom jumps across the crossed parts,
    and its new bottom.  Forward (direction 1) the pair rises by
    3(1 + k) and each of the k crossed parts drops by 6; backward (-1)
    undoes that, with crossed given as they sit after the forward jump."""
    shift = 3 * (1 + len(crossed)) * direction
    gone = {bottom, bottom + 3, *crossed}
    moved = [z for z in state if z not in gone]
    moved += [z - 6 * direction for z in crossed]
    moved += [bottom + shift, bottom + 3 + shift]
    moved.sort()
    return moved, bottom + shift


# ---------------------------------------------------------------------------
# forward motions

def _advance_pair(state: list[int], bottom: int) -> int:
    """Apply one forwards motion to the pair (bottom, bottom+3) inside
    state (a sorted list, mutated in place).  Returns the new bottom.

    Takes the first crossing of _crossings whose jump satisfies the gap
    conditions.  Raises MotionRuleError when none does.
    """
    for crossed in _crossings(state, bottom):
        moved, new_bottom = _jump(state, bottom, crossed, 1)
        if not is_schur_admissible(moved):
            continue
        assert sum(moved) == sum(state) + 6
        assert new_bottom - bottom == 3 * (1 + len(crossed))
        assert len(moved) == len(state)
        state[:] = moved
        return new_bottom
    raise MotionRuleError(bottom % 3, bottom, tuple(state))


def apply_motions(data: MotionData) -> Partition:
    """Play the motion budgets forward from the minimal configuration.

    Singletons move first (largest first), then the 2 mod 3 pairs (top
    pair first), then the 1 mod 3 pairs.  Every intermediate state is
    checked against the gap conditions (a pair step by `_advance_pair`
    before it commits), and the per-step size and displacement contracts
    are asserted.
    """
    n1, n2 = data.n1, data.n2
    dock = minimal_configuration(n1, n2, data.m)
    state = list(dock)
    for z, ri in zip(dock[n1 + n2:][::-1], data.r[::-1]):
        if ri:
            state.remove(z)
            insort(state, z + ri)
        assert is_schur_admissible(state)
    assert sum(state) == sum(dock) + sum(data.r)

    for docks, steps_list in ((_pair_docks(dock, n1, n2), data.rho2),
                              (_pair_docks(dock, 0, n1), data.rho1)):
        for bottom, steps in zip(docks[::-1], steps_list[::-1]):
            for _ in range(steps):
                bottom = _advance_pair(state, bottom)
    result = tuple(state)
    assert sum(result) == data.size
    return result


# ---------------------------------------------------------------------------
# inverse motions

def _unstep_candidates(state: list[int], bottom: int) -> Iterator[tuple[list[int], int]]:
    """All (pre_state, pre_bottom) whose forward step reproduces state.

    A forward step crosses the next k parts above the pair's top (the gap
    conditions leave nothing within 2 of it), so after the jump those k
    parts are the k largest below the new bottom, each above
    bottom - 3k - 6.  Each k is tried until that bound breaks, which it
    then does for every larger k.  A pre-state is only accepted if the
    forward rules, with their own precedence, reproduce state exactly.
    """
    below = bisect_left(state, bottom)
    for k in range(below + 1):
        crossed = tuple(state[below - k:below])
        if crossed and crossed[0] <= bottom - 3 * k - 6:
            break
        pre, pre_bottom = _jump(state, bottom, crossed, -1)
        if not is_schur_admissible(pre):
            continue
        probe = list(pre)
        try:
            moved = _advance_pair(probe, pre_bottom)
        except MotionRuleError:
            continue
        if moved == bottom and probe == state:
            yield pre, pre_bottom


def _greedy_bottoms(values: list[int], reserved: int | None = None) -> list[int]:
    """Pair same-residue values (ascending) 3 apart, lowest first; the
    bottoms of the pairs, ascending.  reserved (an odd chain's remainder)
    stays unpaired."""
    bottoms: list[int] = []
    waiting = None  # the last value left without a partner
    for v in values:
        if waiting is not None and v == waiting + 3 and v != reserved:
            bottoms.append(waiting)
            waiting = None
        else:
            waiting = None if v == reserved else v
    return bottoms


def _unwind(state: list[int], bottoms: list[int], docks: tuple[int, ...],
            reserved: int | None) -> tuple[list[int], tuple[int, ...]] | None:
    """One family's pairs stepped back to their docks: the state and the
    step counts, or None if a pair cannot get there.

    bottoms and docks are aligned, lowest pair first: the last to have
    moved forward, so the first undone, and with the smallest count.
    Forward motion strictly raises the bottom, so the dock pins the count.
    Where two candidates for a step both replay, they share one pre-state
    holding x, x+3, x+6 of the pair's residue: either (x+3, x+6) moved
    across k parts, or (x, x+3) across x+6 and the same k parts.  That
    pre-state is an image too (this pair's count cut short), so the labels
    `decode` reads off an image settle it: the step kept is the one whose
    pre-bottom `_greedy_bottoms` pairs.
    """
    counts: list[int] = []
    for b, dock in zip(bottoms, docks):
        steps = 0
        while b > dock:
            found = list(_unstep_candidates(state, b))
            if len(found) > 1:
                found = [(pre, pre_b) for pre, pre_b in found if pre_b in
                         _greedy_bottoms([v for v in pre if v % 3 == b % 3], reserved)]
            if len(found) != 1:
                return None
            (state, b), steps = found[0], steps + 1
        if b < dock or (counts and steps < counts[-1]):
            return None
        counts.append(steps)
    return state, tuple(counts)


def decode(partition: Partition) -> MotionData:
    """Invert apply_motions: recover the unique motion data whose forward
    replay produces the given admissible partition.

    The chain lengths and pair labels are read off the partition.  Pairing
    same-residue parts 3 apart, lowest first, gives k1 pairs among the
    1 mod 3 parts and k2 among the 2 mod 3 parts, so n1 is 2k1 or 2k1+1
    and n2 is 2k2 or 2k2+1.  For each such split the same pairing gives
    chain 1's pair bottoms (part 1, the remainder, left out when n1 is
    odd); chain 1 is unwound, and the pairing of the 2 mod 3 parts of
    what is left (3n1+2 left out when n2 is odd) gives chain 2's.  Each
    split's survivor is replayed forward in full; none, or two distinct
    ones, is an error.

    On the certified sizes this restricted search finds the only
    pre-image: within `certify_range` every image decodes to its own data,
    and no two data share an image.  Beyond them the read-off is checked
    against an exhaustive search over every split and labelling, in the
    tests and in CI.
    """
    p = tuple(partition)
    if not is_schur_admissible(p):
        raise ValueError("partition violates the gap conditions: %s" % (p,))
    size = sum(p)
    res1 = [v for v in p if v % 3 == 1]
    res2 = [v for v in p if v % 3 == 2]
    zeros = len(p) - len(res1) - len(res2)
    k1, k2 = len(_greedy_bottoms(res1)), len(_greedy_bottoms(res2))

    found: set[MotionData] = set()
    for n1 in (2 * k1, 2 * k1 + 1):
        # the low chain remainder has nothing beneath it and stays put
        rem1 = 1 if n1 % 2 else None
        if rem1 is not None and (not res1 or res1[0] != rem1):
            continue
        # leaving part 1 out can cost the pairing a pair, never add one
        bottoms1 = _greedy_bottoms(res1, rem1)
        if len(bottoms1) < k1:
            continue
        for n2 in (2 * k2, 2 * k2 + 1):
            m = len(p) - n1 - n2
            if m < zeros or weight_a(n1, n2, m) > size:
                continue
            # the high remainder can be crossed by lower pairs, dropping
            # 6 per crossing, so only its residue and a ceiling survive,
            # and a 2 mod 3 part beyond the 2*k2 in pairs
            rem2 = 3 * n1 + 2 if n2 % 2 else None
            if rem2 is not None and (len(res2) <= 2 * k2 or not any(
                    v <= rem2 and v % 6 == rem2 % 6 for v in res2)):
                continue
            data = _decode_split(p, n1, n2, m, bottoms1, rem1, rem2)
            if data is not None:
                found.add(data)
    if not found:
        raise DecodeError("no motion pre-image for %s" % (p,))
    if len(found) > 1:
        raise DecodeError("ambiguous motion pre-image for %s: %s"
                          % (p, [d.as_dict() for d in sorted(found, key=repr)]))
    return found.pop()


def _decode_split(p: Partition, n1: int, n2: int, m: int, bottoms1: list[int],
                  rem1: int | None, rem2: int | None) -> MotionData | None:
    # the motion data of this split, if its full forward replay gives p
    dock = minimal_configuration(n1, n2, m)
    chains, k2 = n1 + n2, n2 // 2

    # 1 mod 3 pairs were the last to move forward, so they unwind first.
    # Their crossings can have displaced whole 2 mod 3 pairs, so those
    # pairs are only identified afterwards, in the intermediate state.
    unwound = _unwind(list(p), bottoms1, _pair_docks(dock, 0, n1), rem1)
    if unwound is None:
        return None
    state1, rho1 = unwound
    bottoms2 = _greedy_bottoms([v for v in state1 if v % 3 == 2], rem2)[:k2]
    if len(bottoms2) < k2:
        return None
    unwound = _unwind(state1, bottoms2, _pair_docks(dock, n1, n2), rem2)
    if unwound is None:
        return None
    state0, rho2 = unwound
    # the chains are back on their docks, below every singleton dock, so
    # a singleton below them would have moved down
    if tuple(state0[:chains]) != dock[:chains]:
        return None
    r = tuple(v - z for v, z in zip(state0[chains:], dock[chains:]))
    # 0 <= r[0] <= r[1] <= ...
    if any(a > b for a, b in zip((0,) + r, r)):
        return None
    data = MotionData(n1, n2, m, r=r, rho2=rho2, rho1=rho1)
    return data if apply_motions(data) == p else None


# ---------------------------------------------------------------------------
# bounds and sweeps

def max_motions(n1: int, n2: int, m: int, N: int) -> dict[str, int | None] | None:
    """Largest admissible motion values under a largest-part bound N:
    caps for the top singleton displacement and for any single pair's
    step count, or None for an absent component; every cap is >= 0.
    None when the cell does not fit at all: its minimal configuration's
    largest part already exceeds N."""
    dock = minimal_configuration(n1, n2, m)
    if N < 0:
        raise ValueError("largest-part bound must be >= 0")
    if dock and dock[-1] > N:
        return None
    r_cap = N - dock[-1] if m else None
    rho2_cap = (N - dock[n1 + n2 - 1]) // 3 - m if n2 >= 2 else None
    rho1_cap = (N - dock[n1 - 1]) // 3 - m - n2 if n1 >= 2 else None
    return {"r": r_cap, "rho2": rho2_cap, "rho1": rho1_cap}


def _weakly_increasing(count: int, total: int, max_value: int | None = None,
                       lo: int = 0) -> Iterator[tuple[int, ...]]:
    """Weakly increasing tuples of the given length, entries >= lo, sum
    <= total, optionally with entries <= max_value."""
    if count == 0:
        if total >= 0:
            yield ()
        return
    hi = total // count if max_value is None else min(total // count, max_value)
    for v in range(lo, hi + 1):
        for rest in _weakly_increasing(count - 1, total - v, max_value, v):
            yield (v,) + rest


def _cells(T: int, weight: Callable[[int, int, int], int]):
    # (n1, n2, m, w) for every cell with w = weight(n1, n2, m) <= T; each
    # weight grows in every index, so each loop stops at its first cell
    # past the window.
    n1 = 0
    while weight(n1, 0, 0) <= T:
        n2 = 0
        while weight(n1, n2, 0) <= T:
            m = 0
            while (w := weight(n1, n2, m)) <= T:
                yield n1, n2, m, w
                m += 1
            n2 += 1
        n1 += 1


def enumerate_motion_data(max_size: int,
                          largest_part: int | None = None) -> Iterator[MotionData]:
    """All motion data whose resulting partition has size <= max_size;
    with largest_part given, also skip every cell that max_motions says
    does not fit and restrict every budget to its caps, which bounds the
    resulting largest part."""
    caps: dict[str, int | None] | None = {"r": None, "rho2": None, "rho1": None}
    for n1, n2, m, a in _cells(max_size, weight_a):
        if largest_part is not None:
            caps = max_motions(n1, n2, m, largest_part)
            if caps is None:
                continue
        budget = max_size - a
        for r in _weakly_increasing(m, budget, caps["r"]):
            left = budget - sum(r)
            for rho2 in _weakly_increasing(n2 // 2, left // 6, caps["rho2"]):
                left2 = left - 6 * sum(rho2)
                for rho1 in _weakly_increasing(n1 // 2, left2 // 6, caps["rho1"]):
                    yield MotionData(n1, n2, m, r, rho2, rho1)


def certify_range(max_size: int) -> dict[str, Any]:
    """Check every motion budget with size <= max_size in one pass: its
    image is admissible and decodes back to it, so no two budgets share
    an image (decode is a function), and the images of each size are as
    many as the oracle counts, so they are exactly the admissible
    partitions.  Returns a summary; the first failure, in enumeration
    order, is described instead of raised so sweeps can be reported."""
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    images = [0] * (max_size + 1)
    for data in enumerate_motion_data(max_size):
        failure = _certify_datum(data)
        if failure is not None:
            return {"max_size": max_size, "status": "failed", "failure": failure}
        images[data.size] += 1

    for size, (got, want) in enumerate(zip(images, schur_counts(max_size))):
        if got != want:
            return {"max_size": max_size, "status": "failed",
                    "failure": {"kind": "coverage", "size": size,
                                "images": got, "oracle": want}}
    return {"max_size": max_size, "status": "verified",
            "partitions": sum(images), "failure": None}


def _certify_datum(data: MotionData) -> dict[str, Any] | None:
    # the first of certify_range's checks that one budget fails, or None
    try:
        result = apply_motions(data)
    except MotionRuleError as exc:
        return {"kind": "no-rule", "data": data.as_dict(), "detail": str(exc)}
    if not is_schur_admissible(result):
        return {"kind": "inadmissible-image", "data": data.as_dict(),
                "partition": list(result)}
    try:
        back = decode(result)
    except DecodeError as exc:
        return {"kind": "decode", "data": data.as_dict(),
                "partition": list(result), "detail": str(exc)}
    if back != data:
        return {"kind": "round-trip", "partition": list(result),
                "encoded": data.as_dict(), "decoded": back.as_dict()}
    return None
