"""Brute-force partition enumeration, used as the independent oracle.

Two partition classes are enumerated here:

* gap-admissible partitions: consecutive parts differ by at least 3, and
  by at least 6 whenever both parts are multiples of 3;
* partitions into distinct parts congruent to 1 or 2 mod 3.

The gap rule is stated once, in `_min_gap`, the test of one adjacent
pair; `is_schur_admissible` and the walk of the gap-admissible class both
read it, and so does the motion bijection through `is_schur_admissible`.
Both classes share one streamed walk, `_walk`, a depth-first search over
part choices that yields (size, parts) in lexicographic order of the part
tuples; a class is the test of which part may follow which.  The
counting functions consume the walk without storing it.  The oracle
deliberately knows nothing about the series builders it is used to
validate, so an error would have to be made twice, in two unrelated
ways, to go unnoticed.

Partitions are ascending tuples of positive ints; the empty tuple is the
unique partition of 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Iterator

from .qpoly import QPoly, XSeries

Partition = tuple[int, ...]


def _min_gap(prev: int, nxt: int) -> bool:
    # the gap rule, for one adjacent pair: at least 3 apart, and at least
    # 6 when both are multiples of 3
    gap = nxt - prev
    return gap >= 6 or gap >= 3 and (prev % 3 != 0 or nxt % 3 != 0)


def is_schur_admissible(parts: Iterable[int]) -> bool:
    """First part >= 1 and `_min_gap` between every two consecutive parts,
    which also makes the parts ascending.  The tightening to 6 applies
    only when both neighbours are divisible by 3: a multiple of 3 may sit
    4 or 5 below a non-multiple."""
    prev = 0
    for p in parts:
        if not (_min_gap(prev, p) if prev else p >= 1):
            return False
        prev = p
    return True


def _schur_follows(prev: int, p: int) -> bool:
    # the gap rule above the previous part; the first part is free
    return prev == 0 or _min_gap(prev, p)


def _pm1_follows(prev: int, p: int) -> bool:
    # distinct parts (the walk climbs) off the multiples of 3
    return p % 3 != 0


def _walk(n_max: int, largest_part: int | None,
          follows: Callable[[int, int], bool]) -> Iterator[tuple[int, Partition]]:
    # (size, parts) for every partition of size <= n_max into parts <=
    # largest_part, each part above the last with follows(last, part)
    # (last = 0 for the first part), in lexicographic order of the
    # ascending part tuples (the empty one first): depth-first, smallest
    # part first.  The parts that may follow each part are listed once,
    # so the search itself tests no rule: each depth runs through the
    # list of its last part until a part outgrows the size left.
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if largest_part is not None and largest_part < 0:
        raise ValueError("largest-part bound must be >= 0")
    bound = n_max if largest_part is None else min(largest_part, n_max)
    after = [[p for p in range(prev + 1, bound + 1) if follows(prev, p)]
             for prev in range(bound + 1)]
    yield 0, ()
    stack = [((), 0, iter(after[0]))]
    while stack:
        prefix, size, choices = stack[-1]
        for p in choices:
            total = size + p
            if total > n_max:  # and so is every later choice
                stack.pop()
                break
            nxt = prefix + (p,)
            yield total, nxt
            stack.append((nxt, total, iter(after[p])))
            break
        else:
            stack.pop()


def _counts(n_max: int, walk: Iterable[tuple[int, Partition]]) -> list[int]:
    counts = [0] * (n_max + 1)
    for size, _ in walk:
        counts[size] += 1
    return counts


def schur_counts(n_max: int, largest_part: int | None = None) -> list[int]:
    return _counts(n_max, _walk(n_max, largest_part, _schur_follows))


def distinct_pm1_counts(n_max: int) -> list[int]:
    return _counts(n_max, _walk(n_max, None, _pm1_follows))


def schur_gf_oracle(T: int, largest_part: int | None = None) -> XSeries:
    """Sum of x^(number of parts) q^size over gap-admissible partitions
    of size <= T, counted straight off the walk."""
    strata: defaultdict[int, list[int]] = defaultdict(lambda: [0] * (T + 1))
    for n, parts in _walk(T, largest_part, _schur_follows):
        strata[len(parts)][n] += 1
    return XSeries(T, {x: QPoly.from_table(row) for x, row in strata.items()})


def format_partition(parts: Iterable[int]) -> str:
    """Comma-separated ascending parts; empty partition is the empty string."""
    return ",".join(str(p) for p in parts)


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError("partition must be comma-separated integers") from exc
    if any(p < 1 for p in parts):
        raise ValueError("parts must be positive")
    if list(parts) != sorted(parts):
        raise ValueError("parts must be ascending")
    return parts
