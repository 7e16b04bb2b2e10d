"""Brute-force partition enumeration, used as the independent oracle.

Two partition classes are enumerated here:

* gap-admissible partitions: consecutive parts differ by at least 3, and
  by at least 6 whenever both parts are multiples of 3;
* partitions into distinct parts congruent to 1 or 2 mod 3.

Each class has one streamed walk, a depth-first search over part
choices that yields (size, parts) in lexicographic order of the part
tuples and stores nothing: the counting functions consume it directly,
and only the two `enumerate_*` functions collect it by size.  The oracle
deliberately knows nothing about the series builders it is used to
validate, so an error would have to be made twice, in two unrelated
ways, to go unnoticed.  The module also hosts `weight_a` and the cell
walk `_cells`, which `bijection` and `schur_sums` share without an
import cycle; the enumerators use neither, so the oracle stays apart.

Partitions are ascending tuples of positive ints; the empty tuple is the
unique partition of 0.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .qpoly import QPoly, XSeries

Partition = tuple[int, ...]


def weight_a(n1: int, n2: int, m: int) -> int:
    """Size of the minimal admissible configuration with chain lengths
    n1, n2 and m singletons: (2m+s+1)(2m+s)/2 + m*s + s^2 - n1, s=n1+n2."""
    s = n1 + n2
    u = 2 * m + s
    return u * (u + 1) // 2 + m * s + s * s - n1


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


def is_schur_admissible(parts: Iterable[int]) -> bool:
    """Gap >= 3 between consecutive parts, >= 6 when both are multiples
    of 3; parts ascending and positive.  The tightening applies only when
    both neighbours are divisible by 3: a multiple of 3 may sit 4 or 5
    below a non-multiple."""
    prev = None
    for p in parts:
        if p < 1:
            return False
        if prev is not None:
            gap = p - prev
            if gap < 3:
                return False
            if gap < 6 and p % 3 == 0 and prev % 3 == 0:
                return False
        prev = p
    return True


def _min_gap(prev: int, nxt: int) -> bool:
    # admissibility of one adjacent pair
    gap = nxt - prev
    if gap < 3:
        return False
    return gap >= 6 or nxt % 3 != 0 or prev % 3 != 0


def _schur_walk(n_max: int, largest_part: int | None = None
                ) -> Iterator[tuple[int, Partition]]:
    # (size, parts) for every gap-admissible partition of size <= n_max
    # with parts <= largest_part, in lexicographic order of the ascending
    # part tuples (the empty one first): depth-first, smallest part
    # first, one range of next parts per depth
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if largest_part is not None and largest_part < 0:
        raise ValueError("largest-part bound must be >= 0")
    bound = n_max if largest_part is None else min(largest_part, n_max)
    yield 0, ()
    stack = [((), 0, iter(range(1, bound + 1)))]
    while stack:
        prefix, size, choices = stack[-1]
        for p in choices:
            if prefix and not _min_gap(prefix[-1], p):
                continue
            nxt, total = prefix + (p,), size + p
            yield total, nxt
            stack.append((nxt, total, iter(range(p + 3, min(bound, n_max - total) + 1))))
            break
        else:
            stack.pop()


def _pm1_walk(n_max: int) -> Iterator[tuple[int, Partition]]:
    # (size, parts) for every partition into distinct parts +-1 mod 3 of
    # size <= n_max, in lexicographic order: the walk of _schur_walk
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    yield 0, ()
    stack = [((), 0, iter(range(1, n_max + 1)))]
    while stack:
        prefix, size, choices = stack[-1]
        for p in choices:
            if p % 3 == 0:
                continue
            nxt, total = prefix + (p,), size + p
            yield total, nxt
            stack.append((nxt, total, iter(range(p + 1, n_max - total + 1))))
            break
        else:
            stack.pop()


def _by_size(n_max: int, walk: Iterable[tuple[int, Partition]]) -> dict[int, list[Partition]]:
    by_size: dict[int, list[Partition]] = {n: [] for n in range(n_max + 1)}
    for size, parts in walk:
        by_size[size].append(parts)
    return by_size


def _counts(n_max: int, walk: Iterable[tuple[int, Partition]]) -> list[int]:
    counts = [0] * (n_max + 1)
    for size, _ in walk:
        counts[size] += 1
    return counts


def enumerate_schur(n_max: int, largest_part: int | None = None) -> dict[int, list[Partition]]:
    """All gap-admissible partitions of every size <= n_max, grouped by
    size, each list in lexicographic order of the ascending part tuples.

    `largest_part` bounds every part when given.  Collects `_schur_walk`,
    a depth-first search over the smallest part first.
    """
    return _by_size(n_max, _schur_walk(n_max, largest_part))


def enumerate_distinct_pm1_mod3(n_max: int) -> dict[int, list[Partition]]:
    """All partitions into distinct parts congruent to +-1 mod 3, of every
    size <= n_max, grouped by size, lists in lexicographic order."""
    return _by_size(n_max, _pm1_walk(n_max))


def schur_counts(n_max: int, largest_part: int | None = None) -> list[int]:
    return _counts(n_max, _schur_walk(n_max, largest_part))


def distinct_pm1_counts(n_max: int) -> list[int]:
    return _counts(n_max, _pm1_walk(n_max))


def schur_gf_oracle(T: int, largest_part: int | None = None) -> XSeries:
    """Sum of x^(number of parts) q^size over gap-admissible partitions
    of size <= T, counted straight off the walk."""
    strata: dict[int, dict[int, int]] = {}
    for n, parts in _schur_walk(T, largest_part):
        row = strata.setdefault(len(parts), {})
        row[n] = row.get(n, 0) + 1
    return XSeries(T, {x: QPoly.from_q_coeffs(row) for x, row in strata.items()})


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
