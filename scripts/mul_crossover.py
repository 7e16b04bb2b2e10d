"""Time the two multi-term routes of `QPoly.__mul__` against each other.

Usage: PYTHONPATH=src python3 scripts/mul_crossover.py [--repeat 7]

For each size it multiplies two Gaussian binomials [top, 3] (all
coefficients positive, exponents on stride 2 half-steps) by `_mul_dict`
and by `_mul_packed`, which hands the product to `qpoly._packed_sum` as
one signed sum of its factors' sign parts.  It asserts that the two
routes agree, and prints the coefficient pairs with the best time of
each route in microseconds; the routes take turns in every round, so a
drift in the machine's speed reaches both.  Factors this even in length
favour the packed route, so `_PACK_THRESHOLD` in `qpoly.py` is read off
replays of the products the package makes instead (see the comment
above it).  The triple and trinomial sums call `_packed_sum` directly,
so the threshold serves the summands, the recurrences and the truncated
series.
"""

from __future__ import annotations

import argparse
import timeit

from qschur.qcoeff import gauss_binomial
from qschur.qpoly import QPoly

# tops of the two factors; [top, 3] has 3*(top-3)+1 terms
SHAPES = ((4, 5), (5, 5), (5, 6), (6, 6), (6, 7), (7, 7), (7, 8), (8, 8),
          (9, 9), (10, 10), (12, 12), (14, 14), (17, 17), (20, 20), (24, 24))


def best_us(a: dict, b: dict, repeat: int) -> tuple[float, float]:
    # best time of each route over `repeat` rounds, the routes taking turns
    number = max(1, 20000 // (len(a) * len(b)))
    best = [float("inf")] * 2
    for _ in range(repeat):
        for i, fn in enumerate((QPoly._mul_dict, QPoly._mul_packed)):
            t = timeit.timeit(lambda: fn(a, b), number=number) / number
            best[i] = min(best[i], t * 1e6)
    return best[0], best[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    print("%6s %10s %12s" % ("pairs", "dict_us", "packed_us"))
    for top_a, top_b in SHAPES:
        a = gauss_binomial(top_a, 3)._c
        b = gauss_binomial(top_b, 3)._c
        assert QPoly._mul_dict(a, b) == QPoly._mul_packed(a, b)
        print("%6d %10.1f %12.1f" % (len(a) * len(b),
                                     *best_us(a, b, args.repeat)))


if __name__ == "__main__":
    main()
