"""Time the two multi-term routes of `QPoly.__mul__` against each other.

Usage: PYTHONPATH=src python3 scripts/mul_crossover.py [--repeat 7]

For each size it multiplies two Gaussian binomials [top, 3] (all
coefficients positive, exponents on stride 2 half-steps) once by
`_mul_dict` and once by `_mul_packed`, and prints the coefficient pairs
with the best time of each route in microseconds.  `_PACK_THRESHOLD` in
`qpoly.py` is read off this table: the largest pair count at which
`_mul_dict` still wins.  The triple and trinomial sums do not multiply
through `QPoly.__mul__` (they sum dense tables in `qpoly._packed_sum`),
so the threshold serves the summands, the recurrences and the truncated
series.
"""

from __future__ import annotations

import argparse
import timeit

from qschur.qcoeff import gauss_binomial
from qschur.qpoly import QPoly

# tops of the two factors; [top, 3] has 3*(top-3)+1 terms
SHAPES = ((4, 5), (5, 5), (5, 6), (6, 6), (6, 7), (7, 7), (8, 8), (9, 9),
          (10, 10), (12, 12), (14, 14), (17, 17), (20, 20), (24, 24))


def best_us(fn, a: dict, b: dict, repeat: int) -> float:
    number = max(1, 20000 // (len(a) * len(b)))
    return min(timeit.repeat(lambda: fn(a, b), number=number,
                             repeat=repeat)) / number * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    print("%6s %10s %12s" % ("pairs", "dict_us", "packed_us"))
    for top_a, top_b in SHAPES:
        a = gauss_binomial(top_a, 3)._c
        b = gauss_binomial(top_b, 3)._c
        assert QPoly._mul_dict(a, b) == QPoly._mul_packed(a, b)
        print("%6d %10.1f %12.1f" % (
            len(a) * len(b), best_us(QPoly._mul_dict, a, b, args.repeat),
            best_us(QPoly._mul_packed, a, b, args.repeat)))


if __name__ == "__main__":
    main()
