"""Reference forms that the property tests compare the library against:
each one is the plain definition, by schoolbook `QPoly` products, and
reads none of the library's kernels."""

from qschur.qcoeff import gauss_binomial
from qschur.qpoly import QPoly


def substitute(p, k):
    """p with q mapped to q^k, for a nonzero integer k; k = -1 is the
    q -> 1/q dual."""
    if k == 0:
        raise ValueError("substitute needs k != 0")
    return QPoly({k * e: v for e, v in p.items()})


def naive_trinomial(m, js, modulus, lead):
    """sum of q^(lead(j, k)/2) [m,k] [m-k,k+j] over j in js and every k
    whose binomials, in base q^modulus, could be nonzero, and more:
    gauss_binomial is zero outside its range.  Grouped by k, so a walk
    over many j stays cheap: each k's shifted [m-k,k+j] summed over j,
    then one schoolbook product with [m,k]."""
    reach = max(map(abs, js), default=0)
    total = QPoly.zero()
    for k in range(-reach - 2, m + reach + 3):
        outer = gauss_binomial(m, k, modulus)
        if not outer:
            continue
        inner = QPoly.zero()
        for j in js:
            inner = inner + gauss_binomial(m - k, k + j, modulus).shift(lead(j, k))
        total = total + outer * inner
    return total


def round_trinomial(m, b, a, modulus=1):
    """Round q-trinomial: sum_k q^(modulus*k(k+b)) [m,k] [m-k,k+a], base
    q^modulus, over every k where both binomials are nonzero; 0 for
    m < 0."""
    return naive_trinomial(m, [a], modulus,
                           lambda j, k: 2 * modulus * k * (k + b))
