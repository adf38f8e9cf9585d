"""Closed-form ranks, counts, and bounds for the flattenings of the
structured polynomial families, evaluated in exact arithmetic.

Every function here has an independent matrix-rank oracle in the verify
suites; nothing is trusted to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log2

from . import exactla, koszul
from .exactla import binomial
from .symtensor import Poly


@dataclass(frozen=True)
class BoundReport:
    """A certified lower bound, with an optional upper companion.

    ``secondary`` carries a coarser closed-form (lower, upper) pair when
    one is available for the same quantity.
    """

    subject: str
    lower: int
    upper: int | None
    source: str
    parameters: dict
    secondary: tuple[int, int] | None = None

    def __post_init__(self):
        if self.upper is not None and self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


def S_formula(p: int, d: int, k: int) -> int:
    """Closed-form rank of the Koszul flattening of x1*...*xd.

    Evaluates the binomial-sum form and cross-checks the equivalent
    factorial form in exact rational arithmetic before returning.
    """
    if not (1 <= k < d and 1 <= p < d):
        raise ValueError(f"(p={p}, k={k}) outside [1, {d - 1}]^2")
    lo, hi = max(0, p - k), min(p, d - k - 1)
    first = sum(
        binomial(d, s)
        * binomial(d - s, d - k + p - 2 * s)
        * binomial(d - k + p - 2 * s - 1, p - s)
        for s in range(lo, hi + 1)
    )
    prefactor = Fraction(factorial(d), factorial(p) * factorial(d - p - 1))
    second = prefactor * sum(
        (
            Fraction(binomial(p, s) * binomial(d - 1 - p, s + k - p), d - k + p - 2 * s)
            for s in range(lo, hi + 1)
        ),
        Fraction(0),
    )
    if first != second:
        raise ArithmeticError(f"closed forms disagree at (p={p}, d={d}, k={k})")
    return first


def hook_dim(d: int, k: int, p: int) -> int:
    """Dimension of the generic Koszul flattening image in d variables:
    (d/(d-k+p)) * C(2d-k-1, d) * C(d-1, p), always an integer."""
    if not (1 <= k < d and 1 <= p < d):
        raise ValueError(f"(k={k}, p={p}) outside [1, {d - 1}]^2")
    value = Fraction(d, d - k + p) * binomial(2 * d - k - 1, d) * binomial(d - 1, p)
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral hook dimension at (d={d}, k={k}, p={p})")
    return int(value)


def veronese_point_rank(d: int, p: int) -> int:
    """Koszul flattening rank at a d-th power of a linear form: C(d-1, p),
    independent of the derivative order."""
    if not 1 <= p < d:
        raise ValueError(f"wedge degree p={p} outside [1, {d - 1}]")
    return binomial(d - 1, p)


def border_rank_lb(P: Poly, k: int, p: int) -> BoundReport:
    """Symmetric border rank lower bound: the Koszul flattening rank divided
    by the per-point rank C(d-1, p), rounded up.

    The per-point divisor is taken in degree-many variables, so the
    certificate is valid whenever the ambient variable count is at most
    the degree (it is exact for the product family, where they agree).
    """
    result = exactla.rank_auto(koszul.koszul_flattening(P, k, p))
    per_point = veronese_point_rank(P.degree, p)
    lower = -(-result.rank // per_point)
    return BoundReport(
        subject=f"{len(P.terms)}-term degree-{P.degree} form in {P.n_vars} variables",
        lower=lower,
        upper=None,
        source="koszul_point_ratio",
        parameters={
            "d": P.degree,
            "k": k,
            "p": p,
            "flattening_rank": result.rank,
            "per_point_rank": per_point,
            "method": result.method,
        },
    )


def chowsrank_intermediate_sum(n: int) -> Fraction:
    """The exact rational sum of C(n,s)^2 / (1 + 2s) over s in [0, n]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return sum(
        (Fraction(binomial(n, s) ** 2, 1 + 2 * s) for s in range(n + 1)),
        Fraction(0),
    )


def chowsrank_bound(n: int) -> Fraction:
    """Closed-form border rank lower bound for the odd-degree product
    x1*...*x(2n+1): C(2n+1, n) * (1 + n^2 / ((n+1)^2 (2n-1)))."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return binomial(2 * n + 1, n) * (1 + Fraction(n * n, (n + 1) ** 2 * (2 * n - 1)))


def secant_chow_cat_rank(r: int, d: int, k: int) -> int:
    """Flattening rank r*C(d,k) of a sum of r disjoint degree-d products,
    asserted for derivative orders up to floor(d/2)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if not 1 <= k <= d // 2:
        raise ValueError(f"derivative order k={k} outside [1, {d // 2}]")
    return r * binomial(d, k)


def secant_chow_koszul_ub(r: int, d: int, k: int, p: int) -> int:
    """Upper bound r*[C(d,k)*(C(dr,p) - C(d,p)) + S] on the Koszul flattening
    rank of a sum of r disjoint products.

    At k = p = 1 the stated closed form d^2 r^2 - r is returned; for d >= 3
    it coincides with the general expression (S(1,d,1) = d^2 - 1 there),
    while in degree 2 it is the weaker of the two valid bounds."""
    if r < 2:
        raise ValueError("r must be at least 2")
    if not (1 <= k < d and 1 <= p < d):
        raise ValueError(f"(k={k}, p={p}) outside [1, {d - 1}]^2")
    if k == 1 and p == 1:
        return d * d * r * r - r
    return r * (
        binomial(d, k) * (binomial(d * r, p) - binomial(d, p)) + S_formula(p, d, k)
    )


def generic_kyfl11_rank(n: int) -> int:
    """Generic rank n^2 - 1 of the (1, d-1) Koszul flattening with p = 1;
    the trace tensor always sits in the kernel.

    n^2 - 1 is the generic rank only where the target S^{d-2}V (x) L^2 V,
    of dimension C(n+d-3, d-2) * C(n, 2), has dimension at least n^2 - 1.
    That holds for every n >= 2, d >= 3 except (n, d) = (2, 3), where the
    rank is the target dimension, 2.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return n * n - 1


def _bounded_compositions(total: int, parts: int, top: int) -> int:
    """Number of ways to write total as `parts` values in [1, top]."""
    if parts == 0:
        return 1 if total == 0 else 0
    if top < 1:
        return 0
    return sum(
        (-1) ** j * binomial(parts, j) * binomial(total - 1 - j * top, parts - 1)
        for j in range(parts + 1)
    )


def num_ab(A: int, B: int, k: int, delta1: int, delta2: int, r: int) -> int:
    """Number of support classes with floor sum A and ceiling defect B:
    residue vectors beta in [0, delta2)^r with sum k - A*delta2 and exactly
    delta1 - B - A positive entries.  Zero for infeasible parameters.

    The positive residues are counted by inclusion-exclusion on the
    composition count.
    """
    if delta1 < 1 or delta2 < 1 or r < 1 or k < 1:
        raise ValueError("parameters must be at least 1")
    remainder = k - A * delta2
    positives = delta1 - B - A
    if A < 0 or remainder < 0 or positives < 0 or positives > r:
        return 0
    return binomial(r, positives) * _bounded_compositions(remainder, positives, delta2 - 1)


def psp_rank_bounds(r: int, delta1: int, delta2: int, k: int) -> BoundReport:
    """Sandwich for the flattening rank of (x1^delta2+...+xr^delta2)^delta1:
    the number of rank-one classes below, the min-dimension class sum above.

    At the middle derivative order with r >= 2*delta1 the coarser pair
    (C(r, delta1), delta1*C(r, delta1)*C(floor(d/2)-1, delta1-1)) is
    attached as ``secondary``.
    """
    for name, value in (("r", r), ("delta1", delta1), ("delta2", delta2)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, not {value}")
    d = delta1 * delta2
    if not 1 <= k < d:
        raise ValueError(f"derivative order k={k} outside [1, {d - 1}]")
    lower = num_ab(0, 0, k, delta1, delta2, r)
    upper = 0
    for a_val in range(k // delta2 + 1):
        dim_a = binomial(a_val + r - 1, a_val)
        for b_val in range(delta1 - a_val + 1):
            count = num_ab(a_val, b_val, k, delta1, delta2, r)
            if count:
                dim_b = binomial(b_val + r - 1, b_val)
                upper += min(dim_a, dim_b) * count
    secondary = None
    if k == d // 2 and r >= 2 * delta1:
        secondary = (
            binomial(r, delta1),
            delta1 * binomial(r, delta1) * binomial(d // 2 - 1, delta1 - 1),
        )
    return BoundReport(
        subject=f"power-sum power form (r={r}, inner={delta2}, outer={delta1})",
        lower=lower,
        upper=upper,
        source="NUMAB",
        parameters={"r": r, "delta1": delta1, "delta2": delta2, "k": k, "d": d},
        secondary=secondary,
    )


def perm_cat_rank(n: int, k: int) -> int:
    """Flattening rank C(n,k)^2 of the n x n permanent, for k up to n//2."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= k <= n // 2:
        raise ValueError(f"derivative order k={k} outside [0, {n // 2}]")
    return binomial(n, k) ** 2


def permcom_gap(n: int, r: int, delta1: int) -> tuple[Fraction, float]:
    """Exact ratio C(n, n//2)^2 / (r * (n//2))^delta1 between the permanent's
    middle flattening rank and the power-sum-power upper bound, plus its
    base-2 logarithm for display.  Reports the ratio whichever side of 1 it
    falls on."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if delta1 < 1 or n % delta1:
        raise ValueError("delta1 must divide n")
    if r < n:
        raise ValueError("r must be at least n")
    ratio = Fraction(binomial(n, n // 2) ** 2, (r * (n // 2)) ** delta1)
    return ratio, log2(ratio.numerator) - log2(ratio.denominator)
