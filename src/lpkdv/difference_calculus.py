"""Exact finite-difference calculus on one lattice and between nested lattices.

Everything in this module runs over exact rationals (`fractions.Fraction`);
floating point is deliberately absent. These identities are exact and serve
as the trust anchor for the floating-point modules: windows shrink under
differencing (no padding), series are truncated at the slowness order of the
operand, and every equality check is exact.

Conventions:
  * forward difference  D u(n) = u(n+1) - u(n)
  * formal derivative   d = ln(1 + D) = sum_{i>=1} (-1)^(i-1) D^i / i,
    truncated at the slowness order of the operand
  * Stirling numbers: first kind SIGNED (s(2,1) = -1), second kind standard.
    The cross-lattice coefficient P[i,j] = sum_k h^k s(i,k) S(k,j) connects
    fine-lattice differences to coarse-lattice ones; the signed convention is
    pinned by a regression test (P[2,1] must equal h^2 - h).
  * partial shift       T_n1 = exp(h d) on the coarse variable; the lattice
    shift factors as (partial n-shift) x exp(h d), which
    verify_shift_decomposition checks with the same formal derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .errors import DomainError


def _rat(x) -> Fraction:
    if isinstance(x, float):
        raise DomainError("exact module: floats are not accepted, pass int/Fraction/str")
    return Fraction(x)


@dataclass(frozen=True)
class Sequence1D:
    """Lattice function sampled on the contiguous integer window [n_min, n_min+len)."""

    values: tuple
    n_min: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_rat(v) for v in self.values))
        if len(self.values) < 1:
            raise DomainError("Sequence1D needs a non-empty window")

    def __len__(self):
        return len(self.values)


def sequence_from_function(f, n_min: int, n_max: int) -> Sequence1D:
    """Sample f at integer points n_min..n_max (inclusive); f must return exact values."""
    return Sequence1D(tuple(_rat(f(n)) for n in range(n_min, n_max + 1)), n_min)


@dataclass(frozen=True)
class ScaleRatio:
    """Lattice-spacing ratio h = M/N between the fine and the coarse lattice."""

    M: int
    N: int

    def __post_init__(self):
        if self.M <= 0 or self.N <= 0:
            raise DomainError("ScaleRatio needs positive integers M, N")
        if self.value > 1:
            raise DomainError(f"ScaleRatio must satisfy 0 < M/N <= 1, got {self.M}/{self.N}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.M, self.N)


def _differences(values, lo: int, hi: int):
    """(i, D^i values) for i = lo..hi, with D^0 = values; each application of
    D makes the list one entry shorter."""
    vals = list(values)
    for i in range(hi + 1):
        if i > 0:
            vals = [b - a for a, b in zip(vals, vals[1:])]
        if i >= lo:
            yield i, vals


def _difference_sum(seq: Sequence1D, lo: int, hi: int, coefficient) -> Sequence1D:
    """sum_{i=lo..hi} coefficient(i) D^i seq, on the window of D^hi."""
    acc = [Fraction(0)] * (len(seq) - hi)
    for i, vals in _differences(seq.values, lo, hi):
        c = coefficient(i)
        acc = [a + c * v for a, v in zip(acc, vals)]
    return Sequence1D(tuple(acc), seq.n_min)


def forward_difference(seq: Sequence1D, j: int) -> Sequence1D:
    """Apply the forward difference D^j; the window shrinks by j on the right."""
    if j < 0:
        raise DomainError("difference order must be non-negative")
    if len(seq) <= j:
        raise DomainError(
            f"window length {len(seq)} too short for D^{j}; need at least {j + 1}"
        )
    [(_, vals)] = _differences(seq.values, j, j)
    return Sequence1D(tuple(vals), seq.n_min)


def formal_derivative(seq: Sequence1D, ell: int) -> Sequence1D:
    """ln(1+D) applied to seq, truncated at order ell (the slowness order).

    On a polynomial sequence of degree ell this reproduces the continuum
    derivative exactly.
    """
    if ell < 0:
        raise DomainError("truncation order must be non-negative")
    if len(seq) <= ell:
        raise DomainError(f"window length {len(seq)} too short for truncation order {ell}")
    return _difference_sum(seq, 1, ell, lambda i: Fraction((-1) ** (i - 1), i))


@dataclass(frozen=True)
class StirlingTable:
    """Triangular tables of Stirling numbers up to max_order.

    first_kind[i][k] holds the SIGNED first-kind number s(i, k);
    second_kind[k][j] holds the second-kind number S(k, j).  Indices run
    1..max_order; entries outside the triangle are 0.
    """

    max_order: int
    first_kind: tuple = field(repr=False)
    second_kind: tuple = field(repr=False)

    def first(self, i: int, k: int) -> int:
        if not (1 <= i <= self.max_order):
            raise DomainError(f"first-kind index i={i} outside 1..{self.max_order}")
        if k < 1 or k > i:
            return 0
        return self.first_kind[i - 1][k - 1]

    def second(self, k: int, j: int) -> int:
        if not (1 <= k <= self.max_order):
            raise DomainError(f"second-kind index k={k} outside 1..{self.max_order}")
        if j < 1 or j > k:
            return 0
        return self.second_kind[k - 1][j - 1]


def stirling_tables(max_order: int) -> StirlingTable:
    """Build both Stirling triangles via the standard two-term recurrences."""
    if max_order < 1:
        raise DomainError("max_order must be >= 1")
    first = [[1]]
    second = [[1]]
    for n in range(2, max_order + 1):
        prev = [0, *first[-1], 0]  # s(n-1, k) for k = 0..n
        first.append([prev[k - 1] - (n - 1) * prev[k] for k in range(1, n + 1)])
        prev = [0, *second[-1], 0]  # S(n-1, j) for j = 0..n
        second.append([prev[j - 1] + j * prev[j] for j in range(1, n + 1)])
    return StirlingTable(
        max_order,
        tuple(tuple(r) for r in first),
        tuple(tuple(r) for r in second),
    )


def p_coefficient(i: int, j: int, h: ScaleRatio, tables: StirlingTable) -> Fraction:
    """Cross-lattice connection coefficient P[i,j] = sum_k h^k s(i,k) S(k,j)."""
    if not (1 <= j <= i <= tables.max_order):
        raise DomainError(f"need 1 <= j <= i <= {tables.max_order}, got i={i}, j={j}")
    hv = h.value
    return sum(
        (hv ** k) * tables.first(i, k) * tables.second(k, j) for k in range(j, i + 1)
    )


def cross_lattice_difference(u_slow: Sequence1D, h: ScaleRatio, j: int, ell: int) -> Sequence1D:
    """Fine-lattice difference D^j computed from coarse-lattice differences.

    u_slow holds samples on the coarse (integer n1) lattice and is assumed
    slow-varying of order ell there; output values sit at the integer-n1
    anchor points.  The connection series is truncated at i = ell, so for a
    degree-ell polynomial the result is exact.
    """
    if j < 1:
        raise DomainError("difference order j must be >= 1")
    if ell < 0:
        raise DomainError("slowness order must be non-negative")
    if len(u_slow) <= ell:
        raise DomainError(
            f"slowness order {ell} exceeds available window (length {len(u_slow)})"
        )
    tables = stirling_tables(ell) if ell >= j else None
    return _difference_sum(u_slow, j, ell, lambda i: Fraction(factorial(j), factorial(i))
                           * p_coefficient(i, j, h, tables))


def shift_verdicts(max_degree: int, ratios) -> list:
    """[[exp(h d) x^b == (x + h)^b, for b = 0..max_degree] for h in ratios],
    with d = formal_derivative truncated at b and the exponential series at
    its b-th term.  x^b is sampled on x = 0..b^2+b, each application of d
    shortens the window by b, and both sides are compared exactly at the b+1
    points x = 0..b left, which fix a polynomial of degree b.  Each chain
    d^i x^b is built once and serves every h."""
    out = [[] for _ in ratios]
    for b in range(max_degree + 1):
        chain = [sequence_from_function(lambda x: x ** b, 0, b * b + b)]
        for _ in range(b):
            chain.append(formal_derivative(chain[-1], b))
        for h, verdicts in zip(ratios, out):
            hv = h.value
            series = [hv ** i / factorial(i) for i in range(b + 1)]
            shifted = [sum(c * v for c, v in zip(series, col))
                       for col in zip(*(term.values[:b + 1] for term in chain))]
            verdicts.append(shifted == [(x + hv) ** b for x in range(b + 1)])
    return out


def verify_shift_decomposition(poly_degree: int, h: ScaleRatio) -> bool:
    """Check T_n u = (partial n-shift)(truncated partial n1-shift) u exactly.

    On a monomial n^a x1^b both sides carry the same partial n-shift
    (n+1)^a, so over all polynomials of degree <= poly_degree the
    decomposition reduces to exp(h d) x1^b == (x1 + h)^b for b <= poly_degree,
    the checks of shift_verdicts.  Returns True iff every one holds.
    """
    if poly_degree < 0:
        raise DomainError("poly_degree must be non-negative")
    return all(shift_verdicts(poly_degree, [h])[0])
