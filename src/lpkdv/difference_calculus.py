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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .errors import DomainError

SHIFT_CHECK_POINTS = 5  # points n = 0..4 at which verify_shift_decomposition compares


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

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.values) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not (self.n_min <= n <= self.n_max):
            raise IndexError(f"lattice index {n} outside window [{self.n_min}, {self.n_max}]")
        return self.values[n - self.n_min]


def sequence_from_function(f, n_min: int, n_max: int) -> Sequence1D:
    """Sample f at integer points n_min..n_max (inclusive); f must return exact values."""
    return Sequence1D(tuple(_rat(f(n)) for n in range(n_min, n_max + 1)), n_min)


@dataclass(frozen=True)
class SlownessOrder:
    """Order ell of a slow-varying sequence: D^(ell+1) seq == 0; None means infinite."""

    order: int | None
    max_tested: int | None = None

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    def __str__(self):
        if self.is_finite:
            return str(self.order)
        return f"infinite (beyond {self.max_tested})"


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


def slowness_order(seq: Sequence1D, max_test: int) -> SlownessOrder:
    """Smallest ell <= max_test with D^(ell+1) seq identically zero on the window."""
    if max_test >= len(seq) - 1:
        raise DomainError(
            f"max_test {max_test} needs window length > {max_test + 1}, got {len(seq)}"
        )
    for i, vals in _differences(seq.values, 1, max_test + 1):
        if all(v == 0 for v in vals):
            return SlownessOrder(i - 1)
    return SlownessOrder(None, max_tested=max_test)


def formal_derivative(seq: Sequence1D, ell) -> Sequence1D:
    """ln(1+D) applied to seq, truncated at order ell (the slowness order).

    On a polynomial sequence of degree ell this reproduces the continuum
    derivative exactly.
    """
    if isinstance(ell, SlownessOrder):
        if not ell.is_finite:
            raise DomainError("truncation order required: sequence has no finite slowness order")
        ell = ell.order
    if ell < 0:
        raise DomainError("truncation order must be non-negative")
    if len(seq) <= ell:
        raise DomainError(f"window length {len(seq)} too short for truncation order {ell}")
    out_len = len(seq) - ell
    acc = [Fraction(0)] * out_len
    for i, vals in _differences(seq.values, 1, ell):
        c = Fraction((-1) ** (i - 1), i)
        for k in range(out_len):
            acc[k] += c * vals[k]
    return Sequence1D(tuple(acc), seq.n_min)


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
        prev = first[-1]
        row = []
        for k in range(1, n + 1):
            left = prev[k - 2] if k >= 2 else 0
            right = prev[k - 1] if k <= n - 1 else 0
            row.append(left - (n - 1) * right)
        first.append(row)
        prev = second[-1]
        row = []
        for j in range(1, n + 1):
            left = prev[j - 2] if j >= 2 else 0
            right = prev[j - 1] if j <= n - 1 else 0
            row.append(left + j * right)
        second.append(row)
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
    out_len = len(u_slow) - ell
    acc = [Fraction(0)] * out_len
    if ell >= j:
        tables = stirling_tables(ell)
        for i, vals in _differences(u_slow.values, j, ell):
            c = Fraction(factorial(j), factorial(i)) * p_coefficient(i, j, h, tables)
            for k in range(out_len):
                acc[k] += c * vals[k]
    return Sequence1D(tuple(acc), u_slow.n_min)


# -- two-variable exact polynomials for the shift-decomposition check ---------
#
# A Poly2 maps (a, b) -> coefficient of n^a * x1^b.  Only what the
# verification needs: evaluation, the total shift, and the two partial shifts.


def poly2_eval(poly: dict, n: Fraction, x1: Fraction) -> Fraction:
    n, x1 = _rat(n), _rat(x1)
    return sum(c * n ** a * x1 ** b for (a, b), c in poly.items())


def _poly2_shift(poly: dict, axis: int, step: Fraction) -> dict:
    """Substitute (n -> n+step) or (x1 -> x1+step) exactly."""
    step = _rat(step)
    out: dict = {}
    for (a, b), c in poly.items():
        deg = a if axis == 0 else b
        for t in range(deg + 1):
            coeff = c * comb(deg, t) * step ** (deg - t)
            key = (t, b) if axis == 0 else (a, t)
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v != 0}


def _poly2_delta_x1(poly: dict) -> dict:
    shifted = _poly2_shift(poly, 1, 1)
    out = dict(shifted)
    for k, c in poly.items():
        out[k] = out.get(k, Fraction(0)) - c
    return {k: v for k, v in out.items() if v != 0}


def _poly2_x1_degree(poly: dict) -> int:
    return max((b for (_, b) in poly), default=0)


def _poly2_formal_derivative_x1(poly: dict) -> dict:
    """ln(1 + D_x1) truncated at the x1-degree of poly (exact on polynomials)."""
    out: dict = {}
    term = dict(poly)
    for i in range(1, _poly2_x1_degree(poly) + 1):
        term = _poly2_delta_x1(term)
        c = Fraction((-1) ** (i - 1), i)
        for k, v in term.items():
            out[k] = out.get(k, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v != 0}


def _poly2_partial_shift_x1(poly: dict, h: Fraction) -> dict:
    """Truncated exponential series exp(h * d_x1) applied to poly."""
    h = _rat(h)
    out = dict(poly)
    term = dict(poly)
    for i in range(1, _poly2_x1_degree(poly) + 1):
        term = _poly2_formal_derivative_x1(term)
        c = h ** i / factorial(i)
        for k, v in term.items():
            out[k] = out.get(k, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v != 0}


def verify_shift_decomposition(poly_degree: int, h: ScaleRatio) -> bool:
    """Check T_n u = (partial n-shift)(truncated partial n1-shift) u exactly.

    The check runs over every monomial n^a x1^b with a+b <= poly_degree
    (linearity then covers all polynomials of that degree), evaluated at the
    physical points (n, x1 = n*h) for n = 0..SHIFT_CHECK_POINTS-1.  Returns
    True iff both sides agree exactly everywhere.
    """
    if poly_degree < 0:
        raise DomainError("poly_degree must be non-negative")
    hv = h.value
    for a, b in itertools.product(range(poly_degree + 1), repeat=2):
        if a + b > poly_degree:
            continue
        poly = {(a, b): Fraction(1)}
        total = _poly2_shift(_poly2_shift(poly, 0, 1), 1, hv)  # u(n+1, x1+h)
        composed = _poly2_shift(_poly2_partial_shift_x1(poly, hv), 0, 1)
        for n in range(SHIFT_CHECK_POINTS):
            x1 = hv * n
            if poly2_eval(total, n, x1) != poly2_eval(composed, n, x1):
                return False
    return True
