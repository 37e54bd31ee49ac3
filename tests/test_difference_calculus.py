"""Exact-arithmetic tests for the difference-calculus module.

Everything here must hold with exact rational equality; any drift means the
operator algebra is wrong, not that a tolerance is too tight.
"""

import json
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpkdv import difference_calculus
from lpkdv.cli import DEFAULT_CONFIG, cmd_selftest, run
from lpkdv.difference_calculus import (
    ScaleRatio,
    Sequence1D,
    cross_lattice_difference,
    formal_derivative,
    forward_difference,
    p_coefficient,
    sequence_from_function,
    stirling_tables,
    verify_shift_decomposition,
)
from lpkdv.errors import DomainError

H_SET = [ScaleRatio(1, 1), ScaleRatio(1, 2), ScaleRatio(1, 3), ScaleRatio(2, 5),
         ScaleRatio(3, 7), ScaleRatio(5, 6)]


def seq(values, n_min=0):
    return Sequence1D(tuple(Fraction(v) for v in values), n_min)


class TestForwardDifference:
    def test_linear(self):
        assert forward_difference(seq([0, 1, 2, 3]), 1).values == (1, 1, 1)

    def test_quadratic_second(self):
        assert forward_difference(seq([0, 1, 4, 9]), 2).values == (2, 2)

    def test_powers_of_two_third(self):
        # direct repeated subtraction: [1,2,4,8,16] -> [1,2,4,8] -> [1,2,4] -> [1,2]
        assert forward_difference(seq([1, 2, 4, 8, 16]), 3).values == (1, 2)

    def test_window_too_short(self):
        with pytest.raises(DomainError, match="at least 4"):
            forward_difference(seq([1, 2, 3]), 3)

    def test_rejects_floats(self):
        with pytest.raises(DomainError):
            Sequence1D((0.5, 1.5))

    @given(st.lists(st.integers(-50, 50), min_size=4, max_size=10),
           st.lists(st.integers(-50, 50), min_size=4, max_size=10),
           st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, b, j):
        k = min(len(a), len(b))
        a, b = a[:k], b[:k]
        if k <= j:
            return
        lhs = forward_difference(seq([x + y for x, y in zip(a, b)]), j)
        ra = forward_difference(seq(a), j)
        rb = forward_difference(seq(b), j)
        assert lhs.values == tuple(x + y for x, y in zip(ra.values, rb.values))


class TestFormalDerivative:
    def test_linear_reduces_to_difference(self):
        s = sequence_from_function(lambda n: Fraction(n), 0, 5)
        assert formal_derivative(s, 1).values == (1, 1, 1, 1, 1)

    def test_quadratic(self):
        # delta u = Du - D^2 u / 2 = (2n+1) - 1 = 2n
        s = sequence_from_function(lambda n: Fraction(n) ** 2, 0, 6)
        got = formal_derivative(s, 2)
        assert got.values == tuple(2 * n for n in range(5))

    def test_constant(self):
        assert formal_derivative(seq([7, 7, 7]), 0).values == (0, 0, 0)

    @pytest.mark.parametrize("deg", range(5))
    def test_matches_continuum_derivative(self, deg):
        # ln(T) acting on degree-<=4 polynomials is the exact derivative
        coeffs = [Fraction(k + 1, k + 2) for k in range(deg + 1)]

        def poly(n):
            return sum(c * Fraction(n) ** k for k, c in enumerate(coeffs))

        def dpoly(n):
            return sum(k * c * Fraction(n) ** (k - 1)
                       for k, c in enumerate(coeffs) if k > 0)

        s = sequence_from_function(poly, -2, deg + 8)
        got = formal_derivative(s, deg)
        for idx, n in enumerate(range(-2, -2 + len(got))):
            assert got.values[idx] == dpoly(n)


class TestStirling:
    def test_base_cases(self):
        t = stirling_tables(5)
        assert t.first(1, 1) == 1 and t.second(1, 1) == 1

    def test_known_entries(self):
        t = stirling_tables(5)
        assert t.second(4, 2) == 7
        assert t.first(2, 1) == -1 and t.first(2, 2) == 1

    def test_recurrences(self):
        t = stirling_tables(8)
        for i in range(2, 9):
            for k in range(1, i + 1):
                assert t.first(i, k) == (t.first(i - 1, k - 1) if k > 1 else 0) \
                    - (i - 1) * (t.first(i - 1, k) if k <= i - 1 else 0)
        for k in range(2, 9):
            for j in range(1, k + 1):
                assert t.second(k, j) == j * (t.second(k - 1, j) if j <= k - 1 else 0) \
                    + (t.second(k - 1, j - 1) if j > 1 else 0)

    def test_unsigned_row_sums_factorial(self):
        t = stirling_tables(7)
        for i in range(1, 8):
            assert sum(abs(t.first(i, k)) for k in range(1, i + 1)) == factorial(i)

    def test_second_kind_column_one(self):
        t = stirling_tables(6)
        assert all(t.second(k, 1) == 1 for k in range(1, 7))


class TestPCoefficient:
    @pytest.mark.parametrize("h", H_SET)
    def test_p11_is_h(self, h):
        t = stirling_tables(4)
        assert p_coefficient(1, 1, h, t) == h.value

    def test_p21_pins_signed_convention(self):
        # regression for the Stirling sign convention: the cross-lattice
        # identity on u(n1) = n1^2 with h = 1/2 forces P[2,1] = h^2 - h,
        # which only the signed first kind produces
        t = stirling_tables(4)
        h = ScaleRatio(1, 2)
        assert p_coefficient(2, 1, h, t) == Fraction(1, 4) - Fraction(1, 2)

    @pytest.mark.parametrize("h", H_SET)
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_diagonal(self, h, i):
        t = stirling_tables(4)
        assert p_coefficient(i, i, h, t) == h.value ** i

    def test_index_errors(self):
        t = stirling_tables(3)
        with pytest.raises(DomainError):
            p_coefficient(2, 3, ScaleRatio(1, 2), t)
        with pytest.raises(DomainError):
            p_coefficient(4, 1, ScaleRatio(1, 2), t)


def fine_difference_oracle(poly, n1, h, j):
    """Direct evaluation of the fine-lattice difference D^j at anchor n1."""
    return sum((-1) ** (j - t) * comb(j, t) * poly(n1 + t * h.value)
               for t in range(j + 1))


class TestCrossLattice:
    def test_linear(self):
        s = sequence_from_function(lambda n: Fraction(n), 0, 6)
        got = cross_lattice_difference(s, ScaleRatio(1, 2), 1, 1)
        assert got.values == (Fraction(1, 2),) * 6

    def test_quadratic(self):
        # u(n1) = n1^2, h = 1/2: D_fine u at anchor n1 equals n1 + 1/4
        s = sequence_from_function(lambda n: Fraction(n) ** 2, 0, 7)
        got = cross_lattice_difference(s, ScaleRatio(1, 2), 1, 2)
        assert got.values == tuple(Fraction(n) + Fraction(1, 4) for n in range(6))

    def test_constant(self):
        s = seq([3, 3, 3, 3, 3])
        for j in (1, 2):
            got = cross_lattice_difference(s, ScaleRatio(2, 5), j, 0)
            assert all(v == 0 for v in got.values)

    @pytest.mark.parametrize("h", H_SET)
    @pytest.mark.parametrize("deg", range(6))
    def test_exact_on_polynomials(self, h, deg):
        coeffs = [Fraction((-1) ** k, k + 1) for k in range(deg + 1)]

        def poly(x):
            return sum(c * Fraction(x) ** k for k, c in enumerate(coeffs))

        s = sequence_from_function(poly, 0, deg + 9)
        for j in (1, 2, 3):
            got = cross_lattice_difference(s, h, j, deg)
            for idx, n1 in enumerate(range(got.n_min, got.n_min + len(got))):
                assert got.values[idx] == fine_difference_oracle(poly, n1, h, j)

    @pytest.mark.parametrize("deg", range(6))
    def test_h_one_reduces_to_forward_difference(self, deg):
        s = sequence_from_function(lambda n: Fraction(n) ** deg, 0, deg + 8)
        for j in (1, 2):
            via_cross = cross_lattice_difference(s, ScaleRatio(1, 1), j, deg)
            direct = forward_difference(s, j)
            k = min(len(via_cross), len(direct))
            assert via_cross.values[:k] == direct.values[:k]

    def test_window_exhausted(self):
        with pytest.raises(DomainError, match="exceeds available window"):
            cross_lattice_difference(seq([1, 2, 3]), ScaleRatio(1, 2), 1, 3)


class TestShiftDecomposition:
    @pytest.mark.parametrize("h", H_SET)
    def test_degree_one(self, h):
        assert verify_shift_decomposition(1, h)

    def test_quadratic_third(self):
        assert verify_shift_decomposition(2, ScaleRatio(1, 3))

    def test_mixed_half(self):
        assert verify_shift_decomposition(2, ScaleRatio(1, 2))

    @pytest.mark.parametrize("h", H_SET)
    @pytest.mark.parametrize("deg", range(6))
    def test_all_degrees(self, h, deg):
        assert verify_shift_decomposition(deg, h)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            verify_shift_decomposition(-1, ScaleRatio(1, 2))


def _scaled(exact):
    """exact off by a factor 11/10: a wrong ln(1+D) when exact is formal_derivative."""
    def scaled(seq, ell):
        out = exact(seq, ell)
        return Sequence1D(tuple(Fraction(11, 10) * v for v in out.values), out.n_min)

    return scaled


@pytest.fixture
def scaled_formal_derivative(monkeypatch):
    """formal_derivative off by a factor 11/10: a wrong ln(1+D)."""
    monkeypatch.setattr(difference_calculus, "formal_derivative",
                        _scaled(difference_calculus.formal_derivative))


class TestShiftDecompositionCanFail:
    """The decomposition check is built on formal_derivative, so a wrong
    formal derivative must make it fail at every degree that uses one."""

    @pytest.mark.parametrize("h", H_SET)
    @pytest.mark.parametrize("deg", range(1, 6))
    def test_scaled_derivative_fails(self, scaled_formal_derivative, h, deg):
        assert not verify_shift_decomposition(deg, h)

    def test_selftest_reports_both(self, scaled_formal_derivative, tmp_path):
        out = tmp_path / "o"
        assert run("selftest", None, str(out), quiet=True) == 1
        failures = json.loads((out / "selftest_report.json").read_text())["failures"]
        assert any(f.startswith("formal derivative") for f in failures)
        assert any(f.startswith("shift decomposition") for f in failures)


def _selftest_failures(tmp_path) -> list:
    out = tmp_path / "o"
    assert run("selftest", None, str(out), quiet=True) == 1
    return json.loads((out / "selftest_report.json").read_text())["failures"]


class TestSelftestCanFail:
    """selftest's oracles are independent of the calculus they check, so a
    fault in one operator shows as exactly that operator's failure lines."""

    def test_cross_lattice_fault(self, monkeypatch, tmp_path):
        exact = difference_calculus.cross_lattice_difference

        def off(seq, h, j, ell):  # one value off by 1e-9 at h = 1/3, j = 2
            out = exact(seq, h, j, ell)
            if h != ScaleRatio(1, 3) or j != 2:
                return out
            values = list(out.values)
            values[3] += Fraction(1, 10 ** 9)
            return Sequence1D(tuple(values), out.n_min)

        monkeypatch.setattr(difference_calculus, "cross_lattice_difference", off)
        assert _selftest_failures(tmp_path) == [
            f"cross-lattice d^2 on degree {deg}, h=1/3" for deg in range(6)]

    def test_forward_difference_fault(self, monkeypatch, tmp_path):
        exact = difference_calculus.forward_difference

        def off(seq, j):  # the first value off by 1e-9
            out = exact(seq, j)
            return Sequence1D((out.values[0] + Fraction(1, 10 ** 9),) + out.values[1:],
                              out.n_min)

        monkeypatch.setattr(difference_calculus, "forward_difference", off)
        assert _selftest_failures(tmp_path) == [
            f"forward difference d^{j} on degree {deg}" for deg in range(6) for j in (1, 2, 3)]

    def test_no_state_across_calls(self, monkeypatch):
        """A clean call, one with a wrong formal derivative, a clean one: each
        recomputes what it checks, so only the middle one fails."""
        assert cmd_selftest(DEFAULT_CONFIG)[0]
        with monkeypatch.context() as patch:
            patch.setattr(difference_calculus, "formal_derivative",
                          _scaled(difference_calculus.formal_derivative))
            passed, report, _ = cmd_selftest(DEFAULT_CONFIG)
            assert not passed and "shift decomposition degree 1, h=1/1" in report["failures"]
        assert cmd_selftest(DEFAULT_CONFIG)[0]
