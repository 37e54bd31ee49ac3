import json
import math

import numpy as np
import pytest

from lpkdv.errors import DomainError, NumericalError, SingularCornerError
from lpkdv.fieldio import (
    load_field_binary,
    load_field_csv,
    save_field_binary,
    save_field_csv,
)
from lpkdv import quad
from lpkdv.quad import (
    LatticeField,
    LpkdvParams,
    dispersion,
    evolve_ivp,
    linear_residual_max,
    max_residual,
    residual_field,
)
from lpkdv.reduction import compute_coefficients
from tests.conftest import make_bump_solution
from tests.dispersion_oracle import group_velocity
from tests.lattice_oracle import evolve_ivp_diagonals, save_field_csv_rows

P15 = LpkdvParams(1.5, 0.5)  # mu = 1, zeta = 2
# (p, q, kappa) over both branches (pq of either sign) and kappa from 0.3 to 3
CARRIER_POINTS = [(1.5, 0.5, math.pi / 2), (2.0, 1.0, 1.0), (1.5, 0.5, 1.2), (3.0, 0.7, 0.6),
                  (1.5, -0.5, 2.0), (0.8, 2.5, 3.0), (-1.0, -2.0, 0.3)]

BINARY_HEADER = {"magic": "lpkdv-field-v1", "n_size": 2, "m_size": 3, "kind": "real"}


def binary_file(body_values=6, **change):
    """A binary field file: BINARY_HEADER with `change` applied (a value of
    None drops the key), then body_values complex zeros."""
    header = {k: v for k, v in {**BINARY_HEADER, **change}.items() if v is not None}
    return json.dumps(header).encode() + b"\n" + bytes(16 * body_values)


class TestParams:
    def test_derived(self):
        assert P15.mu == 1.0 and P15.zeta == 2.0

    def test_rejects_p_equal_q(self):
        with pytest.raises(DomainError):
            LpkdvParams(1.0, 1.0)

    def test_rejects_p_equal_minus_q(self):
        with pytest.raises(DomainError):
            LpkdvParams(1.0, -1.0)


class TestQuadResidual:
    """The residual of the plaquette with lower-left corner (n, m) is entry
    [n, m] of residual_field."""

    def test_constant_field(self):
        f = LatticeField(np.full((4, 4), 2.7))
        assert residual_field(f, P15)[1, 2] == 0.0

    def test_exact_corner(self):
        # mu*4 + zeta*2 - 2*4 = 4 + 4 - 8 = 0
        f = LatticeField(np.array([[0.0, 1.0], [3.0, 4.0]]))
        assert residual_field(f, P15)[0, 0] == 0.0

    def test_nonzero_residual(self):
        # u11 = 0: mu*0 + zeta*2 - 2*0 = 4
        f = LatticeField(np.array([[0.0, 1.0], [3.0, 0.0]]))
        assert residual_field(f, P15)[0, 0] == 4.0

    def test_out_of_window(self):
        # a 3x3 window holds the plaquettes (0..1) x (0..1) only
        assert residual_field(LatticeField(np.zeros((3, 3))), P15).shape == (2, 2)


def corner_solve(params, u00, u10, u01):
    """u11 of the quad equation from the other three corners, through
    evolve_ivp on the 2x2 window."""
    return evolve_ivp([u00, u10], [u00, u01], params).values[1, 1]


class TestCornerSolve:
    def test_example(self):
        assert np.isclose(corner_solve(P15, 0.0, 3.0, 1.0), 4.0)

    def test_zero_forcing(self):
        assert corner_solve(P15, 5.0, 2.0, 2.0) == 5.0

    def test_translation_covariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u00, u10, u01 = rng.standard_normal(3) * 0.3
            c = complex(*rng.standard_normal(2))
            base = corner_solve(P15, u00, u10, u01)
            shifted = corner_solve(P15, u00 + c, u10 + c, u01 + c)
            assert abs(shifted - (base + c)) < 1e-12

    def test_translated_example(self):
        assert np.isclose(corner_solve(P15, 5.0, 3.0 + 5.0, 1.0 + 5.0), 9.0)

    def test_singular_corner(self):
        with pytest.raises(SingularCornerError):
            corner_solve(P15, 0.0, P15.mu, 0.0)

    def test_d4_round_trip(self):
        # solve for u00 given the rest, then re-solve for u11
        u00, u10, u01 = 0.2, 0.7, -0.4
        u11 = corner_solve(P15, u00, u10, u01)
        w = u10 - u01
        u00_back = u11 - P15.zeta * w / (w - P15.mu)
        assert abs(corner_solve(P15, u00_back, u10, u01) - u11) < 1e-12 * (1 + abs(u11))


class TestEvolveIvp:
    def test_zero_boundary(self):
        f = evolve_ivp(np.zeros(8), np.zeros(6), P15)
        assert np.all(f.values == 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        row = 0.05 * rng.standard_normal(20)
        col = 0.05 * rng.standard_normal(20)
        col[0] = row[0]
        f1 = evolve_ivp(row, col, P15)
        f2 = evolve_ivp(row.copy(), col.copy(), P15)
        assert np.array_equal(f1.values, f2.values)

    def test_round_trip_from_own_boundary(self, bump_solution):
        field, params = bump_solution
        again = evolve_ivp(field.values[:, 0], field.values[0, :], params)
        assert np.array_equal(field.values, again.values)

    def test_solution_residual_bound(self, bump_solution):
        field, params = bump_solution
        bound = 1e-10 * (1.0 + float(np.max(np.abs(field.values))))
        assert max_residual(field, params) <= bound

    def test_corner_mismatch_rejected(self):
        with pytest.raises(DomainError, match="corner"):
            evolve_ivp(np.array([1.0, 0.0]), np.array([0.0, 0.0]), P15)

    def test_sweep_fills_its_window_in_place(self):
        """The 4000 x 24 bump window peaks under 1.5 windows in tracemalloc
        (1.42 measured: the window, which the field holds without a copy,
        and the checks' blocks beside it), where a copy of the window into
        the field reads 2.09, checks over the whole window 3 and a store of
        the sweep's own beside the window 4."""
        import tracemalloc

        tracemalloc.start()
        try:
            field, _ = make_bump_solution(n_size=4000, m_size=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * field.values.nbytes

    def test_small_plane_wave_residual_quadratic(self):
        # the sampled linear wave solves the equation up to its quadratic term
        a = 1e-8
        kappa = 1.1
        n, m = np.arange(12)[:, None], np.arange(12)[None, :]
        f = LatticeField(a * np.exp(1j * (kappa * n - dispersion(P15, kappa) * m)))
        r = residual_field(f, P15)
        assert np.max(np.abs(r)) <= 10 * a ** 2


PSTABLE = LpkdvParams(1.5, -0.5)  # |zeta| < |mu|: the recursion does not amplify


def _boundary(shape, kind, seed=0):
    """A bump on the first row times a carrier (complex kind), and a small
    random first column sharing its corner."""
    nn, mm = shape
    rng = np.random.default_rng(seed)
    n = np.arange(nn)
    row0 = 0.5 * np.exp(-((n - nn // 3) / max(2.0, nn / 8)) ** 2)
    if kind == "complex":
        row0 = row0 * np.exp(0.3j * n)
    col0 = row0[0] + 0.01 * rng.standard_normal(mm)
    col0[0] = row0[0]
    return row0, col0


def _raised(fn, *args):
    try:
        fn(*args)
    except (SingularCornerError, NumericalError) as exc:
        return (type(exc), str(exc), getattr(exc, "location", None),
                getattr(exc, "diagnostics", None))
    return None


class TestEvolveIvpOracle:
    """The sweep against the per-diagonal oracle in tests/lattice_oracle.py."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 17), (40, 5), (40, 2), (2, 40), (4000, 24)])
    def test_bit_identical(self, shape, kind):
        row0, col0 = _boundary(shape, kind)
        got = evolve_ivp(row0, col0, PSTABLE)
        ref = evolve_ivp_diagonals(row0, col0, PSTABLE)
        assert got.kind == ref.kind == kind
        assert np.all(np.isfinite(ref.values))
        assert got.values.tobytes() == ref.values.tobytes()

    def test_first_of_two_singular_corners(self):
        # u[1,1] = 0, so on the diagonal n + m = 3 both w(1,2) = 0 - col0[2]
        # and w(2,1) = row0[2] - 0 equal mu = 1
        row0 = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        col0 = np.array([0.0, 0.0, -1.0, 0.0])
        for fn in (evolve_ivp, evolve_ivp_diagonals):
            with pytest.raises(SingularCornerError) as info:
                fn(row0, col0, P15)
            assert info.value.location == (1, 2)
            assert str(info.value) == "singular corner at (n,m) = (1,2)"

    def test_non_finite_from_inf_in_row0(self):
        row0, col0 = _boundary((12, 6), "real")
        row0[5] = np.inf
        for fn in (evolve_ivp, evolve_ivp_diagonals):
            with np.errstate(invalid="ignore"), pytest.raises(NumericalError) as info:
                fn(row0, col0, PSTABLE)
            assert info.value.diagnostics == {"location": (5, 1)}
            assert str(info.value) == "non-finite value at (n,m) = (5,1)"

    def test_checks_raise_without_floating_point_warnings(self):
        row0, col0 = _boundary((12, 6), "real")
        row0[5] = np.inf
        with pytest.raises(NumericalError):
            evolve_ivp(row0, col0, PSTABLE)  # RuntimeWarnings are errors here
        with pytest.raises(SingularCornerError):
            evolve_ivp([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], P15)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_first_error_matches_oracle(self, kind):
        """Boundaries seeded with singular corners (a first-row or first-column
        entry set so that w = mu at its neighbour) and non-finite values: the
        same exception, message and location as the oracle's, or none."""
        _first_errors_match_oracle(kind)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_first_error_matches_oracle_over_blocks(self, kind, monkeypatch):
        """The same with the check's blocks cut to 3 points, so that a
        window's faults fall in different blocks."""
        monkeypatch.setattr(quad, "_CHECK_BLOCK_POINTS", 3)
        _first_errors_match_oracle(kind)

    @pytest.mark.parametrize("fault", ["non-finite", "singular", "tie"])
    def test_later_block_fault_first_in_sweep_order(self, fault):
        """Two faults in different blocks of the check, 4 rows to a block:
        (1, m_size - 10) in the first block and (6, 1) in the second; the
        second comes first in sweep order (n + m = 7) and is the one raised,
        as the oracle raises it.  In the tie, one anti-diagonal (n + m = 6)
        holds a non-finite value at (1, 5) in the first block and a singular
        corner at (5, 1) in the second: the singular corner is raised."""
        mm = quad._CHECK_BLOCK_POINTS // 4
        row0, col0 = _boundary((12, mm), "real")
        u = evolve_ivp_diagonals(row0, col0, PSTABLE).values
        if fault == "non-finite":
            row0[6], col0[mm - 10] = np.inf, np.nan
        elif fault == "singular":  # w = mu at (6, 1) and at (1, mm - 10)
            row0[6], col0[mm - 10] = u[5, 1] + PSTABLE.mu, u[1, mm - 11] - PSTABLE.mu
        else:
            col0[5], row0[5] = np.inf, u[4, 1] + PSTABLE.mu
        with np.errstate(all="ignore"):
            got = _raised(evolve_ivp, row0, col0, PSTABLE)
            want = _raised(evolve_ivp_diagonals, row0, col0, PSTABLE)
        assert got == want
        if fault == "tie":
            assert want[0] is SingularCornerError and "(n,m) = (5,1)" in want[1]
        else:
            assert "(n,m) = (6,1)" in want[1]


def _first_errors_match_oracle(kind):
    """Seeded boundaries over 80 small windows: evolve_ivp raises what the oracle does."""
    rng = np.random.default_rng(17)
    outcomes = []
    for trial in range(80):
        shape = (int(rng.integers(3, 12)), int(rng.integers(3, 12)))
        row0, col0 = _boundary(shape, kind, seed=trial)
        u = evolve_ivp_diagonals(row0, col0, PSTABLE).values
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(2, min(shape)))
            choice = rng.integers(4)
            if choice == 0:
                col0[k] = u[1, k - 1] - PSTABLE.mu     # singular at (1, k)
            elif choice == 1:
                row0[k] = u[k - 1, 1] + PSTABLE.mu     # singular at (k, 1)
            else:
                (row0, col0)[choice - 2][k] = (np.inf, -np.inf, np.nan)[trial % 3]
        with np.errstate(all="ignore"):
            got = _raised(evolve_ivp, row0, col0, PSTABLE)
            ref = _raised(evolve_ivp_diagonals, row0, col0, PSTABLE)
        assert got == ref
        outcomes.append(None if ref is None else ref[0])
    assert {SingularCornerError, NumericalError} <= set(outcomes)


class TestDispersion:
    def test_small_kappa(self):
        assert abs(dispersion(P15, 1e-8)) < 1e-6

    def test_reference_value(self):
        # (zeta+mu)/(zeta-mu) = p/q = 2 at p=2, q=1
        got = dispersion(LpkdvParams(2.0, 1.0), math.pi / 2)
        assert np.isclose(got, -2.0 * math.atan(2.0), atol=1e-14)

    def test_kappa_near_pi_rejected(self):
        with pytest.raises(DomainError):
            dispersion(P15, math.pi - 1e-12)
        with pytest.raises(DomainError):
            dispersion(P15, 3.5)

    def test_linear_part_vanishes(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = rng.uniform(0.5, 3.0)
            q = rng.uniform(0.05, p - 0.2)
            kappa = rng.uniform(0.1, math.pi - 0.2)
            assert linear_residual_max(LpkdvParams(p, q), kappa) <= 1e-12

    @pytest.mark.parametrize("detune", [0.0, 1e-3, 0.5])
    def test_linear_residual_is_the_sampled_one(self, detune, monkeypatch):
        # the closed form equals the linear part sampled on a plane wave, also
        # off the dispersion relation, where neither vanishes
        kappa = 1.1
        omega = dispersion(P15, kappa) + detune
        monkeypatch.setattr(quad, "dispersion", lambda params, k: omega)
        n, m = np.arange(8)[:, None], np.arange(8)[None, :]
        u = np.exp(1j * (kappa * n - omega * m))
        lin = P15.mu * (u[1:, 1:] - u[:-1, :-1]) + P15.zeta * (u[1:, :-1] - u[:-1, 1:])
        assert np.allclose(np.abs(lin), linear_residual_max(P15, kappa), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("p, q, kappa", CARRIER_POINTS)
    def test_coefficients_pin_omega(self, p, q, kappa):
        """The reduction record's omega is the dispersion relation's, bit for bit."""
        params = LpkdvParams(p, q)
        assert compute_coefficients(params, kappa).omega == dispersion(params, kappa)

    @pytest.mark.parametrize("p, q, kappa", CARRIER_POINTS)
    def test_derivatives_match_differences_of_omega(self, p, q, kappa):
        """The exact omega' and omega'' agree with differences of omega itself:
        omega' with the oracle's refined differences, omega'' with a central
        difference (step 1e-3) of that oracle."""
        params = LpkdvParams(p, q)
        d1, d2 = quad.dispersion_derivatives(params, kappa)
        assert abs(d1 - group_velocity(params, kappa)) <= 1e-7 * abs(d1)
        h = 1e-3
        diff2 = (group_velocity(params, kappa + h) - group_velocity(params, kappa - h)) / (2 * h)
        assert abs(d2 - diff2) <= 1e-5 * abs(d2)


class TestLatticeField:
    def test_real_kind_has_no_imaginary_part(self):
        f = LatticeField(np.ones((3, 3)))
        assert f.kind == "real"
        assert not np.iscomplexobj(f.values)

    def test_complex_kind(self):
        f = LatticeField(np.ones((3, 3), dtype=complex) * (1 + 2j))
        assert f.kind == "complex"

    def test_requires_2d(self):
        with pytest.raises(DomainError):
            LatticeField(np.ones(5))


class TestFieldIO:
    @pytest.fixture
    def complex_field(self):
        rng = np.random.default_rng(2)
        return LatticeField(rng.standard_normal((6, 5))
                            + 1j * rng.standard_normal((6, 5)))

    def test_csv_round_trip(self, tmp_path, complex_field):
        path = tmp_path / "f.csv"
        save_field_csv(complex_field, path)
        assert load_field_csv(path) == complex_field

    def test_csv_round_trip_real(self, tmp_path):
        f = LatticeField(np.random.default_rng(0).standard_normal((4, 7)))
        path = tmp_path / "f.csv"
        save_field_csv(f, path)
        back = load_field_csv(path)
        assert back.kind == "real" and back == f

    def test_binary_round_trip(self, tmp_path, complex_field):
        path = tmp_path / "f.bin"
        save_field_binary(complex_field, path)
        assert load_field_binary(path) == complex_field

    def test_binary_round_trip_real(self, tmp_path, bump_solution):
        field, _ = bump_solution
        path = tmp_path / "sol.bin"
        save_field_binary(field, path)
        back = load_field_binary(path)
        assert back.kind == "real" and back == field

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DomainError):
            load_field_csv(path)

    @pytest.fixture
    def special_values(self):
        """Values whose decimal form and sign a round trip must keep."""
        return np.array([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 0.1,
                         np.nan, np.inf, -np.inf, 1.0 / 3.0])

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_csv_bytes_match_oracle(self, tmp_path, special_values, kind):
        vals = np.resize(special_values, (5, 7))
        if kind == "complex":
            vals = vals.astype(np.complex128)
            vals.imag = np.resize(np.roll(special_values, 3), (5, 7))
        field = LatticeField(vals)
        save_field_csv(field, tmp_path / "new.csv")
        save_field_csv_rows(field, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("m_size", [1, 24])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_csv_lines_match_per_point_fstring(self, special_values, kind, m_size):
        """Each line built from the row's str(n), the column's ",m," and the
        parts' repr equals the per-point f-string f"{n},{m},{re!r}[,{im!r}]"."""
        from lpkdv.fieldio import _csv_lines

        block = np.resize(special_values, (5, m_size))
        if kind == "complex":
            block = block.astype(np.complex128)
            block.imag = np.resize(np.roll(special_values, 5), (5, m_size))
        want = "".join(f"{n},{m},{z.real!r}" + (f",{z.imag!r}" if kind == "complex" else "")
                       + "\r\n" for n, row in enumerate(block.tolist(), start=37)
                       for m, z in enumerate(map(complex, row)))
        assert "".join(_csv_lines(block, 37)) == want

    def test_csv_bytes_match_oracle_over_many_blocks(self, tmp_path):
        rng = np.random.default_rng(4)
        field = LatticeField(rng.standard_normal((1700, 13))
                             + 1j * rng.standard_normal((1700, 13)))
        save_field_csv(field, tmp_path / "new.csv")
        save_field_csv_rows(field, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("save, load", [(save_field_csv, load_field_csv),
                                            (save_field_binary, load_field_binary)])
    def test_round_trip_bit_exact(self, tmp_path, special_values, save, load):
        vals = np.resize(special_values, (4, 6))
        both = np.empty(vals.shape, dtype=np.complex128)
        both.real, both.imag = vals, np.roll(vals, 1, axis=1)
        # the last field is complex with imaginary parts 0 and -0.0 only
        for field in (LatticeField(vals), LatticeField(both),
                      LatticeField(np.array([[complex(1.0, np.inf), complex(-0.0, 2.0)]])),
                      LatticeField(np.array([[complex(1.0, 0.0), complex(-2.5, -0.0)]]))):
            save(field, tmp_path / "f")
            back = load(tmp_path / "f")
            assert back.kind == field.kind
            assert back.values.tobytes() == field.values.tobytes()

    def test_csv_rows_in_any_order(self, tmp_path, complex_field):
        path = tmp_path / "f.csv"
        save_field_csv(complex_field, path)
        header, *rows = path.read_bytes().split(b"\r\n")[:-1]
        order = np.random.default_rng(8).permutation(len(rows))
        path.write_bytes(b"\r\n".join([header] + [rows[k] for k in order]) + b"\r\n")
        assert load_field_csv(path).values.tobytes() == complex_field.values.tobytes()

    @pytest.mark.parametrize("text", [
        "", "n,m,re,im\r\n", "n,m,re,im\r\n\r\n", "n,m,re,im\r\n0,0,1.0,0.0\r\n0,1,x,0.0\r\n",
        "n,m,re,im\r\n0,0,1.0\r\n", "n,m,re,im\r\n0,0.5,1.0,0.0\r\n",
        "n,m,re,im\r\n0,-1,1.0,0.0\r\n",
        "n,m,re\r\n0,0,1.0\r\n0,1,1.0\r\n1,0,1.0\r\n",             # (1, 1) missing
        "n,m,re\r\n0,0,1.0\r\n0,1,1.0\r\n0,1,2.0\r\n1,1,1.0\r\n",  # (0, 1) for (1, 0)
    ])
    def test_csv_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DomainError):
            load_field_csv(path)

    def test_binary_minimal_file_loads(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(binary_file())
        back = load_field_binary(path)
        assert back.kind == "real" and back.values.tobytes() == bytes(8 * 6)

    @pytest.mark.parametrize("data", [
        b"",
        b"not json\n" + bytes(96),
        b"[1, 2]\n" + bytes(96),
        binary_file(magic="other"),
        binary_file(n_size=None),
        binary_file(m_size=None),
        binary_file(kind=None),
        binary_file(kind="weird"),
        binary_file(n_size=2.0),
        binary_file(n_size="2"),
        binary_file(n_size=True),
        binary_file(body_values=6, n_size=-2, m_size=-3),
        binary_file(body_values=5),
        binary_file(body_values=7),
    ], ids=["empty", "not-json", "not-object", "magic", "no-n_size", "no-m_size",
            "no-kind", "weird-kind", "float-size", "text-size", "bool-size",
            "negative-sizes", "short-body", "long-body"])
    def test_binary_malformed_rejected(self, tmp_path, data):
        path = tmp_path / "bad.bin"
        path.write_bytes(data)
        with pytest.raises(DomainError):
            load_field_binary(path)
