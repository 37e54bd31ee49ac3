import math

import numpy as np
import pytest

from lpkdv.nls import gaussian_envelope, nls_evolve_dense, stable_dtau
from lpkdv.quad import LpkdvParams, evolve_ivp
from lpkdv.reduction import compute_coefficients

# reference parameter point used throughout: p=1.5, q=0.5, kappa=pi/2, r=1
REF_WINDOW = (512, 192)
REF_N_LIST = [16, 32, 64]


@pytest.fixture(scope="session")
def ref_params():
    return LpkdvParams(1.5, 0.5)


@pytest.fixture(scope="session")
def ref_coeffs(ref_params):
    return compute_coefficients(ref_params, math.pi / 2, r=1.0, m2_tilde=1.0)


@pytest.fixture(scope="session")
def ref_envelope():
    return gaussian_envelope(1024, 0.0, 40.0, amplitude=1.0, width=1.25, center=12.0)


@pytest.fixture(scope="session")
def ref_evolution(ref_coeffs, ref_envelope):
    """Envelope evolved far enough for the 512x192 window at N=16, with a
    snapshot at every step as the CLI keeps it."""
    c = ref_coeffs.nls_coefficients()
    tau_needed = ref_coeffs.M2_tilde * (REF_WINDOW[1] - 1) / min(REF_N_LIST) ** 2
    return nls_evolve_dense(ref_envelope, c, tau_needed * 1.01, stable_dtau(ref_envelope, c))


def make_bump_solution(n_size=200, m_size=11, amplitude=0.5, width=10.0,
                       center=None, p=1.5, q=-0.5):
    """Exact lpKdV solution from a smooth bump over the stable zero background
    (|zeta| < |mu| so the corner recursion does not amplify)."""
    params = LpkdvParams(p, q)
    n = np.arange(n_size)
    center = n_size // 2 if center is None else center
    row0 = amplitude * np.exp(-((n - center) / width) ** 2)
    col0 = np.full(m_size, row0[0])
    return evolve_ivp(row0, col0, params), params


@pytest.fixture(scope="session")
def bump_solution():
    return make_bump_solution()
