"""The paper's complex forms of the scale factors and harmonic coefficients,
evaluated verbatim: the test oracle for the real closed forms of
`lpkdv.reduction.compute_coefficients` (rho1 and rho2 are printed real, and
the package evaluates them as printed).

The scale factor S = exp(i theta) takes the phase that makes M1 and M1_tilde
real: theta = -arctan(zeta sin(kappa) / (zeta cos(kappa) - mu)), shifted by
pi if M1_tilde comes out negative.  The arctan is undefined on the curve
zeta cos(kappa) = mu, where the oracle refuses to evaluate; the closed forms
are continuous across it.
"""

from __future__ import annotations

import cmath
import math

from lpkdv.quad import LpkdvParams


def complex_forms(params: LpkdvParams, kappa: float) -> dict:
    """branch, M1, M1_tilde, tau1, tau2 and tau3 from the complex forms."""
    mu, zeta = params.mu, params.zeta
    E = cmath.exp(1j * kappa)
    denom = zeta * math.cos(kappa) - mu
    if abs(denom) < 1e-14 * (abs(zeta) + abs(mu)):
        raise ValueError("theta undefined: zeta*cos(kappa) - mu ~ 0")
    theta = -math.atan(zeta * math.sin(kappa) / denom)

    def m_values(th):  # S, M1 up to the sign -branch, M1_tilde
        S = cmath.exp(1j * th)
        return S, S * (mu - zeta * E), S * E * (zeta ** 2 - mu ** 2) / (mu * E - zeta)

    S, m1_signless, m1_tilde = m_values(theta)
    if m1_tilde.real < 0.0:
        S, m1_signless, m1_tilde = m_values(theta + math.pi)
    for z in (m1_signless, m1_tilde):
        assert abs(z.imag) <= 1e-10 * abs(z), f"not real: {z}"
    branch = -1 if m1_signless.real > 0 else 1
    return {
        "branch": branch, "M1": -branch * m1_signless.real, "M1_tilde": m1_tilde.real,
        "tau1": branch * 2.0 * (1 + E) ** 2 / (S * E * (mu + zeta) * (mu - zeta * E)),
        "tau2": (1 + E) / ((1 - E) * (mu + zeta)),
        "tau3": 2j * math.sin(kappa) / (mu + zeta),
    }
