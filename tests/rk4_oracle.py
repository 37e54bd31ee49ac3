"""Classic RK4 on the method-of-lines NLS system: the test oracle for the
package's interaction-picture integrator.

du/dtau = -i (rho1 u_xixi + rho2 |u|^2 u), spectral in xi, RK4 in tau, so the
global error is O(dtau^4).  RK4 is stable for a purely imaginary symbol while
dtau * (|rho1| k_max^2 + |rho2| max|u|^2) <= 2.82 (k_max = pi/dxi); a
quarter of the package's `stable_dtau` respects that bound.
"""

from __future__ import annotations

import math

import numpy as np

from lpkdv.nls import Envelope, NlsCoefficients, _rhs_values


def rk4_step(values: np.ndarray, dxi: float, c: NlsCoefficients, dt: float) -> np.ndarray:
    k1 = _rhs_values(values, dxi, c)
    k2 = _rhs_values(values + 0.5 * dt * k1, dxi, c)
    k3 = _rhs_values(values + 0.5 * dt * k2, dxi, c)
    k4 = _rhs_values(values + dt * k3, dxi, c)
    return values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_values(env: Envelope, c: NlsCoefficients, taus, dtau: float) -> np.ndarray:
    """The field at each of the ascending taus (>= env.tau), shape
    (len(taus), L): between consecutive taus, uniform steps of size <= dtau."""
    values, t = env.values.copy(), env.tau
    out = []
    for tau in taus:
        if tau > t:
            n = max(1, int(math.ceil((tau - t) / dtau - 1e-12)))
            for _ in range(n):
                values = rk4_step(values, env.dxi, c, (tau - t) / n)
        out.append(values.copy())
        t = tau
    return np.asarray(out)


def rk4_evolve(env: Envelope, c: NlsCoefficients, tau_final: float, dtau: float) -> Envelope:
    """Advance to tau_final with uniform RK4 steps of size <= dtau."""
    return Envelope(env.xi0, env.dxi, rk4_values(env, c, [tau_final], dtau)[0], tau_final)
