"""A frozen envelope: the negative control of the multiscale residual tests.

`frozen_evolution` returns an `EnvelopeEvolution` that gives the initial
profile at every slow time.  The envelope still rides the characteristic
xi = (M1 n - branch M1_tilde m)/N of the assembly but ignores the NLS flow,
so the lattice residual of the assembled ansatz carries the NLS defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lpkdv.nls import Envelope, EnvelopeEvolution, NlsCoefficients, _top_mode


@dataclass(frozen=True)
class FrozenEvolution(EnvelopeEvolution):
    """snapshots[0] holds the grid values, whose spectrum is returned at
    every tau of the (effectively unbounded) stored range."""

    def spectra_at(self, taus) -> np.ndarray:
        n, _ = self._locate(taus)
        return np.tile(np.fft.fft(self.snapshots[0]), (len(n), 1))


def frozen_evolution(env: Envelope, c: NlsCoefficients) -> EnvelopeEvolution:
    """band is nls._top_mode of the initial spectrum, the dense run's rule
    with no nonlinear term."""
    big = 1e30
    band = _top_mode(np.fft.fft(env.values))
    return FrozenEvolution(env.xi0, env.dxi, np.array([-big, big]),
                           np.vstack([env.values, env.values]), c,
                           steps=0, dtau=0.0, band=band, envelope_L=env.L,
                           grids=(env.L,))
