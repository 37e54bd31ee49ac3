"""A frozen envelope: the negative control of the multiscale residual tests.

`frozen_evolution` returns an `EnvelopeEvolution` that gives the initial
profile at every slow time.  The envelope still rides the characteristic
xi = (M1 n - branch M1_tilde m)/N of the assembly but ignores the NLS flow,
so the lattice residual of the assembled ansatz carries the NLS defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lpkdv.nls import Envelope, EnvelopeEvolution, NlsCoefficients


@dataclass(frozen=True)
class FrozenEvolution(EnvelopeEvolution):
    """snapshots[0] holds the grid values, returned at every tau of the
    (effectively unbounded) stored range."""

    def values_at(self, taus) -> np.ndarray:
        return np.tile(self.snapshots[0], (len(self._locate(taus)[0]), 1))

    def spectra_at(self, taus) -> np.ndarray:
        return np.tile(np.fft.fft(self.snapshots[0]), (len(self._locate(taus)[0]), 1))

    def bandwidth(self, taus) -> int:
        """The highest |j| at which |u_hat| exceeds eps times its largest."""
        self._locate(np.atleast_1d(taus))
        mag = np.abs(np.fft.fft(self.snapshots[0]))
        above = mag > np.finfo(float).eps * mag.max()
        j = np.arange(self.L)
        return int(np.minimum(j, self.L - j)[above].max(initial=0))


def frozen_evolution(env: Envelope, c: NlsCoefficients) -> EnvelopeEvolution:
    big = 1e30
    return FrozenEvolution(env.xi0, env.dxi, np.array([-big, big]),
                           np.vstack([env.values, env.values]), c,
                           nonlinear=None, steps=0, dtau=0.0)
