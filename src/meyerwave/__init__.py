"""Meyer wavelet and scaling function: closed forms, spectra, and checks.

Public surface:

- :mod:`meyerwave.spectral` -- frequency-domain definitions.
- :mod:`meyerwave.closed_form` -- time-domain closed forms, divided through
  exactly by the distance to each removable singularity beside it.
- :mod:`meyerwave.quadrature` -- inverse-Fourier quadrature oracle.
- :mod:`meyerwave.signals` -- Hilbert transform, synchronous-detection
  decomposition and reconstruction; every transform is a zero-padded
  convolution.
- :mod:`meyerwave.verify` -- the full property-check suite.
- :mod:`meyerwave.cli` -- ``meyerwave`` command-line tool.
"""

from .closed_form import phi, psi, psi1, psi2, singular_points
from .quadrature import phi_oracle, psi_oracle
from .signals import (SampledSignal, decompose_quadrature, envelope, hilbert,
                      reconstruct_quadrature, sample, scale_from_wavelet)
from .spectral import (nu, scale_spectrum, wavelet_spectrum,
                       wavelet_spectrum_magnitude)
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"
