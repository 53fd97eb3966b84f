"""Analytic-signal envelope of the wavelet and the measured tail decay.

Also demonstrates why two published claims fail quantitatively: the
remodulation identity would force phi(1/2) = -psi(1/2), and the linear
transition ramp leaves derivative kinks in the spectra, giving t^-2
(not t^-3) tails.
"""

import numpy as np

from meyerwave import envelope, phi, psi, sample, scale_from_wavelet
from meyerwave.signals import interior_slice
from meyerwave.verify import SIGNAL_DT, SIGNAL_POINTS, SIGNAL_SPAN, decay_slope

sig = sample(psi, -SIGNAL_SPAN, SIGNAL_DT, SIGNAL_POINTS)
inner = interior_slice(SIGNAL_POINTS)
t = sig.times

env = envelope(sig).samples
print(f"wavelet envelope peak: {np.max(env):.6f} at t = "
      f"{t[np.argmax(env)]:.4f}   (4/pi = {4 / np.pi:.6f})")
print(f"scale function peak:   {phi(0.0):.6f} at t = 0"
      f"      (2/3 + 4/(3pi))")

recovered = scale_from_wavelet(sig)
err = np.max(np.abs(recovered.samples - phi(t))[inner])
print()
print("remodulation psi*cos(2pi t) + H[psi]*sin(2pi t) vs phi:")
print(f"  interior max deviation = {err:.3e}  (the identity is only "
      f"approximate;")
print(f"  at t = 1/2 it would require phi(1/2) = -psi(1/2) = "
      f"{-psi(0.5):.4f}, but phi(1/2) = {phi(0.5):.4f})")

slope = decay_slope()
print()
print(f"log-log slope of the tail envelope over t in [5, 50]: "
      f"{slope:.3f}")
print("  (t^-2, as set by the derivative kinks of the linear-ramp "
      "spectra)")
