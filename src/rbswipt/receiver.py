"""Receiver model: beam splitter, photovoltaic output, APD noise and
spectral efficiency.

The received beam is split by ratio mu: a fraction mu feeds the photovoltaic
converter (linear fit with slope eta_p and intercept p_pth), the remainder
feeds the APD whose photocurrent competes against thermal and shot noise in
the half-log AWGN capacity expression.  Inputs are a validated section and
the gain stage's powers; only the noise sum, which may underflow to 0, is
checked.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping

# Fixed to the model's stated values rather than CODATA, for curve fidelity.
ELECTRON_CHARGE = 1.6e-19   # C
BOLTZMANN = 1.38e-23        # J/K


# field -> unit of SwiptResult, in record order
SWIPT_UNITS = {
    "p_pv_in": "W",
    "p_apd_in": "W",
    "p_e_out_raw": "W",         # linear fit before clamping
    "p_e_out": "W",             # delivered (clamped at zero)
    "eta_e": "",                # end-to-end efficiency, unclamped numerator
    "i_d": "A",
    "n_thermal_sq": "A^2",
    "n_shot_sq": "A^2",
    "n_total_sq": "A^2",
    "c_tilde": "bit/s/Hz",
}
SwiptResult = namedtuple("SwiptResult", SWIPT_UNITS)
SwiptResult.__doc__ = "Receiver-side state for one received beam power."


def split_beam(p_beam: float, mu: float) -> tuple[float, float]:
    """Split the received beam: (mu * p_beam, (1 - mu) * p_beam)."""
    p_pv = mu * p_beam
    return p_pv, p_beam - p_pv


def pv_output(p_pv: float, eta_p: float, p_pth: float) -> tuple[float, float]:
    """Photovoltaic electrical output (raw, clamped).

    raw = eta_p * p_pv + p_pth reproduces the linear experimental fit;
    the clamped value max(0, raw) is the physically delivered power.
    """
    raw = eta_p * p_pv + p_pth
    return raw, raw if raw > 0.0 else 0.0


def apd_current(p_apd: float, nu: float) -> float:
    """APD photocurrent nu * p_apd (A)."""
    return nu * p_apd


def thermal_noise_sq(t: float, b_x: float, r_l: float) -> float:
    """Thermal (Johnson) noise power 4 k T B_x / R_L (A^2)."""
    return 4.0 * BOLTZMANN * t * b_x / r_l


def shot_noise_sq(i_d: float, i_bg: float, b_x: float) -> float:
    """Shot noise power 2 q (I_D + I_bg) B_x (A^2)."""
    return 2.0 * ELECTRON_CHARGE * (i_d + i_bg) * b_x


def spectral_efficiency(i_d: float, n_total_sq: float) -> float:
    """Half-log AWGN capacity bound (bit/s/Hz):
    0.5 * log2(1 + I_D^2 / (2 pi e N^2))."""
    if n_total_sq <= 0:
        raise ValueError("total noise power must be positive")
    snr = i_d * i_d / (2.0 * math.pi * math.e * n_total_sq)
    return 0.5 * math.log2(1.0 + snr)


def evaluate_receiver(p_beam: float, p_in: float,
                      receiver: Mapping[str, float]) -> SwiptResult:
    """Full receiver chain for one received beam power at input p_in > 0;
    `receiver` is the Config's receiver section, read and never written.
    The end-to-end efficiency eta_e = raw / p_in is deliberately unclamped:
    near zero PV input the linear fit goes negative and so does eta_e."""
    p_pv, p_apd = split_beam(p_beam, receiver["mu"])
    b_x = receiver["b_x"]
    raw, clamped = pv_output(p_pv, receiver["eta_p"], receiver["p_pth"])
    i_d = apd_current(p_apd, receiver["nu"])
    n_th = thermal_noise_sq(receiver["t_bg"], b_x, receiver["r_l"])
    n_sh = shot_noise_sq(i_d, receiver["i_bg"], b_x)
    n_tot = n_th + n_sh
    return SwiptResult(p_pv, p_apd, raw, clamped, raw / p_in, i_d, n_th, n_sh,
                       n_tot, spectral_efficiency(i_d, n_tot))
