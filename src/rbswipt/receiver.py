"""Receiver model: beam splitter, photovoltaic output, APD noise and
spectral efficiency.

The received beam is split by ratio mu: a fraction mu feeds the photovoltaic
converter (linear fit with slope eta_p and intercept p_pth), the remainder
feeds the APD whose photocurrent competes against thermal and shot noise in
the half-log AWGN capacity expression.  `evaluate_receiver` writes each
equation once and names each result as its SwiptResult field.  Inputs are a
validated section and the gain stage's powers; only the noise sum, which
may underflow to 0, is checked.
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


def evaluate_receiver(p_beam: float, p_in: float,
                      receiver: Mapping[str, float]) -> SwiptResult:
    """Full receiver chain for one received beam power at input p_in > 0;
    `receiver` is the Config's receiver section, read and never written.
    The end-to-end efficiency eta_e = p_e_out_raw / p_in is deliberately
    unclamped: near zero PV input the linear fit goes negative and so does
    eta_e."""
    b_x = receiver["b_x"]
    # beam splitter: mu p_beam to the PV converter, the rest to the APD
    p_pv_in = receiver["mu"] * p_beam
    p_apd_in = p_beam - p_pv_in
    # PV output: the linear fit eta_p P_pv + p_pth, and max(0, fit) delivered
    p_e_out_raw = receiver["eta_p"] * p_pv_in + receiver["p_pth"]
    p_e_out = p_e_out_raw if p_e_out_raw > 0.0 else 0.0
    # APD photocurrent: I_D = nu P_apd
    i_d = receiver["nu"] * p_apd_in
    # thermal (Johnson) noise: 4 k T B_x / R_L
    n_thermal_sq = 4.0 * BOLTZMANN * receiver["t_bg"] * b_x / receiver["r_l"]
    # shot noise: 2 q (I_D + I_bg) B_x
    n_shot_sq = 2.0 * ELECTRON_CHARGE * (i_d + receiver["i_bg"]) * b_x
    n_total_sq = n_thermal_sq + n_shot_sq
    # spectral efficiency: 0.5 log2(1 + I_D^2 / (2 pi e N^2))
    if n_total_sq <= 0:
        raise ValueError("total noise power must be positive")
    c_tilde = 0.5 * math.log2(
        1.0 + i_d * i_d / (2.0 * math.pi * math.e * n_total_sq))
    return SwiptResult(p_pv_in, p_apd_in, p_e_out_raw, p_e_out,
                       p_e_out_raw / p_in, i_d, n_thermal_sq, n_shot_sq,
                       n_total_sq, c_tilde)
