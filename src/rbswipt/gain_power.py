"""Semiconductor gain-medium power model.

Threshold behaviour of the resonant beam: the round-trip gain must balance
the round-trip loss (saturation), which fixes the threshold carrier density,
the carrier lifetime, and hence the pump threshold power.  Above threshold
the external beam power grows linearly with the slope efficiency.

Physical constants are fixed to the tabulated values used throughout the
model (not CODATA) so that computed curves match the reference parameter
studies exactly.  Sections and values are validated ones (config.SCHEMA);
only a guard on a formula's numeric domain is checked here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping

PLANCK = 6.6260693e-34   # J s
LIGHT_SPEED = 3e8        # m/s


# field -> unit of PowerResult, in record order
POWER_UNITS = {
    "vd": "",           # diffraction survival
    "v": "",            # overall loss factor vc * vd
    "g_sat": "m^-1",
    "n_th": "m^-3",
    "tau": "s",
    "p_th": "W",
    "eta_s": "",
    "p_beam": "W",
    "eta_b": "",
}
PowerResult = namedtuple("PowerResult", POWER_UNITS)
PowerResult.__doc__ = "Gain-stage state of the link at one input power."


def saturation_gain(r1: float, r2: float, v: float, l: float,
                    gamma_conf: float) -> float:
    """Gain coefficient (m^-1) at which round-trip gain balances round-trip
    loss:  g = -ln(r1 r2 v^2) / (2 Gamma l)."""
    if not v > 0:
        raise ValueError(f"v={v} outside (0, 1]")
    return -math.log(r1 * r2 * v * v) / (2.0 * gamma_conf * l)


def carrier_lifetime(n: float, gain: Mapping[str, float]) -> float:
    """Carrier lifetime (s) at density n:  1 / (alpha + beta n + auger n^2),
    the coefficients read from the Config's gain section."""
    if not math.isfinite(n):
        raise ValueError(f"carrier density must be finite and >= 0, got {n}")
    return 1.0 / (gain["alpha"] + gain["beta"] * n + gain["auger"] * n * n)


def threshold_power(gain: Mapping[str, float], pump: Mapping[str, float],
                    n_th: float, tau: float, lambda_beam: float) -> float:
    """Pump power (W) at threshold:
    P_th = A_s h c l N_th / (lambda_beam eta_pc eta_pa tau)."""
    if tau <= 0:
        raise ValueError("carrier lifetime must be positive")
    return (gain["a_s"] * PLANCK * LIGHT_SPEED * gain["l"] * n_th
            / (lambda_beam * pump["eta_pc"] * pump["eta_pa"] * tau))


def slope_efficiency(pump: Mapping[str, float], r1: float, r2: float, v: float,
                     lambda_beam: float, loss_exponent: int = 1) -> float:
    """Slope efficiency of beam power versus pump power above threshold:

        eta_s = eta_pc eta_pa (lambda_pump / lambda_beam)
                * ln(r2) / ln(r1 r2 v**loss_exponent)

    loss_exponent defaults to 1, the single power of v in the source model;
    2 makes the loss term consistent with the saturation condition (the two
    conventions coexist in the source model, so the choice is exposed).
    """
    prod = r1 * r2 * v ** loss_exponent
    if prod >= 1:
        # ln(1) = 0 would divide by zero; > 1 flips the sign
        raise ValueError(f"r1*r2*v^{loss_exponent} = {prod} >= 1")
    return (pump["eta_pc"] * pump["eta_pa"]
            * (pump["lambda_pump"] / lambda_beam)
            * math.log(r2) / math.log(prod))


def beam_power(p_in: float, p_th: float, eta_s: float) -> float:
    """External beam power (W): (p_in - p_th) * eta_s above threshold, zero
    below (no oscillation without net gain)."""
    return max(0.0, (p_in - p_th) * eta_s)


def evaluate_gain(geometry: Mapping[str, float], gain: Mapping[str, float],
                  pump: Mapping[str, float], losses: Mapping[str, float],
                  p_in: float, vd: float) -> PowerResult:
    """The gain chain for diffraction survival vd: overall loss ->
    saturation gain -> threshold carrier density -> carrier lifetime ->
    threshold power and slope efficiency -> beam power.  The mappings are
    the Config's sections of those names, read and never written."""
    r1, r2 = geometry["r1"], geometry["r2"]
    lambda_beam = geometry["lambda_beam"]
    v = losses["vc"] * vd
    g = saturation_gain(r1, r2, v, gain["l"], gain["gamma_conf"])
    n_th = gain["n0"] * math.exp(g / gain["g0"])   # threshold carrier density
    tau = carrier_lifetime(n_th, gain)
    p_th = threshold_power(gain, pump, n_th, tau, lambda_beam)
    eta_s = slope_efficiency(pump, r1, r2, v, lambda_beam,
                             int(losses.get("slope_loss_exponent", 1)))
    p_beam = beam_power(p_in, p_th, eta_s)
    # transmission efficiency p_beam / p_in, zero below threshold
    eta_b = p_beam / p_in if p_in > 0 else 0.0
    return PowerResult(vd, v, g, n_th, tau, p_th, eta_s, p_beam, eta_b)
