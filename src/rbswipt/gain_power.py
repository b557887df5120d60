"""Semiconductor gain-medium power model.

Threshold behaviour of the resonant beam: the round-trip gain must balance
the round-trip loss (saturation), which fixes the threshold carrier density,
the carrier lifetime, and hence the pump threshold power.  Above threshold
the external beam power grows linearly with the slope efficiency.

`evaluate_gain` writes each equation once and names each result as its
PowerResult field.  Physical constants are fixed to the tabulated values
used throughout the model (not CODATA) so that computed curves match the
reference parameter studies exactly.  Sections and values are validated
ones (config.SCHEMA); only a guard on a formula's numeric domain is
checked here.
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
    # saturation gain: g = -ln(r1 r2 v^2) / (2 Gamma l)
    if not v > 0:
        raise ValueError(f"v={v} outside (0, 1]")
    g_sat = -math.log(r1 * r2 * v * v) / (2.0 * gain["gamma_conf"] * gain["l"])
    # threshold carrier density: N_th = N0 exp(g / g0)
    n_th = gain["n0"] * math.exp(g_sat / gain["g0"])
    # carrier lifetime: tau = 1 / (alpha + beta N + auger N^2)
    if not math.isfinite(n_th):
        raise ValueError(
            f"carrier density must be finite and >= 0, got {n_th}")
    tau = 1.0 / (gain["alpha"] + gain["beta"] * n_th
                 + gain["auger"] * n_th * n_th)
    # threshold power: P_th = A_s h c l N_th / (lambda eta_pc eta_pa tau)
    if tau <= 0:
        raise ValueError("carrier lifetime must be positive")
    p_th = (gain["a_s"] * PLANCK * LIGHT_SPEED * gain["l"] * n_th
            / (lambda_beam * pump["eta_pc"] * pump["eta_pa"] * tau))
    # slope efficiency: eta_pc eta_pa (lambda_pump / lambda_beam) ln(r2) /
    # ln(r1 r2 v^k); k = 1 is the source model's single power of v, k = 2
    # matches the saturation condition (the source model uses both)
    k = int(losses.get("slope_loss_exponent", 1))
    prod = r1 * r2 * v ** k
    if prod >= 1:
        # ln(1) = 0 would divide by zero; > 1 flips the sign
        raise ValueError(f"r1*r2*v^{k} = {prod} >= 1")
    eta_s = (pump["eta_pc"] * pump["eta_pa"]
             * (pump["lambda_pump"] / lambda_beam)
             * math.log(r2) / math.log(prod))
    # beam power: (P_in - P_th) eta_s above threshold, zero below it
    p_beam = p if (p := (p_in - p_th) * eta_s) > 0.0 else 0.0
    # transmission efficiency p_beam / p_in, zero below threshold
    eta_b = p_beam / p_in if p_in > 0 else 0.0
    return PowerResult(vd, v, g_sat, n_th, tau, p_th, eta_s, p_beam, eta_b)
