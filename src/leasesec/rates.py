"""Rate formulas in bits per channel use.

All functions are pure in (beamformer, channels, params).  The *_from_gains
variants take the received power gains |w^* h|^2 directly and broadcast over
numpy arrays; the beamformer-level wrappers are the scalar entry points.
Secrecy rates are clamped at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ChannelSet, SystemParams

__all__ = [
    "RegimeLabel",
    "secondary_rate",
    "r_s_max",
    "required_rate",
    "secrecy_rate_sd",
    "jd_rate_bundle",
    "secrecy_rate_jd",
    "no_leasing_secrecy",
    "peaceful_rate",
]

class RegimeLabel(str, Enum):
    """Which branch of the joint-decoding secrecy rate applies.

    Ordered as the three cases of the piecewise rate, from the branch taken
    when the secondary rate is at least the eavesdropper's joint-decoding
    limit down to the branch taken when it is below the noise-limited one.
    """

    EVE_DECODES_SECONDARY = "EVE_DECODES_SECONDARY"
    MAC_SUM_LIMITED = "MAC_SUM_LIMITED"
    EVE_IGNORES_SECONDARY = "EVE_IGNORES_SECONDARY"
    SINGLE_USER = "SINGLE_USER"


_JD_CASES = (
    RegimeLabel.EVE_DECODES_SECONDARY,
    RegimeLabel.MAC_SUM_LIMITED,
    RegimeLabel.EVE_IGNORES_SECONDARY,
)


@dataclass(frozen=True)
class JdRateBundle:
    """The six rates governing the joint-decoding eavesdropper model.

    Satisfies the multiple-access chain identity
    r_pe_sd + r_se_jd == r_e_mac == r_pe_jd + r_se_sd.
    """

    r_pe_jd: float
    r_se_jd: float
    r_e_mac: float
    r_pe_sd: float
    r_se_sd: float
    r_pp_sd: float


def _gain(w: np.ndarray, h: np.ndarray) -> float:
    return float(np.abs(np.vdot(w, h)) ** 2)


def secondary_noise(ch: ChannelSet, p: SystemParams) -> float:
    """Noise-plus-primary-interference floor at the secondary receiver."""
    return p.sigma2_s + np.abs(ch.h_ps) ** 2 * p.p_p


def secondary_rate_from_gain(gain_ss, ch: ChannelSet, p: SystemParams):
    return np.log2(1.0 + gain_ss / secondary_noise(ch, p))


def secondary_rate(w: np.ndarray, ch: ChannelSet, p: SystemParams) -> float:
    """Achievable secondary-link rate under primary interference."""
    return float(secondary_rate_from_gain(_gain(w, ch.h_ss), ch, p))


def r_s_max(ch: ChannelSet, p: SystemParams) -> float:
    """Secondary rate at full-power MRT, the best the secondary can do."""
    return float(
        np.log2(1.0 + p.p_s_max * np.linalg.norm(ch.h_ss) ** 2 / secondary_noise(ch, p))
    )


def required_rate(ch: ChannelSet, p: SystemParams) -> float:
    """QoS threshold: alpha times the maximum secondary rate."""
    return p.alpha * r_s_max(ch, p)


def sd_secrecy_from_gains(gain_sp, gain_se, ch: ChannelSet, p: SystemParams):
    """Secrecy rate against a noise-treating (single-user-decoding) eavesdropper."""
    main = np.log2(1.0 + np.abs(ch.h_pp) ** 2 * p.p_p / (p.sigma2_p + gain_sp))
    tap = np.log2(1.0 + np.abs(ch.h_pe) ** 2 * p.p_p / (p.sigma2_e + gain_se))
    return np.maximum(main - tap, 0.0)


def secrecy_rate_sd(w: np.ndarray, ch: ChannelSet, p: SystemParams) -> float:
    return float(
        sd_secrecy_from_gains(_gain(w, ch.h_sp), _gain(w, ch.h_se), ch, p)
    )


def jd_rate_bundle(w: np.ndarray, ch: ChannelSet, p: SystemParams) -> JdRateBundle:
    """All six joint-decoding-model rates at one beamformer."""
    gain_sp = _gain(w, ch.h_sp)
    gain_se = _gain(w, ch.h_se)
    ape = np.abs(ch.h_pe) ** 2 * p.p_p
    app = np.abs(ch.h_pp) ** 2 * p.p_p
    s2e = p.sigma2_e
    return JdRateBundle(
        r_pe_jd=float(np.log2(1.0 + ape / s2e)),
        r_se_jd=float(np.log2(1.0 + gain_se / s2e)),
        r_e_mac=float(np.log2(1.0 + (ape + gain_se) / s2e)),
        r_pe_sd=float(np.log2(1.0 + ape / (s2e + gain_se))),
        r_se_sd=float(np.log2(1.0 + gain_se / (s2e + ape))),
        r_pp_sd=float(np.log2(1.0 + app / (p.sigma2_p + gain_sp))),
    )


def jd_secrecy_from_gains(gain_sp, gain_se, r_ss, ch: ChannelSet, p: SystemParams):
    """Joint-decoding secrecy rate and case index (0, 1, 2) from the gains
    at the primary receiver and the eavesdropper and the secondary rate r_ss.

    Case 0 applies when the eavesdropper's joint-decoding limit for the
    secondary signal is at or below the secondary rate, case 2 when the
    secondary rate is below its noise-limited counterpart, case 1 between.
    The three expressions agree on the boundaries.
    """
    ape = np.abs(ch.h_pe) ** 2 * p.p_p
    app = np.abs(ch.h_pp) ** 2 * p.p_p
    s2e = p.sigma2_e
    r_pp_sd = np.log2(1.0 + app / (p.sigma2_p + gain_sp))
    r_se_jd = np.log2(1.0 + gain_se / s2e)
    r_se_sd = np.log2(1.0 + gain_se / (s2e + ape))
    case0 = r_pp_sd - np.log2(1.0 + ape / (s2e + gain_se))
    case1 = r_pp_sd - np.log2(1.0 + (ape + gain_se) / s2e) + r_ss
    case2 = r_pp_sd - np.log2(1.0 + ape / s2e)
    idx = np.where(r_se_jd <= r_ss, 0, np.where(r_se_sd <= r_ss, 1, 2))
    value = np.where(idx == 0, case0, np.where(idx == 1, case1, case2))
    return np.maximum(value, 0.0), idx


def secrecy_rate_jd(
    w: np.ndarray, ch: ChannelSet, p: SystemParams
) -> tuple[float, RegimeLabel]:
    value, idx = jd_secrecy_from_gains(
        _gain(w, ch.h_sp), _gain(w, ch.h_se), secondary_rate(w, ch, p), ch, p
    )
    return float(value), _JD_CASES[int(idx)]


def no_leasing_secrecy(ch: ChannelSet, p: SystemParams) -> float:
    """Secrecy rate when the secondary stays silent (w = 0)."""
    return float(sd_secrecy_from_gains(0.0, 0.0, ch, p))


def peaceful_rate(ch: ChannelSet, p: SystemParams) -> float:
    """Primary rate with no eavesdropper and no interference (upper bound)."""
    return float(np.log2(1.0 + np.abs(ch.h_pp) ** 2 * p.p_p / p.sigma2_p))
