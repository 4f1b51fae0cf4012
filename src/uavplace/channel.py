"""Air-to-ground link budget with a probabilistic line-of-sight mix.

The mean path loss blends free-space attenuation with terrain-specific excess
losses, weighted by a line-of-sight probability that follows a logistic
S-curve in the elevation angle. The S-curve constants are calibrated in
degrees, so every public interface takes angles in degrees; conversion from
the geometry happens exactly once, inside the loss functions.

Power bookkeeping mixes dBm (transmit and noise powers) with dB (losses,
SNR); only differences of these quantities ever appear, so the arithmetic is
consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError

SPEED_OF_LIGHT_M_S = 299_792_458.0


@dataclass(frozen=True)
class Environment:
    """Terrain class: S-curve shape constants plus mean excess losses.

    ``a`` (dimensionless) and ``b`` (per degree) shape the line-of-sight
    probability curve; ``eta_los_db`` and ``eta_nlos_db`` are the mean excess
    losses added on top of free space for the two link states.
    """

    a: float
    b: float
    eta_los_db: float
    eta_nlos_db: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.a, self.b, self.eta_los_db, self.eta_nlos_db))):
            raise InputError("environment constants must be finite")
        if not (self.a > 0.0 and self.b > 0.0):
            raise InputError("environment constants a and b must be positive")
        if not (0.0 <= self.eta_los_db <= self.eta_nlos_db):
            raise InputError(
                "excess losses must satisfy 0 <= eta_los_db <= eta_nlos_db"
            )


#: Built-in urban terrain preset. Other terrain classes must be supplied
#: explicitly by the caller.
URBAN = Environment(a=9.61, b=0.16, eta_los_db=1.0, eta_nlos_db=20.0)


@dataclass(frozen=True)
class RadioConfig:
    """Radio parameters of the aerial transmitter and the receiver noise floor."""

    fc_hz: float
    pt_dbm: float
    pn_dbm: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.fc_hz, self.pt_dbm, self.pn_dbm))):
            raise InputError("radio parameters must be finite")
        if not self.fc_hz > 0.0:
            raise InputError("carrier frequency fc_hz must be positive")
        if not self.pt_dbm > self.pn_dbm:
            raise InputError("transmit power pt_dbm must exceed noise power pn_dbm")


@dataclass(frozen=True)
class PathLossConstants:
    """Collapsed constants of the mean-loss closed form.

    ``delta_db``: line-of-sight excess minus non-line-of-sight excess (<= 0).
    ``offset_db``: carrier-frequency term plus the non-line-of-sight excess,
    i.e. the mean loss of a fully shadowed link at 1 m distance.

    Always derive via :func:`path_loss_constants`; the values are functions of
    an ``Environment`` and a ``RadioConfig`` and are never stored on their own.
    """

    delta_db: float
    offset_db: float

    def __post_init__(self) -> None:
        if self.delta_db > 0.0:
            raise InputError("delta_db must be <= 0 (LoS excess cannot exceed NLoS)")


@lru_cache(maxsize=64)
def path_loss_constants(env: Environment, radio: RadioConfig) -> PathLossConstants:
    """Derive the closed-form loss constants from terrain and radio settings."""
    delta = env.eta_los_db - env.eta_nlos_db
    offset = 20.0 * math.log10(4.0 * math.pi * radio.fc_hz / SPEED_OF_LIGHT_M_S) + env.eta_nlos_db
    return PathLossConstants(delta_db=delta, offset_db=offset)


@dataclass(frozen=True)
class QosClass:
    """One user class: required mean SNR, derived loss threshold, density.

    ``l_th_db`` is the largest mean path loss at which the class's SNR
    requirement is still met; build instances with :meth:`from_radio` so the
    identity ``l_th_db = pt_dbm - pn_dbm - gamma_th_db`` holds exactly.
    """

    id: int
    gamma_th_db: float
    lambda_per_km2: float
    l_th_db: float

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or self.id < 0:
            raise InputError("class id must be a nonnegative integer")
        if not 0.0 <= self.lambda_per_km2 < math.inf:
            raise InputError("class density lambda_per_km2 must be finite and >= 0")
        if not math.isfinite(self.l_th_db):
            raise InputError("class loss threshold l_th_db must be finite")

    @classmethod
    def from_radio(
        cls, id: int, gamma_th_db: float, lambda_per_km2: float, radio: RadioConfig
    ) -> "QosClass":
        return cls(id, gamma_th_db, lambda_per_km2, loss_threshold(radio, gamma_th_db))


def sort_classes(classes) -> tuple[QosClass, ...]:
    """Classes ordered by ascending loss threshold (most demanding first).

    Requires at least one class and distinct ids.
    """
    cs = tuple(classes)
    if not cs:
        raise InputError("at least one QoS class is required")
    ids = [c.id for c in cs]
    if len(set(ids)) != len(ids):
        raise InputError(f"class ids must be distinct, got {ids}")
    return tuple(sorted(cs, key=lambda c: (c.l_th_db, c.id)))


def los_curve(theta_deg, env: Environment, xp=math):
    """The line-of-sight logistic, unchecked, on floats (``xp=math``) or arrays (``xp=numpy``).

    ``1 / (1 + a exp(-b (theta - a)))`` equals ``(1 + tanh(z / 2)) / 2`` with
    ``z = b (theta - a) - ln a``. The exponential form overflows once
    ``a * b`` passes about 709; tanh saturates at -1 instead, so every
    accepted terrain gives a probability in [0, 1].
    """
    return 0.5 + 0.5 * xp.tanh(0.5 * (env.b * (theta_deg - env.a) - math.log(env.a)))


def los_probability(theta_deg: float, env: Environment) -> float:
    """Probability of a line-of-sight link at elevation angle ``theta_deg``.

    Strictly increasing in the angle; defined for 0 < theta_deg <= 90.
    """
    if not 0.0 < theta_deg <= 90.0:
        raise InputError(
            f"elevation angle must be in (0, 90] degrees, got {theta_deg}"
        )
    return los_curve(theta_deg, env)


def mean_path_loss(h_m: float, r_m: float, env: Environment, radio: RadioConfig) -> float:
    """Mean path loss in dB for altitude ``h_m`` and horizontal offset ``r_m``.

    ``r_m = 0`` is evaluated at the overhead limit (90 degree elevation)
    rather than rejected.
    """
    if not h_m > 0.0:
        raise InputError(f"altitude h_m must be positive, got {h_m}")
    if not r_m >= 0.0:
        raise InputError(f"horizontal distance r_m must be >= 0, got {r_m}")
    k = path_loss_constants(env, radio)
    theta_deg = math.degrees(math.atan2(h_m, r_m))
    p_los = los_probability(theta_deg, env)
    return k.delta_db * p_los + 10.0 * math.log10(h_m * h_m + r_m * r_m) + k.offset_db


def loss_threshold(radio: RadioConfig, gamma_th_db: float) -> float:
    """Largest mean path loss that still meets the SNR requirement ``gamma_th_db``."""
    return radio.pt_dbm - radio.pn_dbm - gamma_th_db


def mean_snr(h_m: float, r_m: float, env: Environment, radio: RadioConfig) -> float:
    """Mean SNR in dB at the given geometry.

    ``mean_snr(h, r) >= gamma`` is equivalent to
    ``mean_path_loss(h, r) <= loss_threshold(radio, gamma)``.
    """
    return radio.pt_dbm - mean_path_loss(h_m, r_m, env, radio) - radio.pn_dbm
