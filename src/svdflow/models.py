"""Concrete generators: the two-state charge-transfer population model and
synthetic test generators, and `MODELS`, the table of config models."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .odeflow import Generator


@dataclass(frozen=True)
class RateChannel:
    """Smoothly decaying rate k(t) = k_inf + (k0 - k_inf) exp(-t / tau)."""

    k0: float
    k_inf: float
    tau: float

    def __post_init__(self):
        if not np.isfinite((self.k0, self.k_inf, self.tau)).all():
            raise InvalidInputError(f"rate parameters must be finite, got {self}")
        if self.k0 < 0 or self.k_inf < 0:
            raise InvalidInputError("rates must be nonnegative")
        if self.tau <= 0:
            raise InvalidInputError("rate decay time must be positive")

    def rate(self, t):
        x = -t / self.tau
        if getattr(x, "ndim", 0) == 0:
            return self.k_inf + (self.k0 - self.k_inf) * np.exp(x)
        # exp is exactly 0 below -746, and numpy's exp is slow to say so
        e = np.zeros_like(x)
        np.exp(x, out=e, where=~(x <= -746.0))
        return self.k_inf + (self.k0 - self.k_inf) * e


def two_state_demo(k0_da: float = 8.5, kinf_da: float = 1.5e-4, tau_da: float = 0.012,
                   k0_ad: float = 4.25, kinf_ad: float = 7.5e-5,
                   tau_ad: float = 0.012) -> Generator:
    """Population rate matrix [[-k_da, k_ad], [k_da, -k_ad]] of two decaying
    rate channels, donor to acceptor (da) and back (ad), stacked on an array
    of times; columns sum to zero, so total population is conserved.

    The defaults are a strong sub-atomic-unit transient burst (mimicking the
    short-time spike of nonequilibrium golden-rule rate coefficients)
    followed by a small plateau. The burst separates the propagator's
    singular values well before the earliest seed time, keeping every
    factor-flow guard clear over a [50, 1e4] au run with 400 steps."""
    da = RateChannel(k0_da, kinf_da, tau_da)
    ad = RateChannel(k0_ad, kinf_ad, tau_ad)

    def matrix(t):
        k_da = da.rate(t)
        k_ad = ad.rate(t)
        out = np.empty(k_da.shape + (2, 2))
        out[..., 0, 0] = -k_da
        out[..., 0, 1] = k_ad
        out[..., 1, 0] = k_da
        out[..., 1, 1] = -k_ad
        return out

    return Generator(dim=2, matrix=matrix)


def analytic_two_state(k_da: float, k_ad: float, t: float) -> tuple[float, float]:
    """Closed-form populations for constant rates and P_D(0) = 1."""
    k = k_da + k_ad
    if k == 0.0:
        return 1.0, 0.0
    p_d = k_ad / k + (k_da / k) * np.exp(-k * t)
    return float(p_d), float(1.0 - p_d)


def synthetic_generator(n: int = 2, seed: int = 0, smoothness: float = 0.1,
                        omega: float = 0.7, decay: float = 2.0) -> Generator:
    """Seeded random generator A(t) = A0 + smoothness*(A1 sin(wt) + A2 e^{-t/decay}),
    stacked on an array of times."""
    for name, value in (("n", n), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise InvalidInputError(f"synthetic {name} must be an int >= 0, got {value!r}")
    if n < 2:
        raise InvalidInputError("dimension must be >= 2")
    if not np.isfinite((smoothness, omega, decay)).all():
        raise InvalidInputError(f"smoothness, omega and decay must be finite, got "
                                f"{smoothness}, {omega}, {decay}")
    if decay == 0:
        raise InvalidInputError("decay must be nonzero")
    rng = np.random.default_rng(seed)
    try:
        a0, a1, a2 = (rng.standard_normal((n, n)) for _ in range(3))
    except ValueError as exc:  # numpy cannot shape an (n, n) array
        raise InvalidInputError(f"synthetic n={n} is too large: {exc}") from exc

    def matrix(t):
        t = np.asarray(t, dtype=float)[..., None, None]
        # computed in place, with fewer temporaries on a grid of times
        out = a1 * np.sin(omega * t)
        out += a2 * np.exp(-t / decay)
        return np.add(a0, np.multiply(smoothness, out, out=out), out=out)

    return Generator(dim=n, matrix=matrix)


# Config model name -> generator function. A model's keyword parameters and
# their defaults are its config "params"; the function checks their values.
MODELS = {"two_state_demo": two_state_demo, "synthetic": synthetic_generator}
