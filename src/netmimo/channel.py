"""Rayleigh fading under SNR-coupled pathloss, and per-transmitter quantized
channel estimates.

The pathloss of link (k, i) is tied to the nominal SNR P through the
interference level Gamma_ki: the link variance is sigma_ki^2 = P^(Gamma_ki - 1),
so cross links fade as P grows and the direct links keep unit variance.

Randomness is organized as substreams keyed by (master seed, trial index,
purpose tag), so Monte-Carlo results do not depend on worker scheduling and
trials can be re-drawn individually.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "PURPOSE_CHANNEL",
    "PURPOSE_ESTIMATE",
    "PURPOSE_LAYOUT",
    "trial_rng",
    "complex_gaussian",
    "PathlossModel",
    "ChannelRealization",
    "pathloss_matrix",
    "draw_channel",
    "apply_estimate_noise",
]

# Substream purpose tags. Channel and estimate noise use disjoint streams so
# the same channel can be re-dressed with different estimation errors.
PURPOSE_CHANNEL = 0
PURPOSE_ESTIMATE = 1
PURPOSE_LAYOUT = 2


def trial_rng(seed: int, trial: int, purpose: int) -> np.random.Generator:
    """Independent generator for one (trial, purpose) cell of a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(trial), int(purpose))))


def complex_gaussian(rng: np.random.Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, unit total variance per entry.

    The real parts are drawn first, then the imaginary parts. Given out, a
    complex array of that shape, the draw is written into it and out is
    returned, with the same values as a fresh draw.
    """
    z = np.empty(shape, dtype=complex) if out is None else out
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z /= np.sqrt(2.0)
    return z


@dataclass(frozen=True)
class PathlossModel:
    """Link variances sigma_ki^2 = P^(Gamma_ki - 1) at nominal SNR P > 1."""

    sigma_sq: np.ndarray
    _std_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = np.array(self.sigma_sq, dtype=float)
        s.setflags(write=False)
        object.__setattr__(self, "sigma_sq", s)

    @property
    def K(self) -> int:
        return int(self.sigma_sq.shape[0])

    @cached_property
    def sigma(self) -> np.ndarray:
        """Link standard deviations, computed once per model."""
        s = np.sqrt(self.sigma_sq)
        s.setflags(write=False)
        return s

    def _error_std(self, bits: np.ndarray) -> np.ndarray:
        """Estimation-error standard deviations sigma_ki * 2^(-B_ki / 2).

        Computed once per model for a read-only table that owns its data, as
        every allocation's bits are: a run applies the same few tables to
        every trial. Any other table may change between calls.
        """
        b = np.asarray(bits, dtype=float)
        if b.flags.writeable or b.base is not None:
            return self.sigma * np.exp2(-0.5 * b)
        hit = self._std_cache.get(id(b))
        if hit is None or hit[0] is not b:
            std = self.sigma * np.exp2(-0.5 * b)
            std.setflags(write=False)
            hit = self._std_cache[id(b)] = (b, std)  # holding b keeps id(b) unique
        return hit[1]


@dataclass(frozen=True)
class ChannelRealization:
    """One fading draw, or a stack of them along leading axes."""

    H: np.ndarray  # faded channel, rows are receivers


def pathloss_matrix(levels: np.ndarray, p: float) -> PathlossModel:
    """Link variances at nominal SNR p for the (K, K) interference_levels matrix.

    p must exceed 1: the allocation formulas scale with log2(p) and the
    parameterization degenerates at log p <= 0.
    """
    if p <= 1.0:
        raise ValueError(f"nominal SNR must exceed 1 (0 dB), got {p}")
    return PathlossModel(sigma_sq=float(p) ** (levels - 1.0))


def draw_channel(
    model: PathlossModel, rng: np.random.Generator | Sequence[np.random.Generator]
) -> ChannelRealization:
    """One Rayleigh draw: entries H_ki = sigma_ki * CN(0, 1), independent.

    Given a sequence of generators, one draw from each, stacked along a
    leading axis: entry t equals the draw from generator t alone.
    """
    shape = (model.K, model.K)
    if isinstance(rng, np.random.Generator):
        h_unit = complex_gaussian(rng, shape)
    else:
        h_unit = np.empty((len(rng),) + shape, dtype=complex)
        for i, r in enumerate(rng):
            complex_gaussian(r, shape, out=h_unit[i])
    return ChannelRealization(H=model.sigma * h_unit)


def apply_estimate_noise(
    chan: ChannelRealization,
    model: PathlossModel,
    bits: np.ndarray,
    noise: np.ndarray,
    *,
    _out: np.ndarray | None = None,
) -> np.ndarray:
    """Dress a channel with quantization-grade noise for the given bit counts.

    Entry (k, i) of the result is H_ki + sigma_ki * 2^(-B_ki / 2) * noise_ki,
    so the estimation error keeps the link's own scale and shrinks by half a
    bit of standard deviation per allocated bit; np.inf yields an exact copy.
    bits is (K, K), or (K, K, K) for one estimate per transmitter. A batch of
    channels (..., K, K) takes noise (..., K, K) or (..., K, K, K) with the
    same leading axes, and gives one estimate (stack) per channel.

    The result is a fresh array. The trial engine passes _out, a complex
    array of the result's shape, to have the estimates written into it.
    """
    std = model._error_std(bits)
    h = chan.H if std.ndim == 2 else chan.H[..., None, :, :]
    out = np.empty(np.broadcast_shapes(h.shape, std.shape, noise.shape), dtype=complex) if _out is None else _out
    return np.add(h, np.multiply(std, noise, out=out), out=out)
