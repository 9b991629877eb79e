"""Rayleigh fading under SNR-coupled pathloss, and per-transmitter quantized
channel estimates.

The pathloss of link (k, i) is tied to the nominal SNR P through the
interference level Gamma_ki: the link variance is sigma_ki^2 = P^(Gamma_ki - 1),
so cross links fade as P grows and the direct links keep unit variance.
pathloss_matrix returns the link standard deviations sigma_ki as a plain
read-only (K, K) array, and draw_channel and apply_estimate_noise take it.

Randomness is organized as substreams keyed by (master seed, trial index,
purpose tag), so Monte-Carlo results do not depend on worker scheduling and
trials can be re-drawn individually. Each stream is defined by
default_rng(SeedSequence(seed, spawn_key=(trial, purpose))), trial_rng,
through which the CLI's channel dump draws. The trial engine and the oracle
draw through _trial_streams, which derives many trials' streams of one
purpose in one pass (numpy mixes the seed's pool, the spawn-key hash runs as
integer arithmetic over all cells at once, and numpy's PCG64 seeds each
cell's own generator from its derived words), and _unit_draws, which fills
a stack with one draw per stream. A pass whose seed, trials or purpose lie
outside that derivation's range, or whose first generator's state differs
from trial_rng's, takes trial_rng for every cell.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .topology import _check_snr

__all__ = [
    "PURPOSE_CHANNEL",
    "PURPOSE_ESTIMATE",
    "PURPOSE_LAYOUT",
    "trial_rng",
    "complex_gaussian",
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx);
# test_trial_streams_equal_trial_rng pins them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = (1 << 32) - 1


def _hash_consts(init: int, mult: int, n: int) -> list[int]:
    """The first n + 1 values of a SeedSequence hash constant."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return out


# The entropy hash runs 16 steps on a seed's pool, then 4 per spawn-key word
# (one per pool word): the key words' XOR and multiply constants, (2, 1, 4).
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 24)
_KEY_XOR = np.array(_HASH_A[16:24], dtype=np.uint32).reshape(2, 1, 4)
_KEY_MUL = np.array(_HASH_A[17:25], dtype=np.uint32).reshape(2, 1, 4)
# generate_state hashes the pool twice over into eight uint32 words, (2, 4).
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)
_OUT_XOR = np.array(_HASH_B[:8], dtype=np.uint32).reshape(2, 4)
_OUT_MUL = np.array(_HASH_B[1:], dtype=np.uint32).reshape(2, 4)


def _pcg64_words(seed: int, trials: np.ndarray, purpose: int) -> np.ndarray:
    """generate_state(4, np.uint64) of SeedSequence(seed, spawn_key=(trial,
    purpose)) for each trial, one row of four native-order uint64 words.

    seed is below 2^128 and every trial and the purpose below 2^32, so each
    cell's entropy is the zero-padded seed followed by two words. numpy's
    SeedSequence(seed) mixes the seed's pool once; those two words are
    mixed into it for all cells at once.
    """
    key = np.empty((2, len(trials)), dtype=np.uint32)
    key[0], key[1] = trials, purpose
    key = key[:, :, None] ^ _KEY_XOR
    key *= _KEY_MUL
    key ^= key >> 16
    pool = np.random.SeedSequence(seed).pool
    for word in key:
        pool = _MIX_L * pool - _MIX_R * word
        pool ^= pool >> 16
    out = pool[:, None, :] ^ _OUT_XOR
    out *= _OUT_MUL
    out ^= out >> 16
    return out.reshape(-1, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _Words:
    """One cell's derived words, which numpy's PCG64 seeds from as it would
    from the cell's SeedSequence. _trial_streams registers the class as
    numpy's ISeedSequence, so that importing this module loads no
    numpy.random."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _trial_streams(seed: int, trials, purpose: int) -> Iterator[np.random.Generator]:
    """Yield the generator of each cell (trials[i], purpose), in order.

    Each generator draws the stream of trial_rng(seed, trial, purpose), the
    reference definition. A pass decides once how: when the seed is below
    2^128 and every trial and the purpose below 2^32, it derives the words
    of all its cells at once, and each cell gets its own generator, a PCG64
    seeded from its words. Otherwise, or when the first such generator's
    state differs from trial_rng's, every cell takes trial_rng itself. That
    check guards the copied hash and numpy's seeding from the words alike.
    """
    seed = operator.index(seed)
    trials = np.asarray(trials)
    if not len(trials):
        return
    if 0 <= seed < 1 << 128 and 0 <= purpose <= _M32 and 0 <= trials.min() and trials.max() <= _M32:
        np.random.bit_generator.ISeedSequence.register(_Words)  # a no-op once registered
        gens = (np.random.Generator(np.random.PCG64(_Words(row))) for row in _pcg64_words(seed, trials, purpose))
        first = next(gens)
        if first.bit_generator.state == trial_rng(seed, trials[0], purpose).bit_generator.state:
            yield first
            yield from gens
            return
    yield from (trial_rng(seed, t, purpose) for t in trials.tolist())


def _unit_draws(streams: Iterator[np.random.Generator], out: np.ndarray) -> np.ndarray:
    """Fill out, a complex (n, ...) array, with complex_gaussian's draws from
    the next n streams, one stream per out[i], and return it.

    sigma * out[i] is draw_channel(sigma, rng).H byte for byte for a (K, K)
    draw from rng: the same draw and the same product.
    """
    for i, rng in enumerate(islice(streams, len(out))):
        complex_gaussian(rng, out.shape[1:], out=out[i])
    return out


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


def _trial_median(x) -> np.ndarray | np.float64:
    """np.median(x, axis=0) bit for bit, for x of at least one row.

    np.median's NaN check imports numpy.ma on its first call in a process.
    This takes np.median's other steps: a partition at the middle index or
    indices and at the last, the mean of the middle one or two rows, and,
    for a column that holds a NaN, the NaN the partition put last.
    """
    n = len(x)
    kth = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    part = np.partition(x, kth + [-1], axis=0)
    mean = np.mean(part[kth[0]:n // 2 + 1], axis=0)
    return np.where(np.isnan(part[-1]), part[-1], mean)[()]


@dataclass(frozen=True)
class ChannelRealization:
    """One fading draw, or a stack of them along leading axes."""

    H: np.ndarray  # faded channel, rows are receivers


def pathloss_matrix(levels: np.ndarray, p: float) -> np.ndarray:
    """Link standard deviations sigma_ki = sqrt(P^(Gamma_ki - 1)) at nominal
    SNR p, finite and > 1, for the (K, K) interference_levels matrix, as a
    read-only array.
    """
    _check_snr("p", p)
    sigma = np.sqrt(float(p) ** (levels - 1.0))
    sigma.setflags(write=False)
    return sigma


def draw_channel(sigma: np.ndarray, rng: np.random.Generator) -> ChannelRealization:
    """One Rayleigh draw: entries H_ki = sigma_ki * CN(0, 1), independent.

    sigma is pathloss_matrix's (K, K) array. The CLI's channel dump calls it
    on trial_rng's stream. The trial engine and the oracle draw their unit
    channels with _unit_draws and scale them by the sigma of each SNR point,
    built once: the draw and the product formed here, so each of their
    channels equals this function's draw from that trial's stream.
    """
    return ChannelRealization(H=sigma * complex_gaussian(rng, sigma.shape))


def apply_estimate_noise(
    chan: ChannelRealization,
    sigma: np.ndarray,
    bits: np.ndarray,
    noise: np.ndarray,
    *,
    _out: np.ndarray | None = None,
) -> np.ndarray:
    """Dress a channel with quantization-grade noise for the given bit counts.

    Entry (k, i) of the result is H_ki + sigma_ki * 2^(-B_ki / 2) * noise_ki,
    where sigma is pathloss_matrix's (K, K) array, so the estimation error
    keeps the link's own scale and shrinks by half a bit of standard
    deviation per allocated bit; np.inf yields an exact copy. bits is (K, K),
    or (K, K, K) for one estimate per transmitter. A batch of channels
    (..., K, K) takes noise (..., K, K) or (..., K, K, K) with the same
    leading axes, and gives one estimate (stack) per channel.

    The result is a fresh array. The trial engine passes _out, a complex
    array of the result's shape, to have the estimates written into it. The
    error scales sigma * 2^(-B / 2) are computed on every call from the bits
    given: the engine builds each point's sigma and tables once, before a
    pool forks, and caches no scale.
    """
    std = sigma * np.exp2(-0.5 * np.asarray(bits, dtype=float))
    h = chan.H if std.ndim == 2 else chan.H[..., None, :, :]
    out = np.empty(np.broadcast_shapes(h.shape, std.shape, noise.shape), dtype=complex) if _out is None else _out
    return np.add(h, np.multiply(std, noise, out=out), out=out)
