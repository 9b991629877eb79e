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
default_rng(SeedSequence(seed, spawn_key=(trial, purpose))), trial_rng.
The trial engine, the oracle and the CLI's channel dump all draw through
_trial_streams, which derives many trials' streams of one purpose in one
pass (the SeedSequence hash and the PCG64 seeding run as integer arithmetic
over all cells at once, and each state is loaded into one reused generator),
and _unit_draws, which fills a stack with one draw per stream. A pass whose
seed, trials or purpose lie outside that derivation's range, or whose first
derived state differs from trial_rng's, takes trial_rng for every cell.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

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


def _check_counts(*counts: tuple[str, object, int]) -> None:
    """Raise ValueError unless each (name, value, low) has an integer value
    of at least low. A bool is not a count."""
    for name, value, low in counts:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


# numpy's SeedSequence hash and PCG64 seeding constants (numpy/random/
# bit_generator.pyx and pcg64.h); test_trial_streams_equal_trial_rng pins them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


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

def _seed_pool(seed: int) -> list[int]:
    """SeedSequence's four pool words after mixing in a seed below 2^128.

    The seed's words, zero-padded to the pool size, fill the pool, which is
    then mixed word against word: the step every cell of a seed shares.
    """
    h = iter(zip(_HASH_A, _HASH_A[1:]))

    def hashmix(value: int) -> int:
        xor, mul = next(h)
        value = (value ^ xor) * mul & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(seed >> 32 * i & _M32) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    return pool


def _pcg64_words(seed: int, trials: np.ndarray, purpose: int) -> np.ndarray:
    """generate_state(4, np.uint64) of SeedSequence(seed, spawn_key=(trial,
    purpose)) for each trial, one row of four little-endian uint64 words.

    seed is below 2^128 and every trial and the purpose below 2^32, so each
    cell's entropy is the zero-padded seed followed by two words. Those two
    words are mixed into the seed's shared pool for all cells at once.
    """
    key = np.empty((2, len(trials)), dtype=np.uint32)
    key[0], key[1] = trials, purpose
    key = key[:, :, None] ^ _KEY_XOR
    key *= _KEY_MUL
    key ^= key >> 16
    pool = np.array(_seed_pool(seed), dtype=np.uint32)
    for word in key:
        pool = _MIX_L * pool - _MIX_R * word
        pool ^= pool >> 16
    out = pool[:, None, :] ^ _OUT_XOR
    out *= _OUT_MUL
    out ^= out >> 16
    return out.reshape(-1, 8).astype("<u4", copy=False).view("<u8")


def _pcg64_state(words: np.ndarray) -> tuple[int, int]:
    """PCG64's (state, inc) for one cell's four generate_state words:
    inc = 2 * seq + 1, then two LCG steps around the state word."""
    s0, s1, i0, i1 = words.tolist()
    inc = (i0 << 65 | i1 << 1 | 1) & _M128
    return ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128, inc


def _trial_streams(seed: int, trials, purpose: int) -> Iterator[np.random.Generator]:
    """Yield the generator of each cell (trials[i], purpose), in order.

    Each generator draws the stream of trial_rng(seed, trial, purpose), the
    reference definition. A pass decides once how: when the seed is below
    2^128, every trial and the purpose below 2^32, and the first derived
    state equals trial_rng's, it derives the states of all its cells at
    once and reloads one generator for each (draw from a cell before taking
    the next). Otherwise every cell takes trial_rng itself. The first-state
    check guards the derivation, which copies numpy's seeding.
    """
    seed = operator.index(seed)
    trials = np.asarray(trials)
    if not len(trials):
        return
    words = None
    if 0 <= seed < 1 << 128 and 0 <= purpose <= _M32 and 0 <= trials.min() and trials.max() <= _M32:
        words = _pcg64_words(seed, trials, purpose)
        ref = trial_rng(seed, trials[0], purpose).bit_generator.state["state"]
        if _pcg64_state(words[0]) != (ref["state"], ref["inc"]):
            words = None
    if words is None:
        yield from (trial_rng(seed, t, purpose) for t in trials.tolist())
        return
    bit_gen = np.random.PCG64(0)  # any seed: each cell loads its own state
    gen = np.random.Generator(bit_gen)
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    for row in words:
        inner["state"], inner["inc"] = _pcg64_state(row)  # one row at a time: a list of all rows costs RSS
        bit_gen.state = state
        yield gen


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
    SNR p for the (K, K) interference_levels matrix, as a read-only array.

    p must exceed 1: the allocation formulas scale with log2(p) and the
    parameterization degenerates at log p <= 0.
    """
    if p <= 1.0:
        raise ValueError(f"nominal SNR must exceed 1 (0 dB), got {p}")
    sigma = np.sqrt(float(p) ** (levels - 1.0))
    sigma.setflags(write=False)
    return sigma


def draw_channel(sigma: np.ndarray, rng: np.random.Generator) -> ChannelRealization:
    """One Rayleigh draw: entries H_ki = sigma_ki * CN(0, 1), independent.

    sigma is pathloss_matrix's (K, K) array. The trial engine, the oracle
    and the channel dump draw their unit channels with _unit_draws and scale
    them by the sigma of each SNR point, built once: the draw and the product
    formed here, so each of their channels equals this function's draw from
    that trial's stream.
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
