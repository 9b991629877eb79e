"""Zero-forcing precoders, centralized and distributed.

The distributed precoder models transmitters that cannot exchange their
channel estimates: TX j inverts its own estimate and applies only row j of
the resulting matrix, so the rows of the effective precoder come from K
inconsistent inversions of near-identical matrices.

Every solve is gated by its 2-norm condition number kappa_2 in
_screened_inverse, the gate the verify oracle's resolvent check shares. The
bound kappa_2 <= ||A||_F ||A^-1||_F, read from the inverse the solve needs
anyway, clears well-conditioned solves without an SVD; only the rest run
np.linalg.cond, in one call per gate call.

Both precoders take leading batch axes, one solve per element, and return
the read-only precoding matrix T; a batched call equals the stacked calls on
its elements bit for bit. Their shared core, _precode, returns a rejected
mask, which the trial engine uses; the public precoders raise
IllConditionedError if any element is rejected.
"""

from __future__ import annotations

import math

import numpy as np

from .topology import _real

__all__ = [
    "IllConditionedError",
    "zf_precoder",
    "distributed_precoder",
]

DEFAULT_COND_THRESHOLD = 1e12


class IllConditionedError(RuntimeError):
    """A solve was rejected because its 2-norm condition number crossed the threshold.

    cond is the first rejected solve's largest kappa_2, as np.linalg.cond
    computes it (inf for an exactly singular matrix). A batched call raises
    once, however many of its elements are rejected.
    """

    def __init__(self, cond: float, threshold: float):
        super().__init__(f"condition estimate {cond:.3e} exceeds threshold {threshold:.3e}")
        self.cond = float(cond)
        self.threshold = float(threshold)


# Above about this condition number the computed inverse carries a relative
# error near cond * eps, so ||A^-1||_F read from it no longer bounds the true
# one and the SVD decides.
_SCREEN_CAP = 1e10
# The engine's screen clears a solve only with this margin below the threshold,
# so rounding in either estimate cannot flip a kappa_2 decision.
_SCREEN_MARGIN = 4.0


def _sq_magnitude(a: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    """(a.conj() * a).real, bit for bit.

    scratch is None or a flat complex array of at least a.size entries,
    which takes the conjugate and the product in place. A one-element array
    keeps a fresh product: numpy multiplies it in place in another loop,
    which rounds differently.
    """
    scratch = np.empty(a.size, dtype=complex) if scratch is None else scratch
    conj = np.conjugate(a, out=scratch[: a.size].reshape(a.shape))
    return np.multiply(conj, a, out=conj if a.size > 1 else None).real


def _kappa_2(flat: np.ndarray) -> np.ndarray:
    """Each element's largest np.linalg.cond over the (n, ...) stack."""
    return np.linalg.cond(flat).reshape(len(flat), -1).max(axis=-1)


def _screened_inverse(
    stack: np.ndarray, limit: float, margin: float, scratch: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The inverses of an (n, ..., K, K) stack, their squared column norms
    (n, ..., K), and for each of its n elements a condition estimate (n,)
    and whether it is rejected (n,).

    An element is rejected iff kappa_2 (np.linalg.cond) of one of its
    matrices is non-finite or above limit; its inverses mean nothing. The
    inverse is formed first: kappa_2 <= kappa_F = ||A||_F ||A^-1||_F, so an
    element whose every kappa_F lies below min(limit, _SCREEN_CAP) / margin
    cannot be rejected and reports its worst kappa_F without an SVD; the
    margin absorbs rounding in either estimate. np.linalg.cond runs once, on
    the elements the screen missed, which report their worst kappa_2; or on
    the whole stack after an exact zero pivot in the LU factorization, and
    then only the elements it accepts are inverted again, the rest getting
    NaN inverses.

    np.linalg.inv is an LU solve against the identity, matrix by matrix, so
    each inverse equals its own call's bits whatever the stack. Column norms
    are squared over axis -2 as np.linalg.norm(inverse, axis=-2) squares
    them. Given scratch (see _sq_magnitude), the squared magnitudes are
    formed in it.
    """
    kappa_2 = None
    try:
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        kappa_2 = _kappa_2(stack)
        keep = np.isfinite(kappa_2) & (kappa_2 <= limit)
        inv = np.full(stack.shape, np.nan, dtype=complex)
        inv[keep] = np.linalg.inv(stack[keep])
    col_sq = _sq_magnitude(inv, scratch).sum(axis=-2)
    a_sq = _sq_magnitude(stack, scratch).sum(axis=(-2, -1))
    kappa_f_sq = a_sq * col_sq.sum(axis=-1)  # one per matrix
    # sqrt is monotone, so an element's worst kappa_F is the root of its worst square.
    conds = np.sqrt(kappa_f_sq.reshape(len(stack), math.prod(stack.shape[1:-2])).max(axis=-1))
    rejected = np.zeros(len(stack), dtype=bool)
    missed = ~(conds < min(limit, _SCREEN_CAP) / margin)  # NaN included
    if missed.any():
        conds[missed] = _kappa_2(stack[missed]) if kappa_2 is None else kappa_2[missed]
        rejected = ~np.isfinite(conds) | (conds > limit)
    return inv, col_sq, conds, rejected


def _precode(
    flat: np.ndarray, p: float, cond_threshold: float, scratch: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The precoding matrix T (n, K, K) of each of n solves, its condition
    estimate (n,) and whether it is rejected (n,).

    flat is a (n, K, K) stack of channels for zero-forcing, or a (n, K, K, K)
    stack of per-TX estimates for distributed zero-forcing. The inverses,
    the estimates and the mask come from _screened_inverse at margin
    _SCREEN_MARGIN; a rejected solve's T means nothing.
    """
    inv, col_sq, conds, rejected = _screened_inverse(flat, cond_threshold, _SCREEN_MARGIN, scratch)
    col_norms = np.sqrt(col_sq)
    if rejected.any():
        col_norms[rejected] = 1.0  # their T means nothing, and a NaN divisor would warn
    if flat.ndim == 3:
        col_norms = col_norms[:, None, :]
    else:
        # col_norms[:, j, i] = ||TX j's inverse, column i||; keep row j of TX j's inverse
        diag = np.arange(flat.shape[-1])
        inv = inv[:, diag, diag, :]
    return math.sqrt(p) * inv / col_norms, conds, rejected


def _precoder(a: np.ndarray, p: float, cond_threshold: float, core: int) -> np.ndarray:
    """_precode over the leading batch axes of a, whose solves span the
    trailing `core` axes: the read-only T, or IllConditionedError if any
    solve is rejected."""
    if not np.isfinite(a).all():  # LAPACK would fail to converge or warn
        raise ValueError(f"{'estimate' if core == 2 else 'estimates'} must be finite")
    p, cond_threshold = _real(p), _real(cond_threshold)
    if not 0.0 < p < math.inf:  # NaN included
        raise ValueError(f"power must be finite and > 0, got {p}")
    if math.isnan(cond_threshold):
        raise ValueError(f"cond_threshold must not be NaN, got {cond_threshold}")
    batch = a.shape[: a.ndim - core]
    t, conds, rejected = _precode(a.reshape((-1,) + a.shape[-core:]), p, cond_threshold)
    if rejected.any():
        raise IllConditionedError(conds[rejected][0], cond_threshold)
    t = t.reshape(batch + t.shape[1:])
    t.setflags(write=False)
    return t


def zf_precoder(
    h_est: np.ndarray, p: float, cond_threshold: float = DEFAULT_COND_THRESHOLD
) -> np.ndarray:
    """Column-normalized zero-forcing from a single channel estimate: the
    read-only precoding matrix T, rows indexed by transmitter, columns by
    user stream.

    Column i is sqrt(p) * Hinv e_i / ||Hinv e_i||, so each user stream is
    sent with power exactly p. Leading axes of h_est (..., K, K) are batch
    axes: element b of the result equals zf_precoder(h_est[b]) bit for bit.
    If elements are rejected, the IllConditionedError carries the first
    one's kappa_2; a threshold below 1 rejects every solve. An estimate with
    a NaN or infinite entry, a power p that is not finite and > 0, or a NaN
    threshold raises ValueError. An empty batch gives an empty T.
    """
    h = np.asarray(h_est, dtype=complex)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ValueError(f"estimate must be square, got shape {h.shape}")
    return _precoder(h, p, cond_threshold, core=2)


def distributed_precoder(
    estimates: np.ndarray, p: float, cond_threshold: float = DEFAULT_COND_THRESHOLD
) -> np.ndarray:
    """Row j of the result is row j of the zero-forcing precoder that TX j
    computes from its own estimate.

    When all estimates coincide this reproduces zf_precoder on the shared
    matrix exactly; otherwise the rows are mutually inconsistent and the
    mismatch is what the deviation statistics measure. estimates[j] is TX
    j's K x K estimate. Leading axes of estimates (..., K, K, K) are batch
    axes, with the same contract as in zf_precoder.
    """
    stack = np.asarray(estimates, dtype=complex)
    if stack.ndim < 3 or not stack.shape[-3] == stack.shape[-2] == stack.shape[-1]:
        raise ValueError(f"estimates must have shape (..., K, K, K), got {stack.shape}")
    return _precoder(stack, p, cond_threshold, core=3)

