"""Zero-forcing precoders, centralized and distributed.

The distributed precoder models transmitters that cannot exchange their
channel estimates: TX j inverts its own estimate and applies only row j of
the resulting matrix, so the rows of the effective precoder come from K
inconsistent inversions of near-identical matrices.

Every solve is gated by its 2-norm condition number kappa_2. The bound
kappa_2 <= ||A||_F ||A^-1||_F, read from the inverse the precoder needs
anyway, clears well-conditioned solves without an SVD; only the rest run
np.linalg.cond, in one call per precoder call.

Both precoders take leading batch axes, one solve per element. A batched
call equals the stacked calls on its elements bit for bit. If any element is
rejected, one IllConditionedError names every rejected element and its
kappa_2, each as that element's own call would have raised it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IllConditionedError",
    "Precoder",
    "zf_precoder",
    "distributed_precoder",
    "mask_from_sets",
]

DEFAULT_COND_THRESHOLD = 1e12


class IllConditionedError(RuntimeError):
    """A solve was rejected because its 2-norm condition number crossed the threshold.

    cond is the first rejected solve's largest kappa_2, as np.linalg.cond
    computes it (inf for an exactly singular matrix). A batched call raises
    once for all its rejected elements: rejected masks them over the batch
    axes, and conds holds every element's condition estimate, the kappa_2 of
    each rejected one included. For a call without batch axes both are
    0-d. Callers are expected to resample the rejected trials and count them.
    """

    def __init__(self, cond: float, threshold: float, *, rejected=None, conds=None):
        super().__init__(f"condition estimate {cond:.3e} exceeds threshold {threshold:.3e}")
        self.cond = float(cond)
        self.threshold = float(threshold)
        self.rejected = np.asarray(True if rejected is None else rejected)
        self.conds = np.asarray(self.cond if conds is None else conds)


@dataclass(frozen=True)
class Precoder:
    """Precoding matrix T, rows indexed by transmitter, columns by user stream.

    T is read-only. max_cond is the condition estimate the acceptance of its
    solves rested on: the worst Frobenius bound kappa_F = ||A||_F ||A^-1||_F
    when that bound cleared them, otherwise the worst 2-norm kappa_2. Either
    way every solve had kappa_2 within the threshold, and kappa_2 <= kappa_F
    <= K kappa_2. A batched call gives T (..., K, K) and a read-only
    max_cond array with one value per batch element.
    """

    T: np.ndarray
    max_cond: float | np.ndarray


# Above about this condition number the computed inverse carries a relative
# error near cond * eps, so ||A^-1||_F read from it no longer bounds the true
# one and the SVD decides.
_SCREEN_CAP = 1e10
# The screen clears a solve only with this margin below the threshold, so
# rounding in either estimate cannot flip a kappa_2 decision.
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


def _checked_inverse(
    matrices: np.ndarray,
    cond_threshold: float,
    core: int,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Inverses of one solve or a batch of solves, their column norms, and
    the condition estimate of each solve.

    A solve is the square matrix or stack of matrices on the trailing `core`
    axes; leading axes are batch axes, and a call without them is a batch of
    one. A solve is rejected iff kappa_2 (np.linalg.cond) of one of its
    matrices is non-finite or above the threshold. The inverse is formed
    first: kappa_2 <= kappa_F = ||A||_F ||A^-1||_F, so a solve whose every
    kappa_F lies a safe margin below the threshold cannot be rejected and
    needs no SVD. np.linalg.cond runs once, on the solves this screen
    missed, or on all of them if the LU factorization hits an exact zero
    pivot. A rejection raises one IllConditionedError for the whole batch.

    The condition estimate is a float for a call without batch axes, else a
    read-only array over the batch axes. np.linalg.inv is an LU solve against
    the identity, matrix by matrix, so its result equals solve(matrices, eye)
    bit for bit whatever the batch. Column norms are taken over axis -2
    exactly as np.linalg.norm(inverse, axis=-2) takes them. Given scratch
    (see _sq_magnitude), the squared magnitudes are formed in it instead of
    in fresh arrays.
    """
    batch = matrices.shape[: matrices.ndim - core]
    flat = matrices.reshape((-1,) + matrices.shape[-core:])
    try:
        inv = np.linalg.inv(matrices)
    except np.linalg.LinAlgError:
        inv, conds = None, np.full(len(flat), np.nan)  # an exact zero pivot: every solve is missed
    else:
        col_sq = _sq_magnitude(inv, scratch).sum(axis=-2)
        a_sq = _sq_magnitude(matrices, scratch).sum(axis=(-2, -1))
        kappa_f_sq = a_sq * col_sq.sum(axis=-1)  # one per matrix
        # sqrt is monotone, so a solve's worst kappa_F is the root of its worst square.
        conds = np.sqrt(kappa_f_sq.reshape(len(flat), -1).max(axis=-1))
    limit = min(cond_threshold, _SCREEN_CAP) / _SCREEN_MARGIN
    if not conds.max() < limit:  # NaN included
        missed = ~(conds < limit)
        conds[missed] = np.linalg.cond(flat[missed]).reshape(int(missed.sum()), -1).max(axis=-1)
        rejected = ~np.isfinite(conds) | (conds > cond_threshold)
        if rejected.any():
            raise IllConditionedError(
                conds[rejected][0], cond_threshold, rejected=rejected.reshape(batch), conds=conds.reshape(batch)
            )
        if inv is None:
            raise np.linalg.LinAlgError("Singular matrix")
    return inv, np.sqrt(col_sq), _readonly(conds.reshape(batch)) if batch else float(conds[0])


def _readonly(t: np.ndarray) -> np.ndarray:
    t.setflags(write=False)
    return t


def zf_precoder(
    h_est: np.ndarray, p: float, cond_threshold: float = DEFAULT_COND_THRESHOLD
) -> Precoder:
    """Column-normalized zero-forcing from a single channel estimate.

    Column i is sqrt(p) * Hinv e_i / ||Hinv e_i||, so each user stream is
    sent with power exactly p. Leading axes of h_est (..., K, K) are batch
    axes: element b of the result equals zf_precoder(h_est[b]) bit for bit,
    max_cond included. If elements are rejected, the IllConditionedError
    marks them in rejected, with the kappa_2 each one's own call raises in
    conds; its cond is the first one's.
    """
    h = np.asarray(h_est, dtype=complex)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ValueError(f"estimate must be square, got shape {h.shape}")
    if p <= 0:
        raise ValueError(f"power must be > 0, got {p}")
    inv_cols, col_norms, cond = _checked_inverse(h, cond_threshold, core=2)
    t = math.sqrt(p) * inv_cols / col_norms[..., None, :]
    return Precoder(T=_readonly(t), max_cond=cond)


def distributed_precoder(
    estimates: np.ndarray,
    p: float,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
    *,
    _scratch: np.ndarray | None = None,
) -> Precoder:
    """Row j of the result is row j of the zero-forcing precoder that TX j
    computes from its own estimate.

    When all estimates coincide this reproduces zf_precoder on the shared
    matrix exactly; otherwise the rows are mutually inconsistent and the
    mismatch is what the deviation statistics measure. estimates[j] is TX
    j's K x K estimate. Leading axes of estimates (..., K, K, K) are batch
    axes, with the same contract as in zf_precoder. The trial engine passes
    _scratch, the working memory of the condition screen (see
    _sq_magnitude); the result never refers to it.
    """
    stack = np.asarray(estimates, dtype=complex)
    if stack.ndim < 3 or not stack.shape[-3] == stack.shape[-2] == stack.shape[-1]:
        raise ValueError(f"estimates must have shape (..., K, K, K), got {stack.shape}")
    if p <= 0:
        raise ValueError(f"power must be > 0, got {p}")
    inv_cols, col_norms, worst = _checked_inverse(stack, cond_threshold, core=3, scratch=_scratch)
    diag = np.arange(stack.shape[-1])
    # col_norms[..., j, i] = ||TX j's inverse, column i||; own_rows[..., j, i] = row j of TX j's inverse
    own_rows = inv_cols[..., diag, diag, :]
    t = math.sqrt(p) * own_rows / col_norms
    return Precoder(T=_readonly(t), max_cond=worst)


def mask_from_sets(sharing_sets: list[set[int]], k: int) -> np.ndarray:
    """0/1 matrix with mask[j, i] = 1 iff TX j keeps user i's data."""
    mask = np.zeros((k, k))
    for j, kept in enumerate(sharing_sets):
        mask[j, sorted(kept)] = 1.0
    return mask
