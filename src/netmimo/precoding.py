"""Zero-forcing precoders, centralized and distributed.

The distributed precoder models transmitters that cannot exchange their
channel estimates: TX j inverts its own estimate and applies only row j of
the resulting matrix, so the rows of the effective precoder come from K
inconsistent inversions of near-identical matrices.
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
    """A solve was rejected because the condition estimate crossed the threshold.

    Callers are expected to resample the trial and count the rejection.
    """

    def __init__(self, cond: float, threshold: float):
        super().__init__(f"condition estimate {cond:.3e} exceeds threshold {threshold:.3e}")
        self.cond = float(cond)
        self.threshold = float(threshold)


@dataclass(frozen=True)
class Precoder:
    """Precoding matrix T, rows indexed by transmitter, columns by user stream.

    T is read-only; max_cond is the largest condition estimate among the
    solves it was built from, all of which stayed within the threshold.
    """

    T: np.ndarray
    max_cond: float


def _checked_inverse(matrices: np.ndarray, cond_threshold: float) -> tuple[np.ndarray, float]:
    """Inverses of one matrix or a stack, and the worst condition estimate.

    Raises IllConditionedError before solving if any condition estimate is
    non-finite or above the threshold; np.linalg.cond maps singular matrices
    to inf without a warning. np.linalg.inv is an LU solve against the
    identity, so its result equals solve(matrices, eye) bit for bit.
    """
    worst = float(np.linalg.cond(matrices).max())
    if not math.isfinite(worst) or worst > cond_threshold:
        raise IllConditionedError(worst, cond_threshold)
    return np.linalg.inv(matrices), worst


def _readonly(t: np.ndarray) -> np.ndarray:
    t.setflags(write=False)
    return t


def zf_precoder(
    h_est: np.ndarray, p: float, cond_threshold: float = DEFAULT_COND_THRESHOLD
) -> Precoder:
    """Column-normalized zero-forcing from a single channel estimate.

    Column i is sqrt(p) * Hinv e_i / ||Hinv e_i||, so each user stream is
    sent with power exactly p.
    """
    h = np.asarray(h_est, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"estimate must be square, got shape {h.shape}")
    if p <= 0:
        raise ValueError(f"power must be > 0, got {p}")
    inv_cols, cond = _checked_inverse(h, cond_threshold)
    t = math.sqrt(p) * inv_cols / np.linalg.norm(inv_cols, axis=0, keepdims=True)
    return Precoder(T=_readonly(t), max_cond=cond)


def distributed_precoder(
    estimates: np.ndarray, p: float, cond_threshold: float = DEFAULT_COND_THRESHOLD
) -> Precoder:
    """Row j of the result is row j of the zero-forcing precoder that TX j
    computes from its own estimate.

    When all estimates coincide this reproduces zf_precoder on the shared
    matrix exactly; otherwise the rows are mutually inconsistent and the
    mismatch is what the deviation statistics measure. estimates[j] is TX
    j's K x K estimate.
    """
    stack = np.asarray(estimates, dtype=complex)
    if stack.ndim != 3 or not stack.shape[0] == stack.shape[1] == stack.shape[2]:
        raise ValueError(f"estimates must have shape (K, K, K), got {stack.shape}")
    if p <= 0:
        raise ValueError(f"power must be > 0, got {p}")
    inv_cols, worst = _checked_inverse(stack, cond_threshold)
    diag = np.arange(stack.shape[0])
    col_norms = np.linalg.norm(inv_cols, axis=1)  # [j, i] = ||TX j's inverse, column i||
    own_rows = inv_cols[diag, diag, :]            # [j, i] = row j of TX j's inverse
    t = math.sqrt(p) * own_rows / col_norms
    return Precoder(T=_readonly(t), max_cond=worst)


def mask_from_sets(sharing_sets: list[set[int]], k: int) -> np.ndarray:
    """0/1 matrix with mask[j, i] = 1 iff TX j keeps user i's data."""
    mask = np.zeros((k, k))
    for j, kept in enumerate(sharing_sets):
        mask[j, sorted(kept)] = 1.0
    return mask
