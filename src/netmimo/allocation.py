"""Bit-allocation policies for distributed channel knowledge.

An allocation assigns B[j, k, i] feedback bits to transmitter j's estimate of
the channel from TX i to RX k. The formula-based policies clamp an exponent
to [0, inf) and then take the ceiling of exponent * log2(P); the size-matched
baselines spread the distance policy's total over a fixed support instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, isqrt

import numpy as np

from .topology import NodeLayout, grid_side, interference_levels, pairwise_distance

__all__ = [
    "CsitAllocation",
    "AllocationSize",
    "PolicySpec",
    "conventional",
    "distance_based",
    "distance_exponents",
    "uniform_matched",
    "cluster_fit",
    "clustered_matched",
    "perfect_allocation",
    "zero_allocation",
    "allocation_size",
    "build_allocation",
]

POLICY_KINDS = ("perfect", "conventional", "distance", "uniform", "cluster", "zero")


@dataclass(frozen=True)
class CsitAllocation:
    """A (K, K, K) table of feedback bits, indexed [tx j, rx k, tx i].

    bits holds the finite-P counts (integers for formula policies, reals for
    the size-matched baselines, np.inf for perfect knowledge). exponents, when
    present, holds the clamped pre-ceiling exponents whose sum is the
    asymptotic prelog; log2_p records the log2(P) the table was built at.
    """

    policy: str
    bits: np.ndarray
    exponents: np.ndarray | None = None
    log2_p: float | None = None

    def __post_init__(self) -> None:
        b = np.array(self.bits, dtype=float)
        if b.ndim != 3 or len(set(b.shape)) != 1:
            raise ValueError(f"bits must have shape (K, K, K), got {b.shape}")
        if np.any(np.isnan(b)) or np.any(b < 0):
            raise ValueError("bit counts must be >= 0")
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)
        if self.exponents is not None:
            e = np.array(self.exponents, dtype=float)
            if e.shape != b.shape:
                raise ValueError("exponents must match bits in shape")
            e.setflags(write=False)
            object.__setattr__(self, "exponents", e)


@dataclass(frozen=True)
class AllocationSize:
    """Total and per-TX bit counts plus the prelog normalizations.

    prelog is total_bits / log2(P); prelog_asymptotic drops the ceilings and
    is never larger, with a gap of at most K^3 / log2(P).
    """

    total_bits: float
    per_tx_bits: np.ndarray
    prelog: float
    prelog_asymptotic: float


def _check_p(p: float) -> float:
    if p <= 1.0:
        raise ValueError(f"nominal SNR must exceed 1 (0 dB), got {p}")
    return float(np.log2(p))


def conventional(levels: np.ndarray, p: float) -> CsitAllocation:
    """Every TX quantizes link (k, i) with ceil([Gamma_ki]+ * log2(p)) bits.

    levels is the (K, K) interference_levels matrix. This is the allocation
    that hands each transmitter the same full-network knowledge it would
    need in a centralized design.
    """
    log2_p = _check_p(p)
    k = levels.shape[0]
    expo = np.maximum(levels, 0.0)
    bits = np.ceil(expo * log2_p)
    return CsitAllocation(
        policy="conventional",
        bits=np.broadcast_to(bits, (k, k, k)).copy(),
        exponents=np.broadcast_to(expo, (k, k, k)).copy(),
        log2_p=log2_p,
    )


def distance_exponents(distances: np.ndarray, gamma: float, alpha: float = 1.0) -> np.ndarray:
    """Clamped exponents [1 + alpha*(gamma-1)*(d(j,k) + d(k,i))]+ as a (K, K, K) tensor."""
    d = np.asarray(distances, dtype=float)
    sums = d[:, :, None] + d[None, :, :]  # [j, k, i] = d(j, k) + d(k, i)
    return np.maximum(1.0 + alpha * (gamma - 1.0) * sums, 0.0)


def distance_based(
    distances: np.ndarray, gamma: float, p: float, alpha: float = 1.0
) -> CsitAllocation:
    """Distance-based allocation: bits decay with d(j,k) + d(k,i).

    TX j spends ceil([1 + alpha*(gamma-1)*(d(j,k) + d(k,i))]+ * log2(p)) bits
    on link (k, i), so knowledge is concentrated around each transmitter and
    entries vanish once the distance sum passes 1/(alpha*(1-gamma)). alpha = 1
    preserves the full rate slope; larger alpha trades slope for fewer bits,
    smaller alpha spends more bits to shrink the rate offset.
    """
    log2_p = _check_p(p)
    if not (isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    expo = distance_exponents(distances, gamma, alpha)
    return CsitAllocation(
        policy="distance",
        bits=np.ceil(expo * log2_p),
        exponents=expo,
        log2_p=log2_p,
    )


def uniform_matched(
    budget_total_bits: float, k: int, support: np.ndarray | None = None
) -> CsitAllocation:
    """Spread a total budget evenly: budget / K^3 bits on every entry.

    With a boolean support mask the budget is spread over the True entries
    only, which concentrates the same total on a restricted pattern.
    """
    if budget_total_bits < 0:
        raise ValueError(f"budget must be >= 0, got {budget_total_bits}")
    k = int(k)
    bits = np.zeros((k, k, k))
    if support is None:
        bits[:] = budget_total_bits / k**3
    else:
        mask = np.asarray(support, dtype=bool)
        if mask.shape != (k, k, k):
            raise ValueError(f"support must have shape {(k, k, k)}, got {mask.shape}")
        n = int(mask.sum())
        if n == 0:
            raise ValueError("support mask selects no entries")
        bits[mask] = budget_total_bits / n
    return CsitAllocation(policy="uniform", bits=bits)


def cluster_fit(layout: NodeLayout, cluster_size: int) -> tuple[int, int]:
    """Grid side and block side sqrt(C) of a regular clustering of the layout.

    Raises ValueError unless the layout is a square grid whose side is
    divisible by the block side of a positive perfect-square cluster_size.
    """
    side = grid_side(layout)
    if side is None:
        raise ValueError("regular clustering is defined for square grid layouts only")
    c = isqrt(int(cluster_size))
    if c * c != cluster_size or c < 1:
        raise ValueError(f"cluster_size must be a positive perfect square, got {cluster_size}")
    if side % c != 0:
        raise ValueError(f"grid side {side} is not divisible by block side {c}")
    return side, c


def clustered_matched(
    budget_total_bits: float, layout: NodeLayout, cluster_size: int
) -> CsitAllocation:
    """Spread a total budget over non-overlapping square grid clusters.

    The grid is partitioned into square blocks of cluster_size nodes; TX j
    spends budget / (K * C^2) bits on every intra-cluster link (k, i) of its
    own block and nothing elsewhere. Requires a layout that cluster_fit
    accepts.
    """
    if budget_total_bits < 0:
        raise ValueError(f"budget must be >= 0, got {budget_total_bits}")
    side, c = cluster_fit(layout, cluster_size)
    k = layout.K
    x = layout.positions[:, 0].astype(int)
    y = layout.positions[:, 1].astype(int)
    cluster_id = ((y - 1) // c) * (side // c) + (x - 1) // c
    same = cluster_id[:, None] == cluster_id[None, :]
    mask = same[:, :, None] & same[:, None, :]  # k and i both in TX j's block
    bits = np.zeros((k, k, k))
    bits[mask] = budget_total_bits / (k * cluster_size**2)
    return CsitAllocation(policy="cluster", bits=bits)


def perfect_allocation(k: int) -> CsitAllocation:
    """Infinite bits everywhere: every TX knows the channel exactly."""
    return CsitAllocation(policy="perfect", bits=np.full((int(k),) * 3, np.inf))


def zero_allocation(k: int) -> CsitAllocation:
    """No feedback at all; estimates are channel plus full-scale noise."""
    k = int(k)
    return CsitAllocation(policy="zero", bits=np.zeros((k, k, k)), exponents=np.zeros((k, k, k)))


def allocation_size(alloc: CsitAllocation, p: float) -> AllocationSize:
    """Size accounting at nominal SNR p (the p the table was built at)."""
    log2_p = _check_p(p)
    if alloc.log2_p is not None and abs(alloc.log2_p - log2_p) > 1e-9 * max(1.0, log2_p):
        raise ValueError(
            f"allocation was built at log2(P) = {alloc.log2_p}, queried at {log2_p}"
        )
    per_tx = alloc.bits.sum(axis=(1, 2))
    total = float(per_tx.sum())
    prelog = total / log2_p
    if alloc.exponents is not None:
        prelog_asym = float(alloc.exponents.sum())
    else:
        # Budget-built tables carry no ceiling, so the finite-P prelog is exact.
        prelog_asym = prelog
    return AllocationSize(
        total_bits=total, per_tx_bits=per_tx, prelog=prelog, prelog_asymptotic=prelog_asym
    )


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of an allocation policy for experiment configs.

    kind is one of perfect | conventional | distance | uniform | cluster | zero.
    alpha applies to the distance policy; cluster_size to cluster; the
    size-matched baselines (uniform, cluster) always match the finite-P total
    of the alpha = 1 distance policy. uniform_support chooses between
    spreading over all K^3 entries ("all") or only over the entries that are
    positive under the conventional policy ("conventional").
    """

    kind: str
    alpha: float = 1.0
    cluster_size: int = 4
    uniform_support: str = "all"

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}")
        if not (isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.cluster_size < 1 or isqrt(int(self.cluster_size)) ** 2 != self.cluster_size:
            raise ValueError(f"cluster_size must be a positive perfect square, got {self.cluster_size}")
        if self.uniform_support not in ("all", "conventional"):
            raise ValueError(f"uniform_support must be 'all' or 'conventional', got {self.uniform_support!r}")

    def label(self) -> str:
        if self.kind == "distance":
            return f"distance(alpha={self.alpha:g})"
        if self.kind == "cluster":
            return f"cluster(size={self.cluster_size})"
        return self.kind


def build_allocation(
    spec: PolicySpec, layout: NodeLayout, gamma: float, p: float
) -> CsitAllocation:
    """Materialize a policy on a concrete layout at nominal SNR p."""
    k = layout.K
    if spec.kind == "perfect":
        return perfect_allocation(k)
    if spec.kind == "zero":
        return zero_allocation(k)
    dist = pairwise_distance(layout)
    if spec.kind == "conventional":
        return conventional(interference_levels(dist, gamma), p)
    if spec.kind == "distance":
        return distance_based(dist, gamma, p, spec.alpha)
    # Size-matched baselines share the budget of the alpha = 1 distance policy.
    budget = float(distance_based(dist, gamma, p, 1.0).bits.sum())
    if spec.kind == "uniform":
        support = None
        if spec.uniform_support == "conventional":
            support = conventional(interference_levels(dist, gamma), p).bits > 0
        return uniform_matched(budget, k, support)
    return clustered_matched(budget, layout, spec.cluster_size)
