"""Bit-allocation policies for distributed channel knowledge.

An allocation assigns B[j, k, i] feedback bits to transmitter j's estimate of
the channel from TX i to RX k. The formula-based policies clamp an exponent
to [0, inf) and then take the ceiling of exponent * log2(P); the size-matched
baselines spread the distance policy's total over a fixed support instead.
build_allocation makes every policy's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .topology import NodeLayout, _check_cluster_size, _check_gamma, _check_snr, _real, grid_side
from .topology import interference_levels, pairwise_distance

__all__ = [
    "CsitAllocation",
    "AllocationSize",
    "PolicySpec",
    "conventional",
    "distance_exponents",
    "cluster_fit",
    "allocation_size",
    "build_allocation",
]

POLICY_KINDS = ("perfect", "conventional", "distance", "uniform", "cluster", "zero")


@dataclass(frozen=True)
class CsitAllocation:
    """A (K, K, K) table of feedback bits, indexed [tx j, rx k, tx i], built
    at log2(P) = log2_p.

    bits holds the finite-P counts (integers for formula policies, reals for
    the size-matched baselines, np.inf for perfect knowledge). exponents, when
    present, holds the clamped pre-ceiling exponents whose sum is the
    asymptotic prelog.
    """

    policy: str
    bits: np.ndarray
    log2_p: float
    exponents: np.ndarray | None = None

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


def _formula(policy: str, exponents: np.ndarray, log2_p: float) -> CsitAllocation:
    """ceil(exponent * log2(P)) bits per entry of a clamped exponent tensor."""
    return CsitAllocation(policy, np.ceil(exponents * log2_p), log2_p, exponents)


def conventional(levels: np.ndarray, p: float) -> CsitAllocation:
    """Every TX quantizes link (k, i) with ceil([Gamma_ki]+ * log2(p)) bits.

    levels is the (K, K) interference_levels matrix. This is the allocation
    that hands each transmitter the same full-network knowledge it would
    need in a centralized design.
    """
    _check_snr("p", p)
    k = levels.shape[0]
    return _formula("conventional", np.broadcast_to(np.maximum(levels, 0.0), (k, k, k)), float(np.log2(p)))


def distance_exponents(distances: np.ndarray, gamma: float, alpha: float = 1.0) -> np.ndarray:
    """Clamped exponents [1 + alpha*(gamma-1)*(d(j,k) + d(k,i))]+ as a (K, K, K) tensor.

    The distance policy's bits vanish once the distance sum passes
    1/(alpha*(1-gamma)). alpha = 1 preserves the full rate slope; larger alpha
    trades slope for fewer bits, smaller alpha spends more bits to shrink the
    rate offset.
    """
    d = np.asarray(distances, dtype=float)
    # Past the float range a sum reads as the largest float, and an exponent as -inf, clamped to 0.
    with np.errstate(over="ignore"):
        sums = d[:, :, None] + d[None, :, :]  # [j, k, i] = d(j, k) + d(k, i)
        np.minimum(sums, np.finfo(float).max, out=sums)
        return np.maximum(1.0 + alpha * (gamma - 1.0) * sums, 0.0)


def _size_matched(policy: str, support: np.ndarray, dist: np.ndarray, gamma: float, log2_p: float) -> CsitAllocation:
    """The alpha = 1 distance policy's total spread evenly over a boolean support."""
    budget = np.ceil(distance_exponents(dist, gamma) * log2_p).sum()
    return CsitAllocation(policy, np.where(support, budget / int(support.sum()), 0.0), log2_p)


def cluster_fit(layout: NodeLayout, cluster_size: int) -> tuple[int, int]:
    """Grid side and block side sqrt(C) of a regular clustering of the layout.

    Raises ValueError unless the layout is a square grid whose side is
    divisible by the block side of a positive perfect-square cluster_size.
    """
    side = grid_side(layout)
    if side is None:
        raise ValueError("regular clustering is defined for square grid layouts only")
    c = _check_cluster_size(cluster_size)
    if side % c != 0:
        raise ValueError(f"grid side {side} is not divisible by block side {c}")
    return side, c


def allocation_size(alloc: CsitAllocation) -> AllocationSize:
    """Size accounting at the nominal SNR the table was built at."""
    per_tx = alloc.bits.sum(axis=(1, 2))
    total = float(per_tx.sum())
    prelog = total / alloc.log2_p
    # Size-matched tables carry no ceiling, so their finite-P prelog is exact.
    prelog_asym = prelog if alloc.exponents is None else float(alloc.exponents.sum())
    return AllocationSize(total, per_tx, prelog, prelog_asym)


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
        if not (isfinite(_real(self.alpha)) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        _check_cluster_size(self.cluster_size)
        if self.uniform_support not in ("all", "conventional"):
            raise ValueError(f"uniform_support must be 'all' or 'conventional', got {self.uniform_support!r}")

    def label(self) -> str:
        if self.kind == "distance":
            return f"distance(alpha={self.alpha:.10g})"
        if self.kind == "cluster":
            return f"cluster(size={self.cluster_size})"
        if self.kind == "uniform" and self.uniform_support != "all":
            return f"uniform(support={self.uniform_support})"
        return self.kind


def build_allocation(spec: PolicySpec, layout: NodeLayout, gamma: float, p: float) -> CsitAllocation:
    """Materialize a policy on a concrete layout at nominal SNR p.

    conventional, distance and zero are formula policies (zero's exponents
    are all 0); uniform and cluster spread the finite-P total of the
    alpha = 1 distance policy over their support; perfect is np.inf
    everywhere.
    """
    _check_gamma(gamma)
    _check_snr("p", p)
    log2_p = float(np.log2(p))
    k = layout.K
    if spec.kind == "perfect":
        return CsitAllocation("perfect", np.full((k, k, k), np.inf), log2_p)
    if spec.kind == "zero":
        return _formula("zero", np.zeros((k, k, k)), log2_p)
    dist = pairwise_distance(layout)
    if spec.kind == "conventional":
        return conventional(interference_levels(dist, gamma), p)
    if spec.kind == "distance":
        return _formula("distance", distance_exponents(dist, gamma, spec.alpha), log2_p)
    if spec.kind == "cluster":
        # The grid's partition into square blocks of cluster_size nodes.
        side, c = cluster_fit(layout, spec.cluster_size)
        x, y = layout.positions.astype(int).T - 1
        block = y // c * (side // c) + x // c
        same = block[:, None] == block[None, :]
        support = same[:, :, None] & same[:, None, :]  # k and i both in TX j's block
    elif spec.uniform_support == "conventional":
        support = conventional(interference_levels(dist, gamma), p).bits > 0
    else:
        support = np.ones((k, k, k), dtype=bool)
    return _size_matched(spec.kind, support, dist, gamma, log2_p)
