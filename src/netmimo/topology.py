"""Network geometry: node layouts, pairwise distances, interference levels,
cooperation radius, and local data-sharing neighborhoods.

Node indices are 0-based everywhere in code; the plain-text layout file
format is addressed by line number (1-based). TX i and RX i are co-located
at position i, and all distances are Euclidean in the plane (no wrap-around).
The input rules all modules share live here too, one _check_* function each.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NodeLayout",
    "place_grid",
    "place_uniform_random",
    "pairwise_distance",
    "interference_levels",
    "cooperation_radius",
    "data_sharing_sets",
    "grid_side",
    "format_layout",
    "parse_layout",
]


def _check_counts(*counts: tuple[str, object, int]) -> None:
    """ValueError unless each (name, value, low) has an integer value >= low; a bool is no count."""
    for name, value, low in counts:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_snr(name: str, p, shown: str | None = None) -> None:
    """ValueError naming the field unless the nominal SNR p is finite and > 1; shown is how the field gave p."""
    if not 1.0 < p < math.inf:  # NaN included
        raise ValueError(f"{name}: nominal SNR P must be finite and > 1 (0 dB), got {shown or repr(p)}")


def _check_gamma(gamma) -> None:
    """ValueError unless gamma lies in (0, 1]."""
    if not 0.0 < gamma <= 1.0:  # NaN included
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")


def _check_slope_points(name: str, p, shown) -> np.ndarray:
    """log2 of the nominal SNRs p, a slope fit's abscissae; ValueError names the
    field unless each p passes _check_snr and the abscissae are two or more and distinct."""
    for value in p:
        _check_snr(name, value)
    x = np.log2(p)
    if len(x) < 2 or len(set(x.tolist())) < len(x):
        raise ValueError(f"{name} holds fewer than two SNR points or repeats an SNR point: {shown}")
    return x


@dataclass(frozen=True)
class NodeLayout:
    """2-D positions of the K TX/RX pairs, shape (K, 2), in grid units.

    Positions may coincide; co-located pairs model a multi-antenna site.
    Every pairwise distance must be finite as well as every coordinate.
    """

    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError(f"positions must have shape (K, 2) with K >= 1, got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(_distances(pos))):
                raise ValueError("pairwise distances must be finite, but some positions lie too far apart")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def K(self) -> int:
        return int(self.positions.shape[0])


def place_grid(side: int) -> NodeLayout:
    """Regular side x side grid at integer coordinates (1..side, 1..side).

    Nodes are ordered row-major: index r*side + c sits at (x, y) = (c+1, r+1),
    so index 0 is (1, 1), index 1 is (2, 1), and so on.
    """
    _check_counts(("side", side, 1))
    coords = np.arange(side, dtype=float)
    x = np.tile(coords, side) + 1.0
    y = np.repeat(coords, side) + 1.0
    return NodeLayout(np.column_stack([x, y]))


def place_uniform_random(k: int, side: float, rng: np.random.Generator) -> NodeLayout:
    """k nodes drawn i.i.d. uniformly over the square [0, side]^2."""
    _check_counts(("k", k, 1))
    if not 0.0 < side < math.inf:  # NaN included
        raise ValueError(f"side must be finite and > 0, got {side}")
    return NodeLayout(rng.uniform(0.0, float(side), size=(k, 2)))


def pairwise_distance(layout: NodeLayout) -> np.ndarray:
    """K x K matrix of Euclidean distances; exact zeros on the diagonal."""
    return _distances(layout.positions)


def _distances(pos: np.ndarray) -> np.ndarray:
    diff = pos[:, None, :] - pos[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def interference_levels(distances: np.ndarray, gamma: float) -> np.ndarray:
    """Read-only (K, K) per-link interference levels 1 + (gamma - 1) * dist(k, i).

    gamma in (0, 1] controls how fast cross links weaken relative to the
    direct ones; gamma = 1 collapses the geometry (all links equal). Direct
    links sit at level exactly 1, and the matrix inherits the symmetry of
    the distance matrix.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distances must be square, got shape {d.shape}")
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite and nonnegative")
    _check_gamma(gamma)
    levels = 1.0 + (gamma - 1.0) * d
    levels.setflags(write=False)
    return levels


def cooperation_radius(gamma: float) -> float:
    """Distance 1/(1 - gamma) beyond which a cross link carries no bits.

    Defined for gamma in (0, 1) only; at gamma = 1 every link is as strong
    as a direct one and no finite radius exists.
    """
    _check_gamma(gamma)
    if gamma == 1.0:
        raise ValueError(f"cooperation radius is unbounded for gamma = {gamma}")
    return 1.0 / (1.0 - gamma)


def data_sharing_sets(layout: NodeLayout, gamma: float) -> list[set[int]]:
    """Per-TX sets of user indices whose data TX j keeps: K_j = {i : dist(i, j) <= radius}.

    Nodes exactly on the boundary are included. For gamma = 1 the radius is
    unbounded and every set is the full index set (fallback, not an error).
    """
    _check_gamma(gamma)
    k = layout.K
    if gamma == 1.0:
        return [set(range(k)) for _ in range(k)]
    d0 = cooperation_radius(gamma)
    dist = pairwise_distance(layout)
    return [set(np.flatnonzero(dist[j] <= d0).tolist()) for j in range(k)]


def grid_side(layout: NodeLayout) -> int | None:
    """Side length if the layout is exactly a row-major integer grid, else None."""
    side = math.isqrt(layout.K)
    if side * side != layout.K:
        return None
    if np.array_equal(layout.positions, place_grid(side).positions):
        return side
    return None


def format_layout(layout: NodeLayout) -> str:
    """One `x y` pair per line, exact to the bit; the 1-based line number is
    the node index."""
    return "".join(f"{x:.17g} {y:.17g}\n" for x, y in layout.positions)


def parse_layout(text: str) -> NodeLayout:
    """The layout in the text of a layout file (blank lines ignored)."""
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {ln}: expected `x y`, got {line!r}")
        rows.append((float(parts[0]), float(parts[1])))
    if not rows:
        raise ValueError("no nodes found")
    return NodeLayout(np.array(rows))
