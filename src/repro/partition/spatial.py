"""FDSP spatial partitioning (Fully Decomposable Spatial Partition).

ADCNN's FDSP splits a convolutional feature map into an r x c grid of
tiles and *zero-pads* each tile instead of exchanging halo rows with the
neighbouring tiles.  That removes all cross-tile communication inside a
partitioned block at the cost of (a) redundant compute on the padded
border and (b) a small accuracy drop, because the zeros are wrong values
for interior tile borders.

This module provides both the analytical side (compute-overhead factors
for the latency model) and the tensor side (actual tile split/merge used
by the real NumPy executor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, List, Sequence, Tuple

import numpy as np

from .. import Checked, IntAtLeast

__all__ = ["Grid", "GRIDS", "fdsp_compute_overhead", "split_tiles",
           "merge_tiles", "tile_shape"]


@dataclass(frozen=True)
class Grid(Checked):
    """An r x c spatial partitioning grid. (1, 1) means unpartitioned."""

    rows: Annotated[int, IntAtLeast(1)]
    cols: Annotated[int, IntAtLeast(1)]

    @property
    def ntiles(self) -> int:
        return self.rows * self.cols

    def __str__(self) -> str:
        return f"{self.rows}x{self.cols}"


#: The search-space grids from the paper (1x1 up to 2x2).
GRIDS: Tuple[Grid, ...] = (Grid(1, 1), Grid(1, 2), Grid(2, 2))


def tile_shape(h: int, w: int, grid: Grid, row: int, col: int) -> Tuple[int, int]:
    """Height/width of tile (row, col); last row/col absorbs the remainder."""
    if not (0 <= row < grid.rows and 0 <= col < grid.cols):
        raise ValueError(f"tile ({row},{col}) outside grid {grid}")
    th = h // grid.rows + (h % grid.rows if row == grid.rows - 1 else 0)
    tw = w // grid.cols + (w % grid.cols if col == grid.cols - 1 else 0)
    return th, tw


def fdsp_compute_overhead(out_hw: Tuple[int, int], grid: Grid,
                          halo: int = 2) -> float:
    """Redundant-compute factor of FDSP for one tile.

    Each tile is padded by ``halo`` pixels on every cut edge (the
    receptive-field growth across the block's convolutions), so a tile
    computes ``(th + pad_h)(tw + pad_w) / (th * tw)`` times the work of an
    ideal 1/ntiles share.  Returns the factor (>= 1.0); 1.0 for 1x1.
    """
    if grid.ntiles == 1:
        return 1.0
    h, w = out_hw
    th = max(1, h // grid.rows)
    tw = max(1, w // grid.cols)
    pad_h = halo * (2 if grid.rows > 2 else (1 if grid.rows == 2 else 0))
    pad_w = halo * (2 if grid.cols > 2 else (1 if grid.cols == 2 else 0))
    return ((th + pad_h) * (tw + pad_w)) / float(th * tw)


def split_tiles(x: np.ndarray, grid: Grid, halo: int = 1) -> List[np.ndarray]:
    """Split an (N, C, H, W) tensor into zero-padded FDSP tiles.

    Tiles are returned row-major.  Each tile is padded by ``halo`` zeros
    on every *cut* edge (edges on the original image border keep the
    layer's own padding behaviour and get no extra zeros here).
    """
    n, c, h, w = x.shape
    tiles: List[np.ndarray] = []
    row_edges = np.linspace(0, h, grid.rows + 1).astype(int)
    col_edges = np.linspace(0, w, grid.cols + 1).astype(int)
    for r in range(grid.rows):
        for cc in range(grid.cols):
            tile = x[:, :, row_edges[r]:row_edges[r + 1],
                     col_edges[cc]:col_edges[cc + 1]]
            pt = halo if r > 0 else 0
            pb = halo if r < grid.rows - 1 else 0
            pl = halo if cc > 0 else 0
            pr = halo if cc < grid.cols - 1 else 0
            tiles.append(np.pad(tile, ((0, 0), (0, 0), (pt, pb), (pl, pr))))
    return tiles


def merge_tiles(tiles: Sequence[np.ndarray], grid: Grid,
                out_hw: Tuple[int, int], halo: int = 1) -> np.ndarray:
    """Reassemble FDSP tiles into an (N, C, H, W) tensor.

    The zero-padding added by :func:`split_tiles` (possibly shrunk by
    stride inside the block — callers pass the *output* halo) is cropped
    before stitching.
    """
    if len(tiles) != grid.ntiles:
        raise ValueError(f"expected {grid.ntiles} tiles, got {len(tiles)}")
    h, w = out_hw
    n, c = tiles[0].shape[:2]
    out = np.zeros((n, c, h, w), dtype=tiles[0].dtype)
    row_edges = np.linspace(0, h, grid.rows + 1).astype(int)
    col_edges = np.linspace(0, w, grid.cols + 1).astype(int)
    for r in range(grid.rows):
        for cc in range(grid.cols):
            tile = tiles[r * grid.cols + cc]
            pt = halo if r > 0 else 0
            pl = halo if cc > 0 else 0
            th = row_edges[r + 1] - row_edges[r]
            tw = col_edges[cc + 1] - col_edges[cc]
            out[:, :, row_edges[r]:row_edges[r + 1],
                col_edges[cc]:col_edges[cc + 1]] = (
                tile[:, :, pt:pt + th, pl:pl + tw])
    return out
