"""Texture mask conditioning: LBP maps, threshold masks, masked textures, fusion.

Images are 2-D non-negative float activity grids. LBP works on an 8-bit
quantization of the image (affine min-max rescale); codes use the standard
8-bit convention with weights 2^(p-1), so values live in [0, 255].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# clockwise from top-left; weight of neighbor p (1-based) is 2^(p-1)
NEIGHBOR_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1), (0, 1),
    (1, 1), (1, 0), (1, -1), (0, -1),
)


@dataclass
class TextureConfig:
    tau: int = 180
    alpha: float = 0.9

    def __post_init__(self):
        if not 0 <= self.tau <= 255:
            raise ValueError(f"tau {self.tau} outside [0, 255]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")


def quantize_to_byte(image: np.ndarray) -> np.ndarray:
    """Affine rescale of [min, max] onto [0, 255]; constant images map to zeros."""
    image = np.asarray(image, dtype=np.float64)
    lo = image.min()
    hi = image.max()
    if hi == lo:
        return np.zeros(image.shape, dtype=np.int64)
    return np.rint((image - lo) * (255.0 / (hi - lo))).astype(np.int64)


def lbp_map(image: np.ndarray) -> np.ndarray:
    """Per-pixel 8-neighbor binary code in [0, 255], replicate-padded borders.

    A neighbor contributes its bit when neighbor - center >= 0.
    """
    image = np.asarray(image)
    if image.ndim != 2 or image.size == 0:
        raise ValueError(f"expected non-empty 2-D image, got shape {image.shape}")
    q = quantize_to_byte(image)
    h, w = q.shape
    qp = np.pad(q, 1, mode="edge")
    codes = np.zeros((h, w), dtype=np.int64)
    for p, (dy, dx) in enumerate(NEIGHBOR_OFFSETS):
        neigh = qp[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
        codes |= ((neigh - q) >= 0).astype(np.int64) << p
    return codes


def texture_mask(lbp: np.ndarray, tau: int = 180) -> np.ndarray:
    """Binary mask: 1 where the LBP code is >= tau."""
    if not 0 <= tau <= 255:
        raise ValueError(f"tau {tau} outside [0, 255]")
    lbp = np.asarray(lbp)
    if lbp.min() < 0 or lbp.max() > 255:
        raise ValueError("LBP codes outside [0, 255]")
    return (lbp >= tau).astype(np.float64)


def masked_texture(image: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Elementwise image * mask."""
    image = np.asarray(image)
    mask = np.asarray(mask)
    if image.shape != mask.shape:
        raise ValueError(f"shape mismatch {image.shape} vs {mask.shape}")
    return image * mask


def image_mask(image: np.ndarray, tau: int = 180) -> np.ndarray:
    """Convenience: threshold mask straight from an image."""
    return texture_mask(lbp_map(image), tau)


def fuse(separated: np.ndarray, masked: np.ndarray, alpha: float) -> np.ndarray:
    """Weighted fusion alpha * separated + (1 - alpha) * masked texture."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    separated = np.asarray(separated)
    masked = np.asarray(masked)
    if separated.shape != masked.shape:
        raise ValueError(f"shape mismatch {separated.shape} vs {masked.shape}")
    return alpha * separated + (1.0 - alpha) * masked
