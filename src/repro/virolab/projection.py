"""Projection geometry: 3D volume -> 2D micrograph simulation.

``project`` rotates the volume by the particle orientation and integrates
along the beam (z) axis — the standard weak-phase projection
approximation.  ``make_dataset`` generates the experiment's synthetic
micrograph stack: random orientations, projection, optional Gaussian
noise (the paper's instrumentation limits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro._util import as_rng
from repro.errors import VirolabError
from repro.virolab._parallel import parallel_map
from repro.virolab.geometry import random_rotations

__all__ = ["project", "backproject", "Dataset", "make_dataset"]


def _rotated(volume: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Resample *volume* under *rotation* about the volume centre."""
    if volume.ndim != 3 or len(set(volume.shape)) != 1:
        raise VirolabError(f"volume must be cubic, got shape {volume.shape}")
    center = (np.array(volume.shape) - 1) / 2.0
    # affine_transform maps output coords -> input coords, so pass R^T
    # (the inverse rotation) to rotate the *object* by R.
    matrix = rotation.T
    offset = center - matrix @ center
    return ndimage.affine_transform(
        volume, matrix, offset=offset, order=1, mode="constant", cval=0.0
    )


def project(volume: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """The 2D projection of *volume* in orientation *rotation*.

    Integrates along axis 0 (the beam) after rotating the particle.
    """
    return _rotated(volume, rotation).sum(axis=0)


def backproject(
    image: np.ndarray, rotation: np.ndarray, size: int
) -> np.ndarray:
    """Smear *image* back through the volume along the beam direction.

    The adjoint of :func:`project`: replicate the image along z, then
    rotate by the inverse orientation.  Summing backprojections over many
    orientations (and normalizing) is classic real-space weighted
    back-projection — the toy P3DR.
    """
    if image.shape != (size, size):
        raise VirolabError(
            f"image shape {image.shape} does not match size {size}"
        )
    smear = np.broadcast_to(image, (size, size, size)).copy() / size
    return _rotated(smear, rotation.T)


@dataclass(frozen=True)
class Dataset:
    """A synthetic micrograph stack with its hidden ground truth."""

    images: np.ndarray  # (n, size, size)
    true_rotations: np.ndarray  # (n, 3, 3) — hidden; used only for scoring
    noise_sigma: float

    @property
    def count(self) -> int:
        return int(self.images.shape[0])

    @property
    def size(self) -> int:
        return int(self.images.shape[1])

    def split_streams(self) -> tuple[np.ndarray, np.ndarray]:
        """Odd/even index split — the paper's two-stream approach for
        correlation-based resolution estimation."""
        idx = np.arange(self.count)
        return idx[idx % 2 == 0], idx[idx % 2 == 1]


def make_dataset(
    volume: np.ndarray,
    count: int = 48,
    noise_sigma: float = 0.05,
    seed: int | np.random.Generator | None = 0,
) -> Dataset:
    """Project *volume* at *count* random orientations with additive
    Gaussian noise of standard deviation ``noise_sigma * signal_peak``.

    The projections run on every usable CPU, each filling its own image.
    """
    rng = as_rng(seed)
    rotations = random_rotations(count, rng)
    size = volume.shape[0]
    images = np.empty((count, size, size))

    def fill(i: int) -> None:
        images[i] = project(volume, rotations[i])

    parallel_map(fill, range(count))
    peak = float(np.abs(images).max()) or 1.0
    if noise_sigma > 0:
        images = images + rng.normal(0.0, noise_sigma * peak, size=images.shape)
    return Dataset(images=images, true_rotations=rotations, noise_sigma=noise_sigma)
