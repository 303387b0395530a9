"""P3DR — parallel 3D reconstruction (weighted back-projection).

Sums the backprojection of every image at its assigned orientation, then
applies a simple spherical low-pass consistent with the sampling density.
The paper's P3DR is a parallel Fourier reconstruction code; real-space WBP
has the same observable role in the workflow (images + orientations ->
3D model whose quality grows with orientation accuracy).
"""

from __future__ import annotations

import numpy as np

from repro.errors import VirolabError
from repro.virolab._parallel import parallel_map
from repro.virolab.projection import backproject

__all__ = ["p3dr"]

#: Backprojections computed per step: the volume sums them in image
#: order, and holding a window instead of the whole stack bounds memory.
_WINDOW = 4


def p3dr(
    images: np.ndarray,
    orientations: np.ndarray,
    lowpass: float | None = 0.7,
) -> np.ndarray:
    """Reconstruct a 3D map from *images* at *orientations*.

    Plain backprojection convolves the structure with a ~1/r² point-spread
    (every image smears density through the whole beam path); the
    *weighting* of weighted back-projection is the Fourier ramp that
    undoes it.  We apply a spherical ramp ``|f|`` capped at ``lowpass *
    Nyquist`` (the cap doubles as the noise-suppressing low-pass; None
    disables filtering entirely).  Returns a ``(size, size, size)`` map
    normalized to unit peak.

    The backprojections run on every usable CPU, a window at a time, and
    are summed in image order, so the map is the serial sum bit for bit.
    """
    if len(images) != len(orientations):
        raise VirolabError(
            f"{len(images)} images but {len(orientations)} orientations"
        )
    if len(images) == 0:
        raise VirolabError("cannot reconstruct from zero images")
    size = images.shape[1]
    volume = np.zeros((size, size, size))

    def smear(i: int) -> np.ndarray:
        return backproject(images[i], orientations[i], size)

    for start in range(0, len(images), _WINDOW):
        window = range(start, min(start + _WINDOW, len(images)))
        for backprojection in parallel_map(smear, window):
            volume += backprojection
    volume /= len(images)

    if lowpass is not None:
        volume = _ramp_filter(volume, lowpass)

    volume -= volume.min()
    peak = volume.max()
    if peak > 0:
        volume /= peak
    return volume


def _ramp_filter(volume: np.ndarray, cutoff: float) -> np.ndarray:
    """Multiply the spectrum by ``|f|`` (normalized), zero beyond
    ``cutoff`` * Nyquist — the WBP weighting function."""
    size = volume.shape[0]
    freqs = np.fft.fftfreq(size)
    fz, fy, fx = np.meshgrid(freqs, freqs, freqs, indexing="ij")
    radius = np.sqrt(fz**2 + fy**2 + fx**2)
    nyquist = 0.5
    weight = radius / nyquist
    weight[radius > cutoff * nyquist] = 0.0
    # Keep a little DC so the map's gross envelope survives normalization.
    weight[0, 0, 0] = weight.max() * 0.05 if weight.max() > 0 else 1.0
    spectrum = np.fft.fftn(volume)
    return np.real(np.fft.ifftn(spectrum * weight))
