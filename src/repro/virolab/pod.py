"""POD — "ab initio" parallel orientation determination.

Given the micrograph stack and the user-supplied initial model, POD
assigns each image the orientation (from a quasi-uniform grid) whose
reference projection correlates best with it.  This is the projection-
matching formulation of orientation determination; the paper's POD is the
parallel C implementation of the same idea.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VirolabError
from repro.virolab._parallel import parallel_map
from repro.virolab.geometry import orientation_grid
from repro.virolab.projection import project

__all__ = ["reference_projections", "match_orientations", "pod"]


def reference_projections(
    model: np.ndarray, rotations: np.ndarray
) -> np.ndarray:
    """Project *model* at every rotation; shape ``(k, size, size)``.

    The projections run on every usable CPU, each filling its own row.
    """
    size = model.shape[0]
    refs = np.empty((len(rotations), size, size))

    def fill(i: int) -> None:
        refs[i] = project(model, rotations[i])

    parallel_map(fill, range(len(rotations)))
    return refs


def _normalize_stack(stack: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-norm flatten of each image (for correlation)."""
    flat = stack.reshape(len(stack), -1)
    flat = flat - flat.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(flat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return flat / norms


def match_orientations(
    images: np.ndarray, refs: np.ndarray, rotations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best-correlating reference orientation per image.

    Returns (assigned rotations ``(n,3,3)``, correlation scores ``(n,)``).
    Vectorized: one ``(n, k)`` similarity matrix via a single GEMM.
    """
    if images.ndim != 3 or refs.ndim != 3:
        raise VirolabError("images and refs must be 3D stacks")
    sims = _normalize_stack(images) @ _normalize_stack(refs).T
    best = np.argmax(sims, axis=1)
    scores = sims[np.arange(len(images)), best]
    return rotations[best].copy(), scores


def pod(
    images: np.ndarray,
    initial_model: np.ndarray,
    directions: int = 128,
    inplane: int = 12,
) -> tuple[np.ndarray, np.ndarray]:
    """The POD program: coarse-grid projection matching.

    The search grid is *directions* quasi-uniform view directions crossed
    with *inplane* evenly spaced in-plane angles.  Returns (orientations,
    correlation scores).
    """
    rotations = orientation_grid(directions, inplane)
    refs = reference_projections(initial_model, rotations)
    return match_orientations(images, refs, rotations)
