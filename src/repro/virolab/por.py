"""POR — parallel orientation refinement.

Given the current 3D model and per-image orientations, POR locally
improves each orientation: it proposes random perturbations of shrinking
magnitude around the current estimate, projects the model there, and
keeps the proposal when the correlation with the image improves.  One POR
pass tightens the orientations; alternating P3DR and POR is the paper's
iterative-refinement loop.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.errors import VirolabError
from repro.virolab._parallel import parallel_map
from repro.virolab.geometry import apply_perturbation, draw_perturbation
from repro.virolab.projection import project

__all__ = ["por"]


def _corr(a: np.ndarray, b: np.ndarray) -> float:
    fa = a.ravel() - a.mean()
    fb = b.ravel() - b.mean()
    na, nb = np.linalg.norm(fa), np.linalg.norm(fb)
    if na == 0 or nb == 0:
        return 0.0
    return float(fa @ fb / (na * nb))


def por(
    images: np.ndarray,
    orientations: np.ndarray,
    model: np.ndarray,
    trials: int = 12,
    magnitude: float = 0.25,
    seed: int | np.random.Generator | None = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Refine *orientations* against *model*.

    *trials* perturbations per image, drawn at magnitudes shrinking from
    *magnitude* radians; greedy accept.  Returns (refined orientations,
    correlation scores).

    Every perturbation is drawn first, image by image and trial by trial
    (the draws never depend on what was accepted), then the images are
    refined on every usable CPU, each with its own accept/reject loop.
    """
    if len(images) != len(orientations):
        raise VirolabError(
            f"{len(images)} images but {len(orientations)} orientations"
        )
    rng = as_rng(seed)
    scales = [magnitude * (1.0 - t / (2.0 * trials)) for t in range(trials)]
    draws = [
        [draw_perturbation(scale, rng) for scale in scales]
        for _ in range(len(images))
    ]

    refined = orientations.copy()
    scores = np.empty(len(images))

    def refine(i: int) -> tuple[np.ndarray, float]:
        image = images[i]
        current = refined[i]
        best_score = _corr(image, project(model, current))
        for axis, angle in draws[i]:
            candidate = apply_perturbation(current, axis, angle)
            score = _corr(image, project(model, candidate))
            if score > best_score:
                best_score = score
                current = candidate
        return current, best_score

    for i, (rotation, score) in enumerate(parallel_map(refine, range(len(images)))):
        refined[i] = rotation
        scores[i] = score
    return refined, scores
