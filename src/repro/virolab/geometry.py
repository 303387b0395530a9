"""Rotation utilities for the reconstruction substrate.

Orientations are 3x3 rotation matrices.  We parameterize with ZYZ Euler
angles (the electron-microscopy convention) and provide quasi-uniform
orientation grids for the POD search plus perturbation sampling for POR
refinement.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.errors import VirolabError

__all__ = [
    "euler_to_matrix",
    "random_rotations",
    "orientation_grid",
    "perturb_rotation",
    "draw_perturbation",
    "apply_perturbation",
    "angular_distance",
]


def euler_to_matrix(phi: float, theta: float, psi: float) -> np.ndarray:
    """ZYZ Euler angles (radians) -> rotation matrix."""
    cphi, sphi = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    cpsi, spsi = np.cos(psi), np.sin(psi)
    rz1 = np.array([[cphi, -sphi, 0.0], [sphi, cphi, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cth, 0.0, sth], [0.0, 1.0, 0.0], [-sth, 0.0, cth]])
    rz2 = np.array([[cpsi, -spsi, 0.0], [spsi, cpsi, 0.0], [0.0, 0.0, 1.0]])
    return rz1 @ ry @ rz2


def random_rotations(
    count: int, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """*count* rotations uniform over SO(3) (shape ``(count, 3, 3)``).

    Uses the QR-of-Gaussian construction with sign correction, which is
    exactly uniform under Haar measure.
    """
    generator = as_rng(rng)
    if count < 1:
        raise VirolabError(f"count must be >= 1, got {count}")
    out = np.empty((count, 3, 3))
    for i in range(count):
        gaussian = generator.normal(size=(3, 3))
        q, r = np.linalg.qr(gaussian)
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 2] *= -1
        out[i] = q
    return out


def orientation_grid(directions: int = 128, inplane: int = 12) -> np.ndarray:
    """A deterministic quasi-uniform grid of ``directions * inplane``
    orientations.

    View directions come from a Fibonacci sphere (quasi-uniform view
    vectors); each direction is combined with *inplane* evenly spaced
    in-plane rotation angles.  The product structure matters: tying one
    in-plane angle to each direction (a plain Fibonacci SO(3) sequence)
    leaves the correct view direction unable to win a projection-matching
    search, because its single psi sample is almost surely wrong.
    """
    if directions < 1 or inplane < 1:
        raise VirolabError(
            f"need positive grid sizes, got {directions}x{inplane}"
        )
    golden = (1.0 + 5.0**0.5) / 2.0
    indices = np.arange(directions, dtype=float)
    theta = np.arccos(np.clip(1.0 - 2.0 * (indices + 0.5) / directions, -1.0, 1.0))
    phi = (2.0 * np.pi * indices / golden) % (2.0 * np.pi)
    psis = np.linspace(0.0, 2.0 * np.pi, inplane, endpoint=False)
    return np.stack(
        [
            euler_to_matrix(p, t, s)
            for p, t in zip(phi, theta)
            for s in psis
        ]
    )


def perturb_rotation(
    rotation: np.ndarray,
    magnitude: float,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """A rotation near *rotation*: compose with a random axis-angle of
    angle up to *magnitude* radians."""
    axis, angle = draw_perturbation(magnitude, rng)
    return apply_perturbation(rotation, axis, angle)


def draw_perturbation(
    magnitude: float, rng: int | np.random.Generator | None = None
) -> tuple[np.ndarray, float]:
    """The random half of :func:`perturb_rotation`: an unnormalized axis
    (three normal draws), then an angle uniform in ``[0, magnitude)``."""
    generator = as_rng(rng)
    axis = generator.normal(size=3)
    angle = float(generator.uniform(0.0, magnitude))
    return axis, angle


def apply_perturbation(
    rotation: np.ndarray, axis: np.ndarray, angle: float
) -> np.ndarray:
    """The deterministic half of :func:`perturb_rotation`: rotate
    *rotation* by *angle* about the normalized *axis* (Rodrigues)."""
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    delta = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    return delta @ rotation


def angular_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic angle (radians) between two rotations."""
    trace = np.trace(a.T @ b)
    return float(np.arccos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0)))
