"""Synthetic benchmark inputs, made only from the workload seed.

Every cloud is a primitive surface (sphere, box, cylinder or torus) sampled
uniformly in its own parameters, then anisotropically scaled, rotated and
shifted. The same seed always gives the same points and the same file bytes.
The writers here are the benchmark's own, so a change to the library's
writers cannot change the inputs it is measured on.
"""

from __future__ import annotations

import numpy as np

PRIMITIVES = ("sphere", "box", "cylinder", "torus")


def _sphere(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _box(rng, n):
    # Six unit-cube faces of equal area: pick a face, fix one axis at +-1.
    pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    axis = rng.integers(0, 3, size=n)
    pts[np.arange(n), axis] = rng.choice((-1.0, 1.0), size=n)
    return pts


def _cylinder(rng, n):
    # Radius 1, height 2: side area 4*pi, each cap pi.
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    on_cap = rng.uniform(size=n) < 2.0 * np.pi / (6.0 * np.pi)
    r = np.where(on_cap, np.sqrt(rng.uniform(size=n)), 1.0)
    z = np.where(on_cap, rng.choice((-1.0, 1.0), size=n), rng.uniform(-1.0, 1.0, size=n))
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _torus(rng, n, major=1.0, minor=0.35):
    # Rejection on the tube angle makes the density uniform in area.
    u = rng.uniform(0.0, 2.0 * np.pi, size=4 * n)
    v = rng.uniform(0.0, 2.0 * np.pi, size=4 * n)
    keep = rng.uniform(size=4 * n) * (major + minor) < major + minor * np.cos(v)
    u, v = u[keep][:n], v[keep][:n]
    ring = major + minor * np.cos(v)
    return np.stack([ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)], axis=1)


_SAMPLERS = {"sphere": _sphere, "box": _box, "cylinder": _cylinder, "torus": _torus}


def primitive_cloud(seed: int, index: int, n: int) -> np.ndarray:
    """Surface sample number `index` of the seed's stream: (n, 3) float64."""
    rng = np.random.default_rng([seed, index])
    kind = PRIMITIVES[index % len(PRIMITIVES)]
    pts = _SAMPLERS[kind](rng, n)
    scale = rng.uniform(0.4, 1.6, size=3)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return (pts * scale) @ rotation.T + rng.uniform(-0.5, 0.5, size=3)


def cloud_text(points: np.ndarray, fmt: str) -> bytes:
    """Serialize vertex positions as OFF, ASCII PLY or XYZ text."""
    body = "\n".join(f"{x:.6f} {y:.6f} {z:.6f}" for x, y, z in points.tolist()) + "\n"
    n = points.shape[0]
    if fmt == "off":
        head = f"OFF\n{n} 0 0\n"
    elif fmt == "ply":
        head = ("ply\nformat ascii 1.0\n"
                f"element vertex {n}\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n")
    elif fmt == "xyz":
        head = ""
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return (head + body).encode()
