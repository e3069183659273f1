import json
import struct

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def two_blob_points(rng, per_blob, radius=0.05):
    """Two well-separated equal blobs on the x axis; returns (points, membership)."""
    centers = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    pts = np.concatenate([
        centers[k] + np.clip(rng.normal(scale=radius / 2, size=(per_blob, 3)), -radius, radius)
        for k in range(2)
    ])
    membership = np.repeat([0, 1], per_blob)
    return pts, membership


_CLOUD_HEADERS = {".off": "OFF\n{n} 0 0\n", ".xyz": "",
                  ".ply": "ply\nformat ascii 1.0\nelement vertex {n}\nproperty float x\n"
                          "property float y\nproperty float z\nend_header\n"}


def write_cloud(points, path):
    """Write (N, 3) points as "%.6f %.6f %.6f" rows under the OFF, PLY or XYZ
    header that `path`'s suffix names; returns `path`."""
    points = np.asarray(points, dtype=np.float64)
    header = _CLOUD_HEADERS[path.suffix.lower()].format(n=len(points))
    path.write_text(header + ("%.6f %.6f %.6f\n" * len(points)) % tuple(points.ravel().tolist()))
    return path


def split_checkpoint(checkpoint: bytes) -> tuple[dict, bytes]:
    """The JSON header and the tensor data of a checkpoint file's bytes."""
    (header_len,) = struct.unpack("<Q", checkpoint[12:20])
    return json.loads(checkpoint[20:20 + header_len]), checkpoint[20 + header_len:]


def join_checkpoint(checkpoint: bytes, header: dict, data: bytes) -> bytes:
    """The checkpoint's magic and version with a new header and tensor data."""
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return checkpoint[:12] + struct.pack("<Q", len(header_bytes)) + header_bytes + data


def with_tensors(checkpoint: bytes, tensors: dict) -> bytes:
    """The checkpoint with its tensor table and data rebuilt from `tensors`
    (name -> array): back to back in sorted-name order, each in its own dtype."""
    header, _ = split_checkpoint(checkpoint)
    header["tensors"], raws = [], []
    for name in sorted(tensors):
        arr = tensors[name]
        header["tensors"].append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape),
                                  "offset": sum(map(len, raws)), "nbytes": arr.nbytes})
        raws.append(arr.tobytes())
    return join_checkpoint(checkpoint, header, b"".join(raws))
