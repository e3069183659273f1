"""Point-cloud parsing, normalization, sampling, and serialization.

Supported file formats: OFF, ASCII PLY, and XYZ. Faces, normals, and colors
present in input files are parsed and discarded; only vertex positions are
kept. Export writes ASCII PLY with per-vertex colors.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyCloudError, ParseError, ShapeError

FORMATS = ("OFF", "PLY_ASCII", "XYZ")

_EXTENSION_FORMATS = {
    ".off": "OFF",
    ".ply": "PLY_ASCII",
    ".xyz": "XYZ",
    ".txt": "XYZ",
}


@dataclass
class PointCloud:
    """An unordered set of 3D points, shape (N, 3)."""

    points: np.ndarray
    name: str | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ShapeError(f"points must have shape (N, 3), got {pts.shape}")
        if pts.shape[0] < 1:
            raise EmptyCloudError("point cloud has no points")
        if not np.all(np.isfinite(pts)):
            raise ShapeError("point coordinates must be finite")
        self.points = pts

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass
class LabeledCloud:
    """A point cloud together with per-point cluster labels and confidences."""

    cloud: PointCloud
    labels: np.ndarray
    confidences: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.confidences = np.asarray(self.confidences, dtype=np.float64)
        n = self.cloud.n_points
        if self.labels.shape != (n,) or self.confidences.shape != (n,):
            raise ShapeError(
                f"labels/confidences must have shape ({n},), got "
                f"{self.labels.shape} and {self.confidences.shape}"
            )

    @classmethod
    def from_soft_labels(cls, cloud: PointCloud, gamma: np.ndarray) -> "LabeledCloud":
        """Hard-assign each point to its highest-scoring cluster."""
        gamma = np.asarray(gamma, dtype=np.float64)
        if gamma.ndim != 2 or gamma.shape[0] != cloud.n_points:
            raise ShapeError(f"soft labels must have shape (N, J), got {gamma.shape}")
        return cls(cloud, gamma.argmax(axis=1), gamma.max(axis=1))

    @property
    def num_clusters(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


def _tokenize(path: Path):
    """Yield (line_number, tokens) for non-empty, non-comment lines."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            # surrogateescape maps each byte that is not UTF-8 to U+DC80..U+DCFF
            if not raw.isascii() and any("\udc80" <= c <= "\udcff" for c in raw):
                raise ParseError("line is not UTF-8 text", path, lineno)
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def _parse_floats(tokens, count, path, lineno):
    if len(tokens) < count:
        raise ParseError(f"expected {count} numeric fields, got {len(tokens)}", path, lineno)
    try:
        return [float(t) for t in tokens[:count]]
    except ValueError:
        raise ParseError(f"non-numeric field in {tokens[:count]}", path, lineno) from None


def _read_block(path: Path, skip: int = 0, count: int | None = None, n_fields: int | None = None) -> np.ndarray:
    """Parse `count` rows (all when None) after physical line `skip` with one np.loadtxt call.

    With `n_fields`, each row holds exactly that many numbers, all returned;
    otherwise the first three of each row are returned. On a bad block the
    tokenizer re-reads it to raise ParseError at the first bad physical line.
    """
    width = n_fields or 3
    if count == 0:
        return np.empty((0, width))
    error = ""
    try:
        with warnings.catch_warnings():
            # loadtxt warns about blank or comment lines inside a max_rows
            # block and about a block with no data; neither is a fault here.
            warnings.simplefilter("ignore", UserWarning)
            block = np.loadtxt(path, comments="#", skiprows=skip, max_rows=count,
                               usecols=None if n_fields else (0, 1, 2), ndmin=2, encoding="utf-8")
        if (count is None or len(block) == count) and block.shape[1] == width:
            return block
    except ValueError as exc:  # includes UnicodeDecodeError
        error = str(exc)  # not exc, whose traceback would pin this frame and its open file
    lines = ((n, tokens) for n, tokens in _tokenize(path) if n > skip)
    lineno, seen = skip, 0
    for seen, (lineno, tokens) in enumerate(itertools.islice(lines, count), start=1):
        if n_fields is not None and len(tokens) != n_fields:
            raise ParseError(f"expected {n_fields} fields, got {len(tokens)}", path, lineno)
        _parse_floats(tokens, width, path, lineno)
    if count is not None and seen < count:
        raise ParseError(f"expected {count} vertices, file ended after {seen}", path, lineno)
    # Tokens that Python's float() accepts but loadtxt does not, such as "1_0".
    raise ParseError(f"unreadable vertex data: {error}", path)


def _load_off(path: Path) -> np.ndarray:
    lines = _tokenize(path)
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ParseError("empty file", path, 0) from None
    if tokens[0] != "OFF":
        raise ParseError(f"missing OFF header, got {tokens[0]!r}", path, lineno)
    counts = tokens[1:]
    if not counts:
        try:
            lineno, counts = next(lines)
        except StopIteration:
            raise ParseError("missing vertex/face counts", path, lineno) from None
    if len(counts) < 2:
        raise ParseError("count line needs at least vertex and face counts", path, lineno)
    if not counts[0].isdecimal():
        raise ParseError(f"bad vertex count {counts[0]!r}", path, lineno)
    # Lines after the vertices are faces; never read.
    return _read_block(path, lineno, int(counts[0]))


def _load_ply_ascii(path: Path) -> np.ndarray:
    lines = _tokenize(path)
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ParseError("empty file", path, 0) from None
    if tokens != ["ply"]:
        raise ParseError("missing 'ply' magic line", path, lineno)

    # elements in declaration order: (name, count)
    elements: list[tuple[str, int]] = []
    vertex_props: list[str] = []
    saw_format = False
    for lineno, tokens in lines:
        key = tokens[0]
        if key == "comment":
            continue
        if key == "format":
            if len(tokens) < 2 or tokens[1] != "ascii":
                raise ParseError(f"only ASCII PLY is supported, got {' '.join(tokens[1:])!r}", path, lineno)
            saw_format = True
        elif key == "element":
            if len(tokens) != 3:
                raise ParseError("malformed element declaration", path, lineno)
            if not tokens[2].isdecimal():
                raise ParseError(f"bad element count {tokens[2]!r}", path, lineno)
            elements.append((tokens[1], int(tokens[2])))
        elif key == "property":
            if not elements:
                raise ParseError("property before any element", path, lineno)
            if len(tokens) < 3:
                raise ParseError("malformed property declaration", path, lineno)
            if elements[-1][0] == "vertex":
                if tokens[1] == "list":
                    raise ParseError("list properties are not supported on vertices", path, lineno)
                vertex_props.append(tokens[2])
        elif key == "end_header":
            break
        else:
            raise ParseError(f"unknown header keyword {key!r}", path, lineno)
    else:
        raise ParseError("header never terminated with end_header", path, lineno)

    if not saw_format:
        raise ParseError("missing format declaration", path, lineno)
    if not any(e[0] == "vertex" for e in elements):
        raise ParseError("no vertex element declared", path, lineno)
    for axis in ("x", "y", "z"):
        if axis not in vertex_props:
            raise ParseError(f"vertex element lacks property {axis!r}", path, lineno)
    cols = [vertex_props.index(a) for a in ("x", "y", "z")]

    # Skip the rows of elements declared before the vertices; later rows are never read.
    for name, count in elements:
        if name == "vertex":
            # C order, as downstream float results depend on the memory layout
            return np.ascontiguousarray(_read_block(path, lineno, count, len(vertex_props))[:, cols])
        for _ in range(count):
            try:
                lineno, tokens = next(lines)
            except StopIteration:
                raise ParseError(f"data for element {name!r} ended early", path, lineno) from None


# An XYZ file is one vertex block.
_LOADERS = {"OFF": _load_off, "PLY_ASCII": _load_ply_ascii, "XYZ": _read_block}


def detect_format(path: str | Path) -> str:
    """Map a file extension to one of the supported format names."""
    suffix = Path(path).suffix.lower()
    if suffix not in _EXTENSION_FORMATS:
        raise ParseError(f"cannot infer format from extension {suffix!r}", path)
    return _EXTENSION_FORMATS[suffix]


def load_cloud(path: str | Path, format: str | None = None) -> PointCloud:
    """Load vertex positions from an OFF, ASCII-PLY, or XYZ file.

    Faces, normals, and colors in the file are ignored. Raises ParseError
    (with a line number) on malformed input and EmptyCloudError when the
    file contains zero vertices.
    """
    path = Path(path)
    if format is None:
        format = detect_format(path)
    if format not in _LOADERS:
        raise ParseError(f"unknown format {format!r}; expected one of {FORMATS}", path)
    points = _LOADERS[format](path)
    if points.shape[0] == 0:
        raise EmptyCloudError(f"{path} contains zero vertices")
    return PointCloud(points, name=path.stem)


def normalize(cloud: PointCloud) -> PointCloud:
    """Center the cloud at the origin and scale the max point norm to 1.

    A degenerate cloud whose points all coincide maps to the origin.
    """
    centered = cloud.points - cloud.points.mean(axis=0)
    scale = np.linalg.norm(centered, axis=1).max()
    if scale == 0.0:
        return PointCloud(np.zeros_like(centered), name=cloud.name)
    return PointCloud(centered / scale, name=cloud.name)


def downsample_random(cloud: PointCloud, target: int, seed: int) -> PointCloud:
    """Randomly sample `target` points, deterministically for a fixed seed.

    Sampling is without replacement when the cloud has at least `target`
    points, with replacement otherwise.
    """
    if target < 1:
        raise ShapeError(f"target must be >= 1, got {target}")
    rng = np.random.default_rng(seed)
    n = cloud.n_points
    idx = rng.choice(n, size=target, replace=n < target)
    return PointCloud(cloud.points[idx], name=cloud.name)


def default_palette(n: int) -> list[tuple[int, int, int]]:
    """n visually distinct RGB triples (uint8), evenly spaced in hue."""
    palette = []
    for k in range(n):
        h = (k / max(n, 1)) * 6.0
        x = 1.0 - abs(h % 2.0 - 1.0)
        r, g, b = [(1, x, 0), (x, 1, 0), (0, 1, x), (0, x, 1), (x, 0, 1), (1, 0, x)][int(h) % 6]
        v = 1.0 if k % 2 == 0 else 0.6  # alternate brightness for neighbors in hue
        palette.append(tuple(int(round(255 * v * c)) for c in (r, g, b)))
    return palette


_PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex {n}\n"
               "property float x\nproperty float y\nproperty float z\n{extra}end_header\n")


def _write_rows(path: str | Path, header: str, row_format: str, rows: np.ndarray) -> None:
    """Write `header`, then every row with one %-format over the flattened array."""
    with open(path, "w") as fh:
        fh.write(header + (row_format * len(rows)) % tuple(rows.ravel().tolist()))


def export_labeled_ply(labeled: LabeledCloud, path: str | Path, palette) -> None:
    """Write an ASCII PLY with vertex i colored palette[labels[i]]."""
    n_clusters = labeled.num_clusters
    if len(palette) < n_clusters:
        raise ShapeError(f"palette has {len(palette)} colors but labels use {n_clusters}")
    rows = np.column_stack([labeled.cloud.points, np.asarray(palette)[labeled.labels]])
    color_props = "property uchar red\nproperty uchar green\nproperty uchar blue\n"
    _write_rows(path, _PLY_HEADER.format(n=len(rows), extra=color_props), "%.6f %.6f %.6f %d %d %d\n", rows)


def save_cloud(cloud: PointCloud, path: str | Path, format: str | None = None) -> None:
    """Write plain vertex positions in OFF, ASCII-PLY, or XYZ format."""
    path = Path(path)
    if format is None:
        format = detect_format(path)
    n = cloud.n_points
    headers = {"OFF": f"OFF\n{n} 0 0\n", "PLY_ASCII": _PLY_HEADER.format(n=n, extra=""), "XYZ": ""}
    if format not in headers:
        raise ParseError(f"unknown format {format!r}; expected one of {FORMATS}", path)
    _write_rows(path, headers[format], "%.6f %.6f %.6f\n", cloud.points)
