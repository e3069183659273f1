"""Point-cloud parsing, normalization, sampling, and labeled PLY output.

The extension is the format: OFF (.off), ASCII PLY (.ply), XYZ (.xyz). Faces,
normals, and colors present in input files are parsed and discarded; only
vertex positions are kept. `export_labeled_ply` writes ASCII PLY with colors.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError


@dataclass
class PointCloud:
    """An unordered set of 3D points, shape (N, 3)."""

    points: np.ndarray

    def __post_init__(self):
        # Input points stay C order, while a step's (N, k) arrays are column-major
        # (see trainer.EStepResult): float results downstream depend on the layout
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ShapeError(f"points must have shape (N, 3) with N >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ShapeError("point coordinates must be finite")
        self.points = pts

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


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
        if key in ("comment", "obj_info"):
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
            block = _read_block(path, lineno, count, len(vertex_props))
            return block if vertex_props == ["x", "y", "z"] else block[:, cols]
        for _ in range(count):
            try:
                lineno, tokens = next(lines)
            except StopIteration:
                raise ParseError(f"data for element {name!r} ended early", path, lineno) from None


# The one list of cloud formats: suffix -> loader. XYZ is one vertex block.
_FORMATS = {".off": _load_off, ".ply": _load_ply_ascii, ".xyz": _read_block}
CLOUD_SUFFIXES = tuple(_FORMATS)


def _format(path: str | Path):
    """The loader of the format that `path`'s extension names."""
    suffix = Path(path).suffix.lower()
    if suffix not in _FORMATS:
        raise ParseError(f"cannot infer format from extension {suffix!r}", path)
    return _FORMATS[suffix]


def load_cloud(path: str | Path) -> PointCloud:
    """Load vertex positions from an OFF, ASCII-PLY, or XYZ file, by its extension.

    Faces, normals, and colors in the file are ignored. Raises ParseError,
    with a line number where there is one, on an unknown extension, on
    malformed input, when the file contains zero vertices, and when a vertex
    has a NaN or infinite coordinate (naming the first such vertex).
    """
    points = _format(path)(Path(path))
    if points.shape[0] == 0:
        raise ParseError("file contains zero vertices", path)
    try:
        return PointCloud(points)
    except ShapeError:  # the loaders return (N, 3), so only a non-finite value fails
        first = int(np.flatnonzero(~np.isfinite(points).all(axis=1))[0])
        raise ParseError(f"vertex {first} (counting from 0) has a non-finite coordinate",
                         path) from None


def normalize(cloud: PointCloud, stats_from: PointCloud | None = None) -> PointCloud:
    """Center the cloud at the origin and scale the max point norm to 1.

    The center (the mean point) and the scale (the largest distance from it)
    are those of `stats_from` when given, else of `cloud`: the points kept
    from a larger cloud map as they would within it. When all points of the
    statistics' cloud coincide, every point maps to the origin.
    """
    source = (cloud if stats_from is None else stats_from).points
    center = source.mean(axis=0)
    # Squared distances in two N-vectors of scratch, summed x, y, z in the
    # order of np.linalg.norm(source - center, axis=1), so bit for bit its square.
    sq = source[:, 0] - center[0]
    sq *= sq
    term = np.empty_like(sq)
    for axis in (1, 2):
        np.subtract(source[:, axis], center[axis], out=term)
        term *= term
        sq += term
    scale = np.sqrt(sq.max())
    if scale == 0.0:
        return PointCloud(np.zeros_like(cloud.points))
    points = cloud.points - center
    points /= scale
    return PointCloud(points)


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
    return PointCloud(cloud.points[idx])


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


# Rows per %-format in _write_rows: its scratch is bounded by the chunk, not the cloud.
_CHUNK_ROWS = 8192


def _write_rows(path: str | Path, header: str, rows: np.ndarray, formats, which) -> None:
    """Write `header`, then row i of `rows` through formats[which[i]], with one
    %-format per _CHUNK_ROWS rows."""
    with open(path, "w") as fh:
        fh.write(header)
        for start in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            line = "".join([formats[k] for k in which[start:start + _CHUNK_ROWS].tolist()])
            fh.write(line % tuple(chunk.ravel().tolist()))


def export_labeled_ply(cloud: PointCloud, labels, path: str | Path, palette) -> None:
    """Write an ASCII PLY with vertex i colored palette[labels[i]]; raises
    ShapeError unless `labels` has shape (N,) and every label is a palette index."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (cloud.n_points,):
        raise ShapeError(f"labels must have shape ({cloud.n_points},), got {labels.shape}")
    if labels.min() < 0:
        raise ShapeError(f"labels must be >= 0, got {int(labels.min())}")
    n_clusters = int(labels.max()) + 1
    if len(palette) < n_clusters:
        raise ShapeError(f"palette has {len(palette)} colors but labels use {n_clusters}")
    # One line format per colour, its "%d %d %d" text formatted once from float64
    # values, so a fractional colour truncates as in a float64 row of the cloud.
    colors = np.asarray(palette[:n_clusters], dtype=np.float64).tolist()
    formats = ["%.6f %.6f %.6f " + "%d %d %d" % tuple(rgb) + "\n" for rgb in colors]
    header = (f"ply\nformat ascii 1.0\nelement vertex {cloud.n_points}\n"
              "property float x\nproperty float y\nproperty float z\n"
              "property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n")
    _write_rows(path, header, cloud.points, formats, labels)
