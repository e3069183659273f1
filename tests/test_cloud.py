import numpy as np
import pytest

from otclu.cloud import (LabeledCloud, PointCloud, default_palette, downsample_random,
                         export_labeled_ply, load_cloud, normalize, save_cloud)
from otclu.errors import EmptyCloudError, ParseError, ShapeError

from conftest import ball_points


def write(path, text):
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return path


PLY_XYZ_RED = ("ply\nformat ascii 1.0\nelement vertex 3\n"
               "property float x\nproperty float y\nproperty float z\nproperty uchar red\n"
               "end_header\n")  # vertex rows start on line 9


class TestLoadOff:
    def test_basic_three_vertices(self, tmp_path):
        path = write(tmp_path / "a.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        cloud = load_cloud(path, "OFF")
        assert cloud.n_points == 3
        np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_counts_on_header_line(self, tmp_path):
        path = write(tmp_path / "a.off", "OFF 2 0 0\n0 0 0\n1 2 3\n")
        assert load_cloud(path, "OFF").n_points == 2

    def test_faces_are_discarded(self, tmp_path):
        path = write(tmp_path / "a.off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 2 1 0\n")
        assert load_cloud(path, "OFF").n_points == 3

    def test_zero_vertices(self, tmp_path):
        path = write(tmp_path / "a.off", "OFF\n0 0 0\n")
        with pytest.raises(EmptyCloudError):
            load_cloud(path, "OFF")

    def test_malformed_vertex_reports_line(self, tmp_path):
        # (text, physical line of the fault)
        cases = [
            ("OFF\n2 0 0\n0 0 0\n1 oops 0\n", 4),
            ("OFF\n3 0 0\n0 0 0\n# note\n\n1 oops 0\n0 1 0\n", 6),  # after a comment and a blank line
            ("OFF\n3 0 0\n0 0 0\n# note\n1 0 0\n", 5),  # ends before the declared count
            (b"OFF\n2 0 0\n0 0 0\n1 1 1 # caf\xe9\n", 4),  # not UTF-8
        ]
        for text, line in cases:
            with pytest.raises(ParseError) as err:
                load_cloud(write(tmp_path / "a.off", text), "OFF")
            assert err.value.line == line, text

    def test_missing_header(self, tmp_path):
        # (text, line of the fault): no OFF line, a negative count, bytes that are not UTF-8
        cases = [("3 1 0\n0 0 0\n1 0 0\n0 1 0\n", 1), ("OFF\n-2 0 0\n", 2),
                 (b"OFF # caf\xe9\n1 0 0\n0 0 0\n", 1)]
        for text, line in cases:
            with pytest.raises(ParseError) as err:
                load_cloud(write(tmp_path / "a.off", text), "OFF")
            assert err.value.line == line, text


class TestLoadXyz:
    def test_two_points(self, tmp_path):
        path = write(tmp_path / "a.xyz", "0 0 0\n1 0 0\n")
        cloud = load_cloud(path, "XYZ")
        assert cloud.n_points == 2
        np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 0, 0]])

    def test_comments_and_blank_lines(self, tmp_path):
        path = write(tmp_path / "a.xyz", "# header\n\n0 0 1  # trailing\n2 0 0\n")
        cloud = load_cloud(path, "XYZ")
        np.testing.assert_array_equal(cloud.points, [[0, 0, 1], [2, 0, 0]])

    def test_extra_columns_ignored(self, tmp_path):
        path = write(tmp_path / "a.xyz", "1 2 3 0.5 0.5 0.5\n")
        np.testing.assert_array_equal(load_cloud(path, "XYZ").points, [[1, 2, 3]])

    def test_short_line(self, tmp_path):
        # (text, physical line of the fault)
        cases = [("1 2\n", 1),
                 ("# header\n0 0 0\n\n1 2\n", 4),  # after a blank line
                 ("# header\n0 0 0\n# note\n\n1 2 oops\n", 5),  # non-numeric
                 (b"0 0 0\n1 1 \xff\n", 2)]  # not UTF-8
        for text, line in cases:
            with pytest.raises(ParseError) as err:
                load_cloud(write(tmp_path / "a.xyz", text), "XYZ")
            assert err.value.line == line, text


class TestLoadPly:
    def test_sphere_sample_round_trip(self, tmp_path, rng):
        # Scripted oracle: generate 2048 unit-sphere points and write the
        # PLY by hand, independent of the package's writers.
        pts = rng.normal(size=(2048, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        lines = ["ply", "format ascii 1.0", "element vertex 2048",
                 "property float x", "property float y", "property float z",
                 "end_header"]
        lines += [f"{p[0]:.9f} {p[1]:.9f} {p[2]:.9f}" for p in pts]
        path = write(tmp_path / "a.ply", "\n".join(lines) + "\n")
        cloud = load_cloud(path, "PLY_ASCII")
        assert cloud.n_points == 2048
        assert np.linalg.norm(cloud.points, axis=1).max() <= 1 + 1e-6

    def test_extra_properties_and_faces(self, tmp_path):
        vertex = ("element vertex 2\n"
                  "property float x\nproperty float y\nproperty float z\n"
                  "property uchar red\nproperty uchar green\nproperty uchar blue\n")
        face = "element face 1\nproperty list uchar int vertex_indices\n"
        head = "ply\nformat ascii 1.0\ncomment made by hand\n"
        vertex_rows, face_rows = "0 0 0 255 0 0\n1 1 1 0 255 0\n", "3 0 1 0\n"
        # faces declared after the vertices, then before them
        for text in (head + vertex + face + "end_header\n" + vertex_rows + face_rows,
                     head + face + vertex + "end_header\n" + face_rows + "# note\n\n" + vertex_rows):
            cloud = load_cloud(write(tmp_path / "a.ply", text), "PLY_ASCII")
            np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 1, 1]])

    def test_malformed_vertex_reports_line(self, tmp_path):
        # (vertex rows starting on line 9, physical line of the fault)
        cases = [
            ("0 0 0 1\n1 1 1\n2 2 2 3\n", 10),  # a row with too few fields
            ("0 0 0 1\n# note\n\n1 1 1 2 5\n2 2 2 3\n", 12),  # too many, after a comment and a blank line
            ("0 0 0 1\n1 oops 1 2\n2 2 2 3\n", 10),
            ("0 0 0 1\n1 1 1 oops\n2 2 2 3\n", 10),  # a non-coordinate column must be numeric too
            ("0 0 0 1\n\n1 1 1 2\n", 11),  # ends before the declared count
        ]
        for rows, line in cases:
            with pytest.raises(ParseError) as err:
                load_cloud(write(tmp_path / "a.ply", PLY_XYZ_RED + rows), "PLY_ASCII")
            assert err.value.line == line, rows

    def test_binary_rejected(self, tmp_path):
        text = "ply\nformat binary_little_endian 1.0\nelement vertex 1\nend_header\n"
        with pytest.raises(ParseError):
            load_cloud(write(tmp_path / "a.ply", text), "PLY_ASCII")

    def test_missing_axis(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property float x\nproperty float y\nend_header\n0 0\n")
        with pytest.raises(ParseError):
            load_cloud(write(tmp_path / "a.ply", text), "PLY_ASCII")
        # other malformed headers, with the line of the fault: a negative
        # count, a truncated property line, bytes that are not UTF-8
        xyz = "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n"
        cases = [("ply\nformat ascii 1.0\nelement vertex -1\n" + xyz, 3),
                 ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float\n" + xyz, 4),
                 (b"ply\nformat ascii 1.0\ncomment caf\xe9\nelement vertex 1\n" + xyz.encode(), 3)]
        for text, line in cases:
            with pytest.raises(ParseError) as err:
                load_cloud(write(tmp_path / "a.ply", text), "PLY_ASCII")
            assert err.value.line == line, text


class TestLoadBitEquality:
    @pytest.mark.parametrize("fmt", ["OFF", "PLY_ASCII", "XYZ"])
    def test_matches_float_reference(self, tmp_path, rng, fmt):
        # %.9f rows with extra columns, CRLF endings, and comment and blank
        # lines inside the vertex block, against Python's float() per token.
        pts = rng.normal(size=(500, 3)) * rng.uniform(1e-3, 1e3, size=(500, 1))
        extra = rng.uniform(size=(500, 3))
        rows = [f"{p[0]:.9f} {p[1]:.9f} {p[2]:.9f} {e[0]:.4f} {e[1]:.4f} {e[2]:.4f}"
                for p, e in zip(pts, extra)]
        for i in range(len(rows) - 1, 0, -97):
            rows[i:i] = ["# block comment", ""]
        head = {"OFF": ["OFF", "# counts follow", "500 0 0"],
                "PLY_ASCII": ["ply", "format ascii 1.0", "element vertex 500", "property float x",
                              "property float y", "property float z", "property float nx",
                              "property float ny", "property float nz", "end_header"],
                "XYZ": ["# x y z nx ny nz"]}[fmt]
        path = tmp_path / "c.txt"
        path.write_bytes("\r\n".join(head + rows + [""]).encode())
        reference = [[float(t) for t in row.split()[:3]] for row in rows if row and row[0] != "#"]
        got = load_cloud(path, fmt).points
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == np.array(reference, dtype=np.float64).tobytes()


class TestNormalize:
    def test_two_point_symmetry(self):
        cloud = normalize(PointCloud(np.array([[1.0, 1, 1], [3, 1, 1]])))
        np.testing.assert_allclose(cloud.points, [[-1, 0, 0], [1, 0, 0]], atol=1e-15)

    def test_single_point_goes_to_origin(self):
        cloud = normalize(PointCloud(np.array([[5.0, 5, 5]])))
        np.testing.assert_array_equal(cloud.points, [[0, 0, 0]])

    def test_coincident_points_go_to_origin(self):
        cloud = normalize(PointCloud(np.full((4, 3), 2.5)))
        np.testing.assert_array_equal(cloud.points, np.zeros((4, 3)))

    def test_random_cloud_statistics(self, rng):
        cloud = normalize(PointCloud(rng.normal(size=(100, 3)) * 3 + 1))
        assert np.linalg.norm(cloud.points.mean(axis=0)) < 1e-9
        max_norm = np.linalg.norm(cloud.points, axis=1).max()
        assert 1 - 1e-9 <= max_norm <= 1 + 1e-9

    def test_idempotent(self, rng):
        once = normalize(PointCloud(rng.normal(size=(50, 3))))
        twice = normalize(once)
        assert np.abs(twice.points - once.points).max() <= 1e-9


class TestDownsample:
    def test_full_sample_is_permutation(self, rng):
        pts = rng.normal(size=(5, 3))
        out = downsample_random(PointCloud(pts), 5, seed=3)
        assert sorted(map(tuple, out.points)) == sorted(map(tuple, pts))

    def test_upsample_uses_only_input_points(self, rng):
        pts = rng.normal(size=(3, 3))
        out = downsample_random(PointCloud(pts), 6, seed=3)
        assert out.n_points == 6
        rows = {tuple(p) for p in pts}
        assert all(tuple(p) in rows for p in out.points)

    def test_deterministic_for_fixed_seed(self, rng):
        cloud = PointCloud(rng.normal(size=(4096, 3)))
        a = downsample_random(cloud, 2048, seed=7)
        b = downsample_random(cloud, 2048, seed=7)
        np.testing.assert_array_equal(a.points, b.points)

    def test_seed_changes_sample(self, rng):
        cloud = PointCloud(rng.normal(size=(256, 3)))
        a = downsample_random(cloud, 64, seed=1)
        b = downsample_random(cloud, 64, seed=2)
        assert not np.array_equal(a.points, b.points)


class TestExport:
    def test_color_rows(self, tmp_path):
        cloud = PointCloud(np.array([[0.0, 0, 0], [1, 1, 1]]))
        labeled = LabeledCloud(cloud, [0, 1], [1.0, 1.0])
        path = tmp_path / "out.ply"
        export_labeled_ply(labeled, path, [(255, 0, 0), (0, 255, 0)])
        data_lines = path.read_text().splitlines()[-2:]
        assert data_lines[0].endswith("255 0 0")
        assert data_lines[1].endswith("0 255 0")

    def test_round_trip_positions(self, tmp_path, rng):
        cloud = PointCloud(rng.uniform(-1, 1, size=(64, 3)))
        labeled = LabeledCloud.from_soft_labels(cloud, rng.dirichlet(np.ones(64), size=64))
        path = tmp_path / "out.ply"
        export_labeled_ply(labeled, path, default_palette(64))
        back = load_cloud(path, "PLY_ASCII")
        assert back.n_points == 64
        assert np.abs(back.points - cloud.points).max() < 1e-6

    def test_palette_too_short(self, tmp_path):
        cloud = PointCloud(np.zeros((2, 3)))
        labeled = LabeledCloud(cloud, [0, 3], [1.0, 1.0])
        with pytest.raises(ShapeError):
            export_labeled_ply(labeled, tmp_path / "out.ply", [(0, 0, 0)])


class TestSaveCloud:
    @pytest.mark.parametrize("fmt,suffix", [("OFF", ".off"), ("PLY_ASCII", ".ply"), ("XYZ", ".xyz")])
    def test_round_trip_each_format(self, tmp_path, rng, fmt, suffix):
        cloud = PointCloud(ball_points(rng, 40))
        path = tmp_path / f"c{suffix}"
        save_cloud(cloud, path, fmt)
        back = load_cloud(path)  # format inferred from extension
        assert back.n_points == 40
        assert np.abs(back.points - cloud.points).max() < 1e-6


class TestLabeledCloud:
    def test_from_soft_labels_argmax_and_confidence(self):
        cloud = PointCloud(np.zeros((2, 3)))
        gamma = np.array([[0.9, 0.1], [0.3, 0.7]])
        labeled = LabeledCloud.from_soft_labels(cloud, gamma)
        np.testing.assert_array_equal(labeled.labels, [0, 1])
        np.testing.assert_allclose(labeled.confidences, [0.9, 0.7])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            LabeledCloud(PointCloud(np.zeros((2, 3))), [0], [1.0])
