"""Synthetic generator invariants, IDX and CSV round-trips, and the label barrier."""

import ast
from pathlib import Path

import numpy as np
import pytest

from collabsc.data import (SyntheticSpec, generate_synthetic, load_dataset_csv, load_idx,
                           load_labels_csv, save_dataset_csv, write_idx_images,
                           write_idx_labels)

from oracles import unscale


class TestSyntheticSpecValidation:
    def test_rejects_small_ambient_dimension(self):
        with pytest.raises(ValueError, match=r"D >= d\*k"):
            SyntheticSpec(k=4, d=3, D=10, n_per=5)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match=r"n_per >= d\+1"):
            SyntheticSpec(k=2, d=3, D=10, n_per=3)

    def test_rejects_unknown_warp(self):
        with pytest.raises(ValueError, match="nonlinearity"):
            SyntheticSpec(k=2, d=2, D=10, n_per=5, nonlinearity="spiral")

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            SyntheticSpec(k=2, d=2, D=10, n_per=5, noise_sigma=-1.0)


    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["noise_sigma", "concentration"])
    def test_rejects_non_finite_scale(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(k=2, d=2, D=10, n_per=5, **{field: value})

    def test_rejects_negative_seed(self):
        # the generator masks its seed to 64 bits, so -1 would alias 2**64 - 1
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SyntheticSpec(k=2, d=2, D=10, n_per=5, seed=-1)


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(k=3, d=2, D=12, n_per=10, noise_sigma=0.1,
                             nonlinearity="tanh-warp", seed=42)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert (a.features == b.features).all()
        assert (a.labels_for_evaluation() == b.labels_for_evaluation()).all()

    def test_different_seeds_differ(self):
        base = dict(k=2, d=2, D=8, n_per=6)
        a = generate_synthetic(SyntheticSpec(seed=1, **base))
        b = generate_synthetic(SyntheticSpec(seed=2, **base))
        assert not (a.features == b.features).all()

    def test_scaled_to_unit_interval(self):
        ds = generate_synthetic(SyntheticSpec(k=3, d=3, D=30, n_per=20, seed=3))
        assert ds.features.min() >= 0.0
        assert ds.features.max() <= 1.0

    def test_noiseless_points_lie_in_their_subspace(self):
        spec = SyntheticSpec(k=3, d=3, D=24, n_per=12, noise_sigma=0.0,
                             nonlinearity="none", seed=5)
        ds = generate_synthetic(spec)
        raw = unscale(ds)
        bases = ds.provenance["bases"]
        labels = ds.labels_for_evaluation()
        for i in range(len(ds)):
            basis = bases[labels[i]]
            residual = raw[i] - basis @ (basis.T @ raw[i])
            assert float(np.abs(residual).max()) < 1e-10

    def test_noiseless_self_expressiveness_within_cluster(self):
        spec = SyntheticSpec(k=2, d=3, D=15, n_per=10, noise_sigma=0.0,
                             nonlinearity="none", seed=8)
        ds = generate_synthetic(spec)
        raw = unscale(ds)
        labels = ds.labels_for_evaluation()
        for i in range(len(ds)):
            same_idx = np.flatnonzero(labels == labels[i])
            others = raw[same_idx[same_idx != i]]
            coeffs, *_ = np.linalg.lstsq(others.T, raw[i], rcond=None)
            residual = raw[i] - others.T @ coeffs
            assert float(np.sqrt((residual * residual).sum())) < 1e-8

    def test_warp_is_monotone_elementwise(self):
        from collabsc.data import _warp
        x = np.linspace(-3, 3, 101)
        for kind in ("none", "tanh-warp", "square-warp"):
            y = _warp(x, kind)
            assert (np.diff(y) > 0).all()

    def test_labels_match_block_structure(self):
        ds = generate_synthetic(SyntheticSpec(k=3, d=2, D=10, n_per=4, seed=0))
        assert list(ds.labels_for_evaluation()) == [0] * 4 + [1] * 4 + [2] * 4


class TestIdx:
    def test_round_trip(self, tmp_path):
        images = (np.arange(2 * 3 * 4) % 251).reshape(2, 3, 4).astype(np.uint8)
        labels = np.array([7, 2])
        ipath, lpath = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        write_idx_images(ipath, images)
        write_idx_labels(lpath, labels)
        ds = load_idx(ipath, lpath)
        assert len(ds) == 2
        assert ds.feature_shape == (1, 3, 4)
        np.testing.assert_allclose(ds.features.reshape(2, 3, 4) * 255.0, images)
        assert list(ds.labels_for_evaluation()) == [7, 2]
        # write-then-read byte identity
        ipath2 = tmp_path / "imgs2.idx"
        write_idx_images(ipath2, (ds.features.reshape(2, 3, 4) * 255.0).round().astype(np.uint8))
        assert ipath.read_bytes() == ipath2.read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.int64)
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ipath, images)
        write_idx_labels(lpath, labels)
        with pytest.raises(ValueError, match="bad magic 0x00000803"):
            load_idx(ipath, ipath)  # images file passed as labels
        with pytest.raises(ValueError, match="bad magic 0x00000801"):
            load_idx(lpath, lpath)  # labels file passed as images

    def test_truncated_payload_reports_offset(self, tmp_path):
        ipath = tmp_path / "t.idx"
        write_idx_images(ipath, np.zeros((2, 3, 3), dtype=np.uint8))
        ipath.write_bytes(ipath.read_bytes()[:-5])
        lpath = tmp_path / "l.idx"
        write_idx_labels(lpath, np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="offset"):
            load_idx(ipath, lpath)

    @pytest.mark.parametrize("which, keep, message", [
        ("images", 10, "truncated rows at offset 8"),
        ("images", 2, "truncated magic at offset 0"),
        ("labels", 6, "truncated count at offset 4")])
    def test_truncated_header_names_field_and_offset(self, tmp_path, which, keep, message):
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ipath, np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx_labels(lpath, np.zeros(2, dtype=np.int64))
        path = ipath if which == "images" else lpath
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError) as raised:
            load_idx(ipath, lpath)
        assert str(raised.value) == f"{path}: {message}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("labels", [[1.5, 2.7], [0.0, np.nan], [-1, 2], [0, 256], [[0, 1]]])
    def test_labels_writer_refuses_values_it_cannot_store(self, tmp_path, labels):
        path = tmp_path / "l.idx"
        with pytest.raises(ValueError, match=r"^labels must be 1-d integers in \[0, 255\]$"):
            write_idx_labels(path, np.array(labels))
        assert not path.exists()

    def test_labels_writer_takes_integral_floats(self, tmp_path):
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ipath, np.zeros((2, 1, 1), dtype=np.uint8))
        write_idx_labels(lpath, np.array([3.0, 255.0]))
        assert list(load_idx(ipath, lpath).labels_for_evaluation()) == [3, 255]

    def test_count_mismatch_rejected(self, tmp_path):
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ipath, np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx_labels(lpath, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="mismatch"):
            load_idx(ipath, lpath)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(k=2, d=2, D=6, n_per=5, seed=2))
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        save_dataset_csv(ds, fpath, lpath)
        loaded = load_dataset_csv(fpath, lpath)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels_for_evaluation(),
                                      ds.labels_for_evaluation())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected_with_its_row(self, tmp_path, value):
        ds = generate_synthetic(SyntheticSpec(k=2, d=2, D=6, n_per=5, seed=2))
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        save_dataset_csv(ds, fpath, lpath)
        rows = fpath.read_text().splitlines()
        for i in (6, 3):  # the message names the first of two bad rows
            rows[i - 1] = ",".join([*rows[i - 1].split(",")[:-1], value])
        fpath.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="row 3 holds a NaN or infinite feature"):
            load_dataset_csv(fpath, lpath)

    def test_negative_label_rejected_with_its_row(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(k=2, d=2, D=6, n_per=5, seed=2))
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        save_dataset_csv(ds, fpath, lpath)
        labels = lpath.read_text().splitlines()
        labels[3], labels[7] = "-1", "-2"
        lpath.write_text("\n".join(labels) + "\n")
        with pytest.raises(ValueError, match="row 4 holds negative label -1"):
            load_dataset_csv(fpath, lpath)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("empty, text", [("features", ""), ("labels", ""),
                                             ("features", "\n"), ("labels", "# none\n\n")])
    def test_empty_file_rejected_with_its_path(self, tmp_path, empty, text):
        # refused before np.loadtxt can warn that the input holds no data
        ds = generate_synthetic(SyntheticSpec(k=2, d=2, D=6, n_per=5, seed=2))
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        save_dataset_csv(ds, fpath, lpath)
        path = fpath if empty == "features" else lpath
        path.write_text(text)
        with pytest.raises(ValueError) as raised:
            load_dataset_csv(fpath, lpath)
        assert str(raised.value) == f"{path}: the {empty} file holds no data"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", ["features", "labels"])
    def test_unparsable_line_rejected_with_its_path(self, tmp_path, bad):
        ds = generate_synthetic(SyntheticSpec(k=2, d=2, D=6, n_per=5, seed=2))
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        save_dataset_csv(ds, fpath, lpath)
        path = fpath if bad == "features" else lpath
        rows = path.read_text().splitlines()
        rows[1] = rows[1].rpartition(",")[0] if bad == "features" else "1.5"
        path.write_text("".join(row + "\n" for row in rows))
        with pytest.raises(ValueError) as numpy_error:  # numpy's own words
            np.loadtxt(path, delimiter="," if bad == "features" else None,
                       dtype=np.float64 if bad == "features" else np.int64)
        with pytest.raises(ValueError) as raised:
            load_dataset_csv(fpath, lpath)
        assert str(raised.value) == f"{path}: {numpy_error.value}"

    @pytest.mark.parametrize("features_text, labels_text", [
        ("1,2\n3,4\n5,6\n", "0\n1\n"), ("1,2\n3,4\n", "0\n1\n0\n")],
        ids=["fewer-labels", "more-labels"])
    def test_row_count_mismatch_names_both_files(self, tmp_path, features_text, labels_text):
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        fpath.write_text(features_text)
        lpath.write_text(labels_text)
        rows, labels = features_text.count("\n"), labels_text.count("\n")
        with pytest.raises(ValueError) as raised:
            load_dataset_csv(fpath, lpath)
        assert str(raised.value) == f"{fpath} has {rows} rows but {lpath} has {labels} labels"

    def test_label_reader_reads_one_integer_per_line(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("2\n0\n1\n")
        labels = load_labels_csv(path)
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, [2, 0, 1])
        path.write_text("3\n")
        np.testing.assert_array_equal(load_labels_csv(path), [3])  # one line is 1-d too

    @pytest.mark.parametrize("text", ["0 1\n", "0 1\n1 0\n"], ids=["one-line", "two-line"])
    def test_label_reader_refuses_several_values_on_a_line(self, tmp_path, text):
        path = tmp_path / "l.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as raised:
            load_labels_csv(path)
        assert str(raised.value) == f"{path}: expected one label per line, got 2 values on a line"


class TestLabelBarrier:
    SRC = Path(__file__).resolve().parents[1] / "src" / "collabsc"

    @classmethod
    def label_accesses(cls):
        """(module, enclosing class/def names, attribute) of every access to
        ``labels_for_evaluation`` or ``_labels`` in the package."""
        found = []

        def visit(node, module, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Attribute) and child.attr in (
                        "labels_for_evaluation", "_labels"):
                    found.append((module, scope, child.attr))
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, module, scope + (child.name,))
                else:
                    visit(child, module, scope)

        for path in sorted(cls.SRC.glob("*.py")):
            visit(ast.parse(path.read_text(), filename=str(path)), path.stem, ())
        return found

    def test_only_evaluation_and_the_dataset_read_labels(self):
        def allowed(module, scope, attr):
            if attr == "labels_for_evaluation":
                return (module, scope) == ("trainer", ("evaluate",))
            return module == "data" and scope[:1] in (("Dataset",), ("save_dataset_csv",))

        accesses = self.label_accesses()
        assert ("trainer", ("evaluate",), "labels_for_evaluation") in accesses
        assert [a for a in accesses if not allowed(*a)] == []
