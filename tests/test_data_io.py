"""File-format checks: feature matrices, label lines, embedding files, and
grouping serialization."""


import numpy as np
import pytest
from npy_faults import FAULTS, fault_bytes, npy_bytes, refusal

from wrot.data_io import (
    Dataset,
    load_dataset,
    load_embedding_file,
    load_embeddings,
    make_grouping,
    save_features,
    save_labels,
)


def write_labels(path, rows):
    save_labels(path, np.asarray(rows))


def simple_labels_file(tmp_path, n=3):
    path = tmp_path / "labels.txt"
    rows = np.zeros((n, 2), dtype=int)
    rows[:, 0] = 1
    rows[-1] = (0, 1)
    write_labels(path, rows)
    return path, rows


class TestFeatureFiles:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(5, 3))
        fpath = tmp_path / "features.bin"
        save_features(fpath, features)
        lpath, rows = simple_labels_file(tmp_path, n=5)
        ds = load_dataset(fpath, lpath)
        # the .npy payload is float32
        np.testing.assert_allclose(ds.features, features, atol=1e-6)

    @pytest.mark.parametrize("value", [1e39, -3.5e38, 3.4028236e38])
    def test_entries_beyond_float32_refused_before_writing(self, tmp_path, value):
        """Cast to float32 they would be written as infinite, which
        load_dataset refuses; the largest float32 itself is written."""
        fpath = tmp_path / "features.npy"
        message = r"^features has an entry beyond the float32 range of ±3\.4028235e\+38$"
        with pytest.raises(ValueError, match=message):
            save_features(fpath, [[value, 1.0]])
        assert not fpath.exists()
        largest = float(np.finfo(np.float32).max)
        save_features(fpath, [[largest, -largest]])
        lpath, _ = simple_labels_file(tmp_path, n=1)
        assert load_dataset(fpath, lpath).features.tolist() == [[largest, -largest]]

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(4, 6))
        fpath = tmp_path / "features.csv"
        np.savetxt(fpath, features, fmt="%.17g", delimiter=",")
        lpath, _ = simple_labels_file(tmp_path, n=4)
        ds = load_dataset(fpath, lpath)
        np.testing.assert_array_equal(ds.features, features)

    def test_truncated_binary_rejected(self, tmp_path):
        """A payload 3 bytes short, or 1 byte long, is refused by its size."""
        fpath = tmp_path / "features.npy"
        save_features(fpath, np.ones((3, 2)))
        blob = fpath.read_bytes()
        lpath, _ = simple_labels_file(tmp_path)
        for damaged, size in [(blob[:-3], 21), (blob + b"\x00", 25)]:
            fpath.write_bytes(damaged)
            with pytest.raises(ValueError, match=f"payload is {size} bytes, expected 24"):
                load_dataset(fpath, lpath)

    def test_truncated_header_rejected(self, tmp_path):
        fpath = tmp_path / "features.npy"
        save_features(fpath, np.ones((3, 2)))
        fpath.write_bytes(fpath.read_bytes()[:9])
        lpath, _ = simple_labels_file(tmp_path)
        with pytest.raises(ValueError, match="truncated or unsupported .npy header"):
            load_dataset(fpath, lpath)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_damaged_or_foreign_file_rejected_by_path(self, tmp_path, fault):
        fpath = tmp_path / "features.npy"
        fpath.write_bytes(fault_bytes(npy_bytes(np.ones((3, 2), "<f4")), "<f4")[fault])
        lpath, _ = simple_labels_file(tmp_path)
        with pytest.raises(ValueError, match=refusal(fpath, "<f4", fault)):
            load_dataset(fpath, lpath)

    def test_csv_bad_value_reports_line(self, tmp_path):
        fpath = tmp_path / "features.csv"
        fpath.write_text("1.0,2.0\n1.0,oops\n")
        lpath, _ = simple_labels_file(tmp_path, n=2)
        with pytest.raises(ValueError, match=":2"):
            load_dataset(fpath, lpath)

    def test_csv_ragged_row_rejected(self, tmp_path):
        fpath = tmp_path / "features.csv"
        fpath.write_text("1.0,2.0\n3.0\n")
        lpath, _ = simple_labels_file(tmp_path, n=2)
        with pytest.raises(ValueError, match="expected 2"):
            load_dataset(fpath, lpath)

    def test_empty_feature_file_rejected(self, tmp_path):
        fpath = tmp_path / "features.csv"
        fpath.write_text("\n\n")
        lpath, _ = simple_labels_file(tmp_path)
        with pytest.raises(ValueError, match="empty feature file"):
            load_dataset(fpath, lpath)

    def test_empty_binary_feature_file_rejected(self, tmp_path):
        fpath = tmp_path / "features.npy"
        save_features(fpath, np.zeros((0, 3)))
        lpath = tmp_path / "labels.txt"
        lpath.write_text("")
        with pytest.raises(ValueError, match=r"<f4 data of shape \(0, 3\), expected a nonempty"):
            load_dataset(fpath, lpath)

    def test_binary_garbage_rejected(self, tmp_path):
        fpath = tmp_path / "features.bin"
        fpath.write_bytes(bytes([0xFF, 0xFE, 0x01, 0x02]) * 4)
        lpath, _ = simple_labels_file(tmp_path)
        with pytest.raises(ValueError, match="not a feature file"):
            load_dataset(fpath, lpath)


class TestLabelFiles:
    def features_for(self, tmp_path, n, m=2):
        fpath = tmp_path / "features.csv"
        np.savetxt(fpath, np.arange(float(n * m)).reshape(n, m), fmt="%.17g", delimiter=",")
        return fpath

    def test_indicator_round_trip(self, tmp_path):
        """Integer, bool and float indicators load back as the same rows."""
        indicator = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1]])
        lpath = tmp_path / "labels.txt"
        for dtype in (int, bool, float):
            write_labels(lpath, indicator.astype(dtype))
            ds = load_dataset(self.features_for(tmp_path, 3), lpath, num_labels=3)
            np.testing.assert_array_equal(ds.labels, indicator)

    @pytest.mark.parametrize(
        "labels, message",
        [
            # written as "1\t", which the reader refuses as a malformed line
            ([[1, 0], [0, 0]], "labels: instance 1 has zero labels"),
            # written as labels 0 and 1, which read back as 1
            ([[2, 0], [0.5, 1]], "labels must hold only 0 or 1 entries"),
            # numpy's "Calling nonzero on 0d arrays"
            ([1, 0, 1], "labels must be a 2-d indicator array"),
        ],
    )
    def test_save_labels_refuses_what_load_dataset_cannot_read(self, tmp_path, labels, message):
        lpath = tmp_path / "labels.txt"
        with pytest.raises(ValueError, match=message):
            save_labels(lpath, np.array(labels))
        assert not lpath.exists()

    def test_label_count_inferred_from_max_index(self, tmp_path):
        lpath = tmp_path / "labels.txt"
        lpath.write_text("0\t0\n1\t4\n")
        ds = load_dataset(self.features_for(tmp_path, 2), lpath)
        assert ds.n_labels == 5
        assert ds.label_names == tuple(f"label_{j}" for j in range(5))

    def test_duplicate_instance_rejected(self, tmp_path):
        lpath = tmp_path / "labels.txt"
        lpath.write_text("0\t0\n0\t1\n")
        with pytest.raises(ValueError, match="duplicate instance index 0"):
            load_dataset(self.features_for(tmp_path, 2), lpath)

    def test_unlabeled_instance_rejected(self, tmp_path):
        lpath = tmp_path / "labels.txt"
        lpath.write_text("0\t0\n1\t,\n")
        with pytest.raises(ValueError, match="zero labels"):
            load_dataset(self.features_for(tmp_path, 2), lpath)

    def test_missing_instance_rejected(self, tmp_path):
        lpath = tmp_path / "labels.txt"
        lpath.write_text("0\t0\n")
        with pytest.raises(ValueError, match="instance 1 has zero labels"):
            load_dataset(self.features_for(tmp_path, 2), lpath)

    def test_out_of_range_label_rejected(self, tmp_path):
        lpath = tmp_path / "labels.txt"
        lpath.write_text("0\t0\n1\t7\n")
        with pytest.raises(ValueError, match="out of range"):
            load_dataset(self.features_for(tmp_path, 2), lpath, num_labels=3)

    def test_negative_label_rejected(self, tmp_path):
        lpath = tmp_path / "labels.txt"
        lpath.write_text("0\t0\n1\t-2\n")
        with pytest.raises(ValueError, match="negative label index"):
            load_dataset(self.features_for(tmp_path, 2), lpath)

    def test_instance_index_out_of_range(self, tmp_path):
        lpath = tmp_path / "labels.txt"
        lpath.write_text("0\t0\n5\t1\n")
        with pytest.raises(ValueError, match="instance index 5 out of range"):
            load_dataset(self.features_for(tmp_path, 2), lpath)

    def test_malformed_line_rejected(self, tmp_path):
        lpath = tmp_path / "labels.txt"
        lpath.write_text("0 0\n")
        with pytest.raises(ValueError, match="expected 'index<TAB>labels'"):
            load_dataset(self.features_for(tmp_path, 1), lpath)

    def test_name_count_disagreement_rejected(self, tmp_path):
        lpath = tmp_path / "labels.txt"
        lpath.write_text("0\t0\n")
        with pytest.raises(ValueError, match="disagrees"):
            load_dataset(
                self.features_for(tmp_path, 1),
                lpath,
                label_names=("a", "b"),
                num_labels=3,
            )


class TestDatasetValidation:
    def test_shape_and_content_checks(self):
        with pytest.raises(ValueError, match="2-d indicator"):
            Dataset(features=np.ones((2, 2)), labels=np.ones(2), label_names=("a",))
        with pytest.raises(ValueError, match="cover"):
            Dataset(
                features=np.ones((2, 2)),
                labels=np.ones((3, 1), dtype=int),
                label_names=("a",),
            )
        with pytest.raises(ValueError, match="0 or 1"):
            Dataset(
                features=np.ones((1, 2)),
                labels=np.array([[2]]),
                label_names=("a",),
            )
        with pytest.raises(ValueError, match="instance 0 has zero labels"):
            Dataset(
                features=np.ones((1, 2)),
                labels=np.array([[0, 0]]),
                label_names=("a", "b"),
            )
        with pytest.raises(ValueError, match="label names"):
            Dataset(
                features=np.ones((1, 2)),
                labels=np.array([[1, 0]]),
                label_names=("a",),
            )

    def test_properties(self):
        ds = Dataset(
            features=np.ones((4, 7)),
            labels=np.tile([1, 0], (4, 1)),
            label_names=("a", "b"),
        )
        assert (ds.n_instances, ds.n_features, ds.n_labels) == (4, 7, 2)


def write_embedding_file(path, entries):
    dim = len(next(iter(entries.values())))
    lines = [f"{len(entries)} {dim}"]
    for token, vec in entries.items():
        lines.append(token + " " + " ".join(repr(float(v)) for v in vec))
    path.write_text("\n".join(lines) + "\n")


class TestEmbeddingFiles:
    def test_exact_token_resolution(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_embedding_file(path, {"cat": [3.0, 4.0], "dog": [1.0, 0.0]})
        rows = load_embeddings(path, ["dog", "cat"])
        np.testing.assert_allclose(rows, [[1.0, 0.0], [0.6, 0.8]], atol=1e-15)

    def test_underscore_resolution(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_embedding_file(
            path, {"siamese_cat": [0.0, 2.0], "siamese": [9.0, 9.0], "cat": [9.0, 9.0]}
        )
        rows = load_embeddings(path, ["siamese cat"])
        np.testing.assert_allclose(rows, [[0.0, 1.0]], atol=1e-15)

    def test_constituent_mean_fallback(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_embedding_file(path, {"big": [2.0, 0.0], "dog": [0.0, 4.0]})
        rows = load_embeddings(path, ["big dog"])
        mean = np.array([1.0, 2.0])
        np.testing.assert_allclose(rows, [mean / np.linalg.norm(mean)], atol=1e-15)

    def test_missing_constituent_reported(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_embedding_file(path, {"big": [1.0, 0.0]})
        with pytest.raises(ValueError, match="missing constituents: wolf"):
            load_embeddings(path, ["big wolf"])

    def test_rows_are_unit_norm(self, tmp_path):
        path = tmp_path / "emb.txt"
        rng = np.random.default_rng(3)
        write_embedding_file(
            path, {f"t{i}": rng.normal(size=4) * 10 for i in range(5)}
        )
        rows = load_embeddings(path, [f"t{i}" for i in range(5)])
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_load_embedding_file_order(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_embedding_file(path, {"b": [2.0, 0.0], "a": [0.0, 5.0]})
        names, matrix = load_embedding_file(path)
        assert names == ["b", "a"]
        np.testing.assert_allclose(matrix, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_header_and_row_errors(self, tmp_path):
        path = tmp_path / "emb.txt"
        for header in ("", "2", "a b", "3 2 1", "3 2.0"):
            path.write_text(f"{header}\n")
            with pytest.raises(ValueError, match=r":1: header must be 'count dim'$"):
                load_embedding_file(path)
        path.write_text("2 2\ncat 1.0 2.0\n")
        with pytest.raises(ValueError, match="declares 2"):
            load_embedding_file(path)
        path.write_text("1 2\ncat 1.0\n")
        with pytest.raises(ValueError, match="expected token"):
            load_embedding_file(path)
        path.write_text("1 2\ncat 1.0 nope\n")
        with pytest.raises(ValueError, match="bad float"):
            load_embedding_file(path)
        path.write_text("1 2\ncat 1.0 inf\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_embedding_file(path)
        path.write_text("2 2\ncat 1.0 2.0\ncat 3.0 4.0\n")
        with pytest.raises(ValueError, match="duplicate token"):
            load_embedding_file(path)
        path.write_text("1 2\ncat 0.0 0.0\n")
        with pytest.raises(ValueError, match="zero embedding"):
            load_embedding_file(path)

    @pytest.mark.parametrize("scale", ["1e-200", "1e200"])
    def test_rows_beyond_the_squared_sum_range_are_normalized(self, tmp_path, scale):
        """The squared sum of ``1e-200`` underflows and that of ``1e200``
        overflows; both rows still normalize to ``[1, 0]``, without a
        warning, and so do they as a multi-word mean."""
        path = tmp_path / "emb.txt"
        path.write_text(f"2 2\na {scale} 0\nb {scale} 0\n")
        assert np.array_equal(load_embedding_file(path)[1], [[1.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(load_embeddings(path, ["a", "a b"]), [[1.0, 0.0], [1.0, 0.0]])


class TestGroupings:
    def test_deterministic_per_seed(self):
        a = make_grouping(10, 4, seed=5)
        b = make_grouping(10, 4, seed=5)
        c = make_grouping(10, 4, seed=6)
        np.testing.assert_array_equal(a.permutation, b.permutation)
        assert not np.array_equal(a.permutation, c.permutation)

    def test_shape_arithmetic(self):
        g = make_grouping(6, 3, seed=0)
        assert (g.rows_per_group, g.pad, g.padded_dim) == (2, 0, 6)
        g = make_grouping(5, 2, seed=0)
        assert (g.rows_per_group, g.pad, g.padded_dim) == (3, 1, 6)

    def test_infeasible_padding_rejected(self):
        # 7 features in 5 groups would need a group of pure padding
        with pytest.raises(ValueError, match="pad"):
            make_grouping(7, 5, seed=0)
