"""Blob generation, stratified splitting, and CSV round-trips."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import proxymark as pm
from proxymark.data import class_centers
from proxymark.errors import DatasetParseError, InputError


class TestMakeBlobs:
    def test_shapes_and_labels(self):
        d = pm.make_blobs(4, 3, 10, 0.5, seed=0)
        assert d.n == 40
        assert d.dim == 3
        assert d.num_classes == 4
        assert sorted(np.unique(d.labels)) == [0, 1, 2, 3]
        assert np.all(np.bincount(d.labels) == 10)

    def test_deterministic_in_seed(self):
        a = pm.make_blobs(3, 2, 5, 1.0, seed=42)
        b = pm.make_blobs(3, 2, 5, 1.0, seed=42)
        assert np.array_equal(a.features, b.features)

    def test_zero_spread_sits_on_centers(self):
        d = pm.make_blobs(3, 2, 2, 0.0, seed=0)
        centers = class_centers(3, 2)
        np.testing.assert_allclose(d.features, centers[d.labels])

    def test_centers_on_radius_three_circle(self):
        centers = class_centers(5, 4)
        np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 3.0)
        assert np.all(centers[:, 2:] == 0.0)

    def test_validation(self):
        with pytest.raises(InputError):
            pm.make_blobs(2, 2, 5, 1.0, seed=0)
        with pytest.raises(InputError):
            pm.make_blobs(3, 1, 5, 1.0, seed=0)
        with pytest.raises(InputError):
            pm.make_blobs(3, 2, 0, 1.0, seed=0)
        with pytest.raises(InputError):
            pm.make_blobs(3, 2, 5, -1.0, seed=0)


class TestDataset:
    def test_rejects_bad_labels(self):
        with pytest.raises(InputError):
            pm.Dataset(np.zeros((2, 2)), np.array([0, 3]), 3)
        with pytest.raises(InputError):
            pm.Dataset(np.zeros((2, 2)), np.array([-1, 0]), 3)

    def test_rejects_nonfinite_features(self):
        with pytest.raises(InputError):
            pm.Dataset(np.array([[np.inf, 0.0]]), np.array([0]), 3)

    def test_subset_preserves_rows(self):
        d = pm.make_blobs(3, 2, 4, 1.0, seed=1)
        sub = d.subset([0, 5, 7])
        assert sub.n == 3
        assert np.array_equal(sub.features[1], d.features[5])


class TestSplit:
    @given(
        frac=st.floats(0.2, 0.8),
        seed=st.integers(0, 2**31),
        per_class=st.integers(4, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, frac, seed, per_class):
        assume(1 <= int(frac * per_class) < per_class)
        d = pm.make_blobs(3, 2, per_class, 1.0, seed=0)
        train, hold = pm.split(d, pm.SplitSpec(frac, seed))
        assert train.n + hold.n == d.n
        # both parts, concatenated and re-sorted, recover the original rows
        rows = {tuple(r) for r in d.features}
        got = {tuple(r) for r in np.vstack([train.features, hold.features])}
        assert got == rows
        # stratification: each class keeps floor(frac * count) rows in holdout
        for c in range(3):
            assert np.sum(hold.labels == c) == int(frac * per_class)

    def test_deterministic(self):
        d = pm.make_blobs(3, 2, 10, 1.0, seed=0)
        a_train, a_hold = pm.split(d, pm.SplitSpec(0.5, 9))
        b_train, b_hold = pm.split(d, pm.SplitSpec(0.5, 9))
        assert np.array_equal(a_hold.features, b_hold.features)
        assert np.array_equal(a_train.features, b_train.features)

    def test_empty_side_rejected(self):
        d = pm.make_blobs(3, 2, 2, 1.0, seed=0)
        with pytest.raises(InputError):
            pm.split(d, pm.SplitSpec(0.2, 0))  # floor(0.4) = 0 per class

    def test_fraction_bounds(self):
        with pytest.raises(InputError):
            pm.SplitSpec(0.0)
        with pytest.raises(InputError):
            pm.SplitSpec(1.0)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        d = pm.make_blobs(4, 3, 7, 1.3, seed=5)
        path = tmp_path / "data.csv"
        pm.save_csv(d, path)
        loaded = pm.load_csv(path)
        assert np.array_equal(loaded.features, d.features)
        assert np.array_equal(loaded.labels, d.labels)
        assert loaded.num_classes == d.num_classes

    def test_labels_one_based_on_disk(self, tmp_path):
        d = pm.make_blobs(3, 2, 2, 0.0, seed=0)
        path = tmp_path / "data.csv"
        pm.save_csv(d, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "y,x1,x2"
        assert lines[1].startswith("1,")
        assert {line.split(",")[0] for line in lines[1:]} == {"1", "2", "3"}

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1,x2\n1,0.0,0.0\n2,oops,0.0\n")
        with pytest.raises(DatasetParseError) as err:
            pm.load_csv(path)
        assert err.value.line == 3

    def test_wrong_cell_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1,x2\n1,0.0\n")
        with pytest.raises(DatasetParseError) as err:
            pm.load_csv(path)
        assert err.value.line == 2

    def test_zero_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1,x2\n0,0.0,0.0\n")
        with pytest.raises(DatasetParseError):
            pm.load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("y,x1,x2\n")
        with pytest.raises(DatasetParseError):
            pm.load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,x1\n1,0.0\n")
        with pytest.raises(DatasetParseError):
            pm.load_csv(path)
