"""Synthetic datasets and their CSV round-trips."""

import math

import numpy as np
import pytest

from qkonc.datasets import (
    Dataset,
    gen_hypercube,
    gen_uniform,
    load_csv,
    save_csv,
)


class TestDatasetContainer:
    def test_shape_properties(self):
        d = Dataset(np.zeros((7, 3)))
        assert d.count == 7
        assert d.dim == 3
        assert d.labels is None

    def test_rejects_non_2d_inputs(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(np.zeros(5))

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValueError, match="labels shape"):
            Dataset(np.zeros((5, 2)), labels=np.zeros(4))


class TestGenerators:
    def test_uniform_range_and_shape(self):
        rng = np.random.default_rng(42)
        d = gen_uniform(500, 4, rng, low=0.0, high=2.0 * math.pi)
        assert d.inputs.shape == (500, 4)
        assert d.inputs.min() >= 0.0
        assert d.inputs.max() <= 2.0 * math.pi

    def test_uniform_validation(self):
        with pytest.raises(ValueError, match="positive"):
            gen_uniform(0, 3, np.random.default_rng(42))

    def test_hypercube_labels_match_rule(self):
        rng = np.random.default_rng(42)
        d = gen_hypercube(300, 3, rng)
        half_width = math.pi * 2.0 ** (-1.0 / 3.0)
        want = np.where(np.all(np.abs(d.inputs) < half_width, axis=1), 1.0, -1.0)
        np.testing.assert_array_equal(d.labels, want)

    def test_hypercube_classes_are_balanced(self):
        # threshold chosen so P(inside) = 1/2 exactly; check at 4 sigma
        rng = np.random.default_rng(42)
        count = 20000
        for dim in (1, 2, 5):
            d = gen_hypercube(count, dim, rng)
            frac = float(np.mean(d.labels == 1.0))
            assert abs(frac - 0.5) < 4.0 * 0.5 / math.sqrt(count)

    def test_hypercube_deterministic_per_seed(self):
        a = gen_hypercube(50, 2, np.random.default_rng(9))
        b = gen_hypercube(50, 2, np.random.default_rng(9))
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestCsvRoundtrip:
    def test_labeled_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        d = gen_hypercube(20, 3, rng)
        path = tmp_path / "data.csv"
        save_csv(d, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.inputs, d.inputs)
        np.testing.assert_array_equal(back.labels, d.labels)

    def test_unlabeled_roundtrip(self, tmp_path):
        rng = np.random.default_rng(42)
        d = gen_uniform(10, 2, rng)
        path = tmp_path / "data.csv"
        save_csv(d, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.inputs, d.inputs)
        assert back.labels is None

    def test_header_and_line_endings(self, tmp_path):
        d = Dataset(np.array([[1.5, -0.25]]), labels=np.array([1.0]))
        path = tmp_path / "data.csv"
        save_csv(d, path)
        raw = path.read_bytes()
        assert raw.startswith(b"f1,f2,label\n")
        assert b"\r" not in raw

    def test_writes_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        d = gen_uniform(25, 4, rng)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(d, p1)
        save_csv(d, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCsvErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="line 1: empty file"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(ValueError, match="line 1: expected header"):
            load_csv(path)

    def test_short_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="line 3: expected 2 fields"):
            load_csv(path)

    def test_non_numeric_field_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match="line 3: non-numeric"):
            load_csv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("f1,f2\n1.0,2.0\n\n3.0,4.0\n")
        d = load_csv(path)
        np.testing.assert_array_equal(d.inputs, [[1.0, 2.0], [3.0, 4.0]])
