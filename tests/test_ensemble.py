"""Prediction-matrix algebra: validation, combination, ranking, CSV format."""

import numpy as np
import pytest

from attnens.ensemble import (
    AVERAGE,
    WEIGHTED_AVERAGE,
    EnsembleSpec,
    PredictionMatrix,
    accuracy,
    combine,
    per_class_accuracy,
    read_matrix,
    select_best_k,
    write_matrix,
)
from attnens.errors import AlignmentError, ConfigError, MatrixParseError
from reference import accuracy_naive, combine_naive


def random_matrix(rng, name, ids, k=4):
    raw = rng.random((len(ids), k))
    probs = raw / raw.sum(axis=1, keepdims=True)
    return PredictionMatrix(model_name=name, sample_ids=tuple(ids), probs=probs)


IDS = tuple(f"s{i:03d}" for i in range(12))


class TestPredictionMatrix:
    def test_casts_to_double(self):
        probs = np.full((2, 2), 0.5, dtype=np.float32)
        m = PredictionMatrix(model_name="m", sample_ids=("a", "b"), probs=probs)
        assert m.probs.dtype == np.float64

    def test_rejects_row_sum_violation(self):
        probs = np.array([[0.6, 0.6], [0.5, 0.5]])
        with pytest.raises(ConfigError, match="row 0"):
            PredictionMatrix(model_name="m", sample_ids=("a", "b"), probs=probs)

    def test_rejects_negative_entries(self):
        probs = np.array([[1.2, -0.2]])
        with pytest.raises(ConfigError):
            PredictionMatrix(model_name="m", sample_ids=("a",), probs=probs)

    def test_rejects_duplicate_ids(self):
        probs = np.full((2, 2), 0.5)
        with pytest.raises(ConfigError):
            PredictionMatrix(model_name="m", sample_ids=("a", "a"), probs=probs)

    def test_rejects_id_count_mismatch(self):
        probs = np.full((2, 2), 0.5)
        with pytest.raises(ConfigError):
            PredictionMatrix(model_name="m", sample_ids=("a",), probs=probs)

    def test_tolerates_row_sum_within_1e5(self):
        probs = np.array([[0.5 + 4e-6, 0.5]])
        PredictionMatrix(model_name="m", sample_ids=("a",), probs=probs)


class TestCombine:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n_members = int(rng.integers(1, 5))
            mats = [random_matrix(rng, f"m{j}", IDS) for j in range(n_members)]
            weights = rng.uniform(0.1, 3.0, n_members)
            spec = EnsembleSpec(
                members=tuple(zip(mats, weights)), rule=WEIGHTED_AVERAGE
            )
            got = combine(spec)
            ref = combine_naive([m.probs for m in mats], list(weights))
            np.testing.assert_allclose(got.probs, ref, rtol=1e-12, atol=1e-13)

    def test_equal_weight_permutation_invariance(self):
        rng = np.random.default_rng(1)
        mats = [random_matrix(rng, f"m{j}", IDS) for j in range(4)]
        fwd = combine(EnsembleSpec(members=tuple((m, 1.0) for m in mats), rule=AVERAGE))
        rev = combine(EnsembleSpec(members=tuple((m, 1.0) for m in reversed(mats)), rule=AVERAGE))
        np.testing.assert_array_equal(fwd.probs, rev.probs)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(2)
        mats = [random_matrix(rng, f"m{j}", IDS) for j in range(3)]
        w = np.array([2.0, 1.0, 0.5])
        a = combine(EnsembleSpec(members=tuple(zip(mats, w)), rule=WEIGHTED_AVERAGE))
        b = combine(EnsembleSpec(members=tuple(zip(mats, 10 * w)), rule=WEIGHTED_AVERAGE))
        np.testing.assert_allclose(a.probs, b.probs, rtol=1e-12)

    def test_rows_remain_stochastic(self):
        rng = np.random.default_rng(3)
        mats = [random_matrix(rng, f"m{j}", IDS) for j in range(3)]
        out = combine(EnsembleSpec(members=tuple((m, 1.0) for m in mats), rule=AVERAGE))
        np.testing.assert_allclose(out.probs.sum(axis=1), np.ones(len(IDS)), rtol=1e-12)

    def test_single_member_identity(self):
        rng = np.random.default_rng(4)
        m = random_matrix(rng, "solo", IDS)
        out = combine(EnsembleSpec(members=((m, 3.0),), rule=WEIGHTED_AVERAGE))
        np.testing.assert_array_equal(out.probs, m.probs)

    def test_worked_two_member_example(self):
        a = PredictionMatrix(model_name="a", sample_ids=("x",), probs=np.array([[0.8, 0.2]]))
        b = PredictionMatrix(model_name="b", sample_ids=("x",), probs=np.array([[0.2, 0.8]]))
        out = combine(EnsembleSpec(members=((a, 2.0), (b, 1.0)), rule=WEIGHTED_AVERAGE))
        np.testing.assert_array_equal(out.probs, [[0.6, 0.4]])

    def test_average_rule_requires_equal_weights(self):
        rng = np.random.default_rng(5)
        mats = [random_matrix(rng, f"m{j}", IDS) for j in range(2)]
        with pytest.raises(ConfigError):
            EnsembleSpec(members=((mats[0], 1.0), (mats[1], 2.0)), rule=AVERAGE)

    def test_misaligned_ids_error_names_first_divergence(self):
        rng = np.random.default_rng(6)
        a = random_matrix(rng, "a", IDS)
        shuffled = IDS[1:] + IDS[:1]
        b = random_matrix(rng, "b", shuffled)
        with pytest.raises(AlignmentError, match="b"):
            combine(EnsembleSpec(members=((a, 1.0), (b, 1.0)), rule=AVERAGE))

    def test_class_count_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        a = random_matrix(rng, "a", IDS, k=3)
        b = random_matrix(rng, "b", IDS, k=4)
        with pytest.raises((AlignmentError, ConfigError)):
            combine(EnsembleSpec(members=((a, 1.0), (b, 1.0)), rule=AVERAGE))

    def test_rejects_bad_weights(self):
        rng = np.random.default_rng(8)
        m = random_matrix(rng, "m", IDS)
        with pytest.raises(ConfigError):
            EnsembleSpec(members=((m, -1.0),), rule=WEIGHTED_AVERAGE)
        with pytest.raises(ConfigError):
            EnsembleSpec(members=((m, float("nan")),), rule=WEIGHTED_AVERAGE)


class TestAccuracy:
    def test_matches_naive(self):
        rng = np.random.default_rng(9)
        m = random_matrix(rng, "m", IDS, k=5)
        labels = rng.integers(0, 5, len(IDS))
        assert accuracy(m, labels) == accuracy_naive(m.probs, labels)

    def test_argmax_tie_takes_lowest_index(self):
        probs = np.array([[0.5, 0.5]])
        m = PredictionMatrix(model_name="m", sample_ids=("a",), probs=probs)
        assert accuracy(m, [0]) == 1.0
        assert accuracy(m, [1]) == 0.0

    def test_per_class_accuracy(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
        m = PredictionMatrix(model_name="m", sample_ids=tuple("abcd"), probs=probs)
        by_class = per_class_accuracy(m, [0, 0, 1, 1])
        assert by_class[0] == 1.0
        assert by_class[1] == 0.5


class TestSelection:
    def test_sorts_by_accuracy_then_name(self):
        rows = [("b", 0.9), ("a", 0.9), ("c", 0.95)]
        assert select_best_k(rows, 3) == [("c", 0.95), ("a", 0.9), ("b", 0.9)]

    def test_k_bounds(self):
        rows = [("a", 0.5)]
        with pytest.raises(ConfigError):
            select_best_k(rows, 0)
        with pytest.raises(ConfigError):
            select_best_k(rows, 2)

    def test_top_k_subset(self):
        rows = [("m1", 0.7), ("m2", 0.9), ("m3", 0.8), ("m4", 0.6)]
        assert select_best_k(rows, 2) == [("m2", 0.9), ("m3", 0.8)]


class TestCsvFormat:
    def test_round_trip_below_1e9(self, tmp_path):
        rng = np.random.default_rng(10)
        m = random_matrix(rng, "model_x", IDS, k=6)
        path = tmp_path / "m.csv"
        write_matrix(m, path)
        again = read_matrix(path)
        assert again.sample_ids == m.sample_ids
        np.testing.assert_allclose(again.probs, m.probs, atol=1e-9)

    def test_model_name_defaults_to_stem(self, tmp_path):
        rng = np.random.default_rng(11)
        m = random_matrix(rng, "whatever", IDS)
        path = tmp_path / "fancy_name.csv"
        write_matrix(m, path)
        assert read_matrix(path).model_name == "fancy_name"

    def test_write_read_write_stable_bytes(self, tmp_path):
        rng = np.random.default_rng(12)
        m = random_matrix(rng, "m", IDS)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix(m, p1)
        write_matrix(read_matrix(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("sample,p_0,p_1\na,0.5,0.5\n")
        with pytest.raises(MatrixParseError):
            read_matrix(p)

    def test_rejects_field_count_mismatch(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("sample_id,p_0,p_1\na,0.5\n")
        with pytest.raises(MatrixParseError, match="line 2"):
            read_matrix(p)

    def test_rejects_non_numeric(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("sample_id,p_0,p_1\na,0.5,oops\n")
        with pytest.raises(MatrixParseError):
            read_matrix(p)

    def test_non_utf8_is_parse_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"sample_id,p_0,p_1\n\xff,0.5,0.5\n")
        with pytest.raises(MatrixParseError) as info:
            read_matrix(p)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    @pytest.mark.parametrize("row", ["a,nan,nan", "a,nan,1", "a,inf,0"])
    def test_non_finite_probability_is_parse_error(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(f"sample_id,p_0,p_1\n{row}\n")
        with pytest.raises(MatrixParseError, match=r"row 0: probabilities must lie in \[0, 1\]"):
            read_matrix(p)

    def test_row_sum_violation_surfaces_as_parse_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("sample_id,p_0,p_1\na,0.9,0.9\n")
        with pytest.raises((MatrixParseError, ConfigError)):
            read_matrix(p)
