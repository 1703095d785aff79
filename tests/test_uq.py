import pytest
from hypothesis import given, settings, strategies as st

from colavoid import uq
from colavoid.perception import Dataset, MLPParams, MLPPredictor, PerceptionError
from conftest import MATRIX_C, MATRIX_C_SHIFT


class FixedPredictor:
    """Replays a fixed list of outputs keyed by sample order."""

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.i = 0

    def predict(self, x):
        out = self.outputs[self.i % len(self.outputs)]
        self.i += 1
        return out

    def predict_batch(self, X):
        return [self.predict(x) for x in X]


def dataset_of(pairs):
    return Dataset([(float(i), 0.0, 0.0, 0.0, 0.0) for i in range(len(pairs))], pairs,
                   role="confusion")


class TestQuantify:
    def test_initial_matrix_rates(self):
        u = uq.quantify(uq.ConfusionMatrix.from_rows(MATRIX_C))
        assert round(u.p00, 4) == 0.8734
        assert round(u.p01, 4) == 0.1266
        assert round(u.p10, 4) == 0.0476
        assert round(u.p11, 4) == 0.9524

    def test_shifted_matrix_rates(self):
        u = uq.quantify(uq.ConfusionMatrix.from_rows(MATRIX_C_SHIFT))
        assert round(u.p00, 4) == 0.8333
        assert round(u.p10, 4) == 0.9231

    def test_perfect_classifier(self):
        u = uq.quantify(uq.ConfusionMatrix.from_rows([[5, 0], [0, 7]]))
        assert (u.p00, u.p01, u.p10, u.p11) == (1.0, 0.0, 0.0, 1.0)

    def test_zero_row_is_hard_error(self):
        with pytest.raises(uq.QuantifyError, match="class 1"):
            uq.quantify(uq.ConfusionMatrix.from_rows([[10, 5], [0, 0]]))

    def test_rows_sum_to_one(self):
        u = uq.quantify(uq.ConfusionMatrix.from_rows([[3, 7], [11, 13]]))
        assert u.p00 + u.p01 == pytest.approx(1.0, abs=1e-12)
        assert u.p10 + u.p11 == pytest.approx(1.0, abs=1e-12)


class TestEvaluateConfusion:
    def test_perfect_predictor(self):
        ds = dataset_of([0] * 50 + [1] * 50)
        matrix = uq.evaluate_confusion(FixedPredictor([0] * 50 + [1] * 50), ds)
        assert matrix.counts == ((50, 0), (0, 50))

    def test_constant_zero_predictor(self):
        ds = dataset_of([1] * 30)
        matrix = uq.evaluate_confusion(FixedPredictor([0]), ds)
        assert matrix.counts[1] == (30, 0)

    def test_total_equals_dataset_size(self):
        ds = dataset_of([0, 1, 1, 0, 1])
        matrix = uq.evaluate_confusion(FixedPredictor([0, 1]), ds)
        assert sum(map(sum, matrix.counts)) == 5

    def test_empty_dataset_rejected(self):
        with pytest.raises(uq.QuantifyError):
            uq.evaluate_confusion(FixedPredictor([0]), dataset_of([]))

    def test_coin_flip_rows_balanced(self):
        import numpy as np
        rng = np.random.default_rng(0)
        ds = dataset_of([0, 1] * 5000)
        preds = list(rng.integers(0, 2, size=10000))
        matrix = uq.evaluate_confusion(FixedPredictor(preds), ds)
        sigma = 3 * (10000 * 0.25) ** 0.5 / 2  # 3 sigma of Bin(5000, 0.5)
        for row in matrix.counts:
            assert abs(row[0] - 2500) <= 3 * (5000 * 0.25) ** 0.5


class TestAccuracy:
    def test_nine_of_ten(self):
        ds = dataset_of([0] * 10)
        assert uq.accuracy(FixedPredictor([0] * 9 + [1]), ds) == 0.9

    def test_all_correct(self):
        ds = dataset_of([1] * 4)
        assert uq.accuracy(FixedPredictor([1]), ds) == 1.0

    def test_matches_matrix_trace(self):
        # the reference confusion matrix realized sample-by-sample
        outputs = [0] * 2000 + [1] * 290 + [0] * 10 + [1] * 200
        labels = [0] * 2290 + [1] * 210
        ds = dataset_of(labels)
        assert uq.accuracy(FixedPredictor(outputs), ds) \
            == pytest.approx((2000 + 200) / 2500)

    def test_empty_dataset_rejected(self):
        with pytest.raises(uq.QuantifyError):
            uq.accuracy(FixedPredictor([0]), dataset_of([]))

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_accuracy_equals_trace_over_total(self, pairs):
        labels = [y for y, _ in pairs]
        outputs = [p for _, p in pairs]
        ds = dataset_of(labels)
        matrix = uq.evaluate_confusion(FixedPredictor(outputs), ds)
        (c00, c01), (c10, c11) = matrix.counts
        assert uq.accuracy(FixedPredictor(outputs), ds) \
            == pytest.approx((c00 + c11) / len(pairs))


class TestNonFiniteInput:
    """A NaN state is an error, not a class-0 prediction (NaN >= 0.5 is false)."""

    @staticmethod
    def dataset_with_nan():
        X = [(1.0, 5.0, 3.0, 1.0, 0.0)] * 3 + [(1.0, float("nan"), 3.0, 1.0, 0.0)]
        return Dataset(X, [0, 1, 0, 1], role="confusion")

    def test_evaluate_confusion_rejects_nan(self):
        predictor = MLPPredictor(MLPParams.init_random(0))
        with pytest.raises(PerceptionError, match="non-finite"):
            uq.evaluate_confusion(predictor, self.dataset_with_nan())

    def test_accuracy_rejects_nan(self):
        predictor = MLPPredictor(MLPParams.init_random(0))
        with pytest.raises(PerceptionError, match="non-finite"):
            uq.accuracy(predictor, self.dataset_with_nan())


class TestCsv:
    def test_negative_counts_rejected(self):
        with pytest.raises(uq.QuantifyError):
            uq.ConfusionMatrix.from_rows([[1, -2], [0, 3]])

    def test_non_square_rejected(self):
        with pytest.raises(uq.QuantifyError):
            uq.ConfusionMatrix.from_rows([[1, 2, 3], [4, 5, 6]])

    def test_square_other_than_2x2_rejected(self):
        with pytest.raises(uq.QuantifyError, match="2 x 2"):
            uq.ConfusionMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])

    @pytest.mark.parametrize("text, message", [
        ("2x0,290\n10,200\n", "row 1"),
        ("2000,290\n10,2.5\n", "row 2"),
        ("1,2,3\n4,5,6\n7,8,9\n", "row 1"),
        ("2000,290\n", "1 rows"),
        ("2000,290\n10,200\n5,5\n", "3 rows"),
        ("2000,-290\n10,200\n", "row 1"),
        ("", "0 rows"),
    ], ids=["non-integer", "fraction", "3x3", "one-row", "three-rows", "negative",
            "empty"])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "c.csv"
        path.write_text(text)
        with pytest.raises(uq.QuantifyError, match=message) as err:
            uq.ConfusionMatrix.read_csv(path)
        assert str(path) in str(err.value)
