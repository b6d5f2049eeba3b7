"""Unit tests for the estimator base class and clone()."""

import numpy as np
import pytest

from repro.ml.base import BaseClassifier, check_X, check_X_y, clone
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


class TestParams:
    def test_get_params_reflects_constructor(self):
        model = RandomForestClassifier(n_estimators=7, max_depth=3)
        params = model.get_params()
        assert params["n_estimators"] == 7
        assert params["max_depth"] == 3

    def test_set_params_roundtrip(self):
        model = GaussianNaiveBayes()
        model.set_params(var_smoothing=0.5)
        assert model.var_smoothing == 0.5

    def test_set_invalid_param_raises(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            GaussianNaiveBayes().set_params(bogus=1)

    def test_clone_is_unfitted_copy(self, binary_blobs):
        X, y = binary_blobs
        model = GaussianNaiveBayes(var_smoothing=1e-8).fit(X, y)
        copy = clone(model)
        assert copy.var_smoothing == 1e-8
        assert not hasattr(copy, "classes_")

    def test_clone_preserves_all_params(self):
        model = RandomForestClassifier(n_estimators=3, max_features="log2", seed=11)
        copy = clone(model)
        assert copy.get_params() == model.get_params()


class TestValidation:
    def test_check_X_y_accepts_2d(self):
        X, y = check_X_y([[1.0, 2.0]], [1])
        assert X.shape == (1, 2) and y.shape == (1,)

    def test_check_X_y_rejects_1d_X(self):
        with pytest.raises(ValueError, match="2-D or 3-D"):
            check_X_y(np.ones(3), np.ones(3))

    def test_check_X_y_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="samples"):
            check_X_y(np.ones((3, 2)), np.ones(4))

    def test_check_X_y_rejects_nan(self):
        X = np.ones((2, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            check_X_y(X, np.ones(2))

    def test_check_X_y_rejects_empty(self):
        with pytest.raises(ValueError, match="zero samples"):
            check_X_y(np.ones((0, 2)), np.ones(0))

    def test_check_X_feature_count(self):
        with pytest.raises(ValueError, match="features"):
            check_X(np.ones((2, 3)), n_features=4)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GaussianNaiveBayes().predict(np.ones((1, 2)))

    def test_score_returns_accuracy(self, binary_blobs):
        X, y = binary_blobs
        model = GaussianNaiveBayes().fit(X, y)
        assert 0.9 <= model.score(X, y) <= 1.0

    def test_base_class_is_abstract(self):
        base = BaseClassifier()
        with pytest.raises(NotImplementedError):
            base.fit(np.ones((2, 2)), np.ones(2))
        with pytest.raises(NotImplementedError):
            base.predict_proba(np.ones((2, 2)))


#: Every tree model (a fresh unfitted one per call) and its scoring method.
TREE_MODELS = {
    "DecisionTreeClassifier": (
        lambda: DecisionTreeClassifier(max_depth=3), "predict_proba"),
    "DecisionTreeRegressor": (
        lambda: DecisionTreeRegressor(max_depth=3), "predict"),
    "RandomForestClassifier": (
        lambda: RandomForestClassifier(n_estimators=3, max_depth=3),
        "predict_proba"),
    "RandomForestRegressor": (
        lambda: RandomForestRegressor(n_estimators=3, max_depth=3), "predict"),
    "GradientBoostingClassifier": (
        lambda: GradientBoostingClassifier(n_estimators=3, max_depth=2),
        "predict_proba"),
}


class TestTreeModelsAreTabular:
    """``check_X`` admits sequences for the neural models; tree models
    score ``(rows, features)`` matrices only, and say so up front
    instead of failing inside numpy."""

    @pytest.mark.parametrize("name", TREE_MODELS)
    def test_predict_rejects_3d_input(self, name, binary_blobs):
        make, method = TREE_MODELS[name]
        X, y = binary_blobs
        model = make().fit(X[:, :4], y)
        with pytest.raises(ValueError, match=r"2-D, got shape \(5, 3, 4\)"):
            getattr(model, method)(np.ones((5, 3, 4)))

    @pytest.mark.parametrize(
        "name",
        ["DecisionTreeClassifier", "RandomForestClassifier",
         "GradientBoostingClassifier"],
    )
    def test_fit_rejects_3d_input(self, name):
        model = TREE_MODELS[name][0]()
        with pytest.raises(ValueError, match=r"2-D, got shape \(4, 3, 2\)"):
            model.fit(np.ones((4, 3, 2)), np.array([0, 1, 0, 1]))
