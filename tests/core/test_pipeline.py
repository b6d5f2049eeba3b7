"""Integration-grade unit tests for the end-to-end MFPA pipeline."""

import numpy as np
import pytest

from repro.core.pipeline import MFPA, MFPAConfig
from repro.ml.naive_bayes import GaussianNaiveBayes


@pytest.fixture(scope="module")
def fitted_sfwb(small_fleet):
    model = MFPA(MFPAConfig(feature_group_name="SFWB"))
    model.fit(small_fleet, train_end_day=240)
    return model


class TestConfig:
    def test_defaults_match_paper(self):
        config = MFPAConfig()
        assert config.theta == 7
        assert config.max_gap == 10
        assert config.fill_gap == 3
        assert config.feature_group_name == "SFWB"

    def test_invalid_group_rejected(self):
        with pytest.raises(ValueError):
            MFPAConfig(feature_group_name="QQQ")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            MFPAConfig(decision_threshold=0.0)


class TestFit(object):
    def test_stage_stats_populated(self, fitted_sfwb):
        stages = set(fitted_sfwb.stage_stats_)
        assert {"feature_engineering", "labeling", "sampling", "training"} <= stages

    def test_unfitted_evaluate_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            MFPA().evaluate(0, 10)

    def test_no_positives_raises(self, small_fleet):
        model = MFPA(MFPAConfig())
        with pytest.raises(ValueError, match="no positive samples"):
            model.fit(small_fleet, train_end_day=2)

    def test_failure_times_respect_theta(self, fitted_sfwb, small_fleet):
        for serial, labeled_day in fitted_sfwb.failure_times_.items():
            ticket = next(t for t in small_fleet.tickets if t.serial == serial)
            assert labeled_day <= ticket.initial_maintenance_time


class TestEvaluate:
    def test_reports_present(self, fitted_sfwb):
        result = fitted_sfwb.evaluate(240, 360)
        assert result.n_faulty_drives > 0
        assert result.n_healthy_drives > 0
        assert 0.0 <= result.drive_report.tpr <= 1.0
        assert 0.0 <= result.drive_report.fpr <= 1.0
        assert result.record_report.n_samples >= result.drive_report.n_samples

    def test_detects_most_failures(self, fitted_sfwb):
        result = fitted_sfwb.evaluate(240, 360)
        assert result.drive_report.tpr >= 0.8
        assert result.drive_report.fpr <= 0.15

    def test_sfwb_beats_smart_only(self, small_fleet, fitted_sfwb):
        smart_only = MFPA(MFPAConfig(feature_group_name="S"))
        smart_only.fit(small_fleet, train_end_day=240)
        sfwb_result = fitted_sfwb.evaluate(240, 360)
        smart_result = smart_only.evaluate(240, 360)
        assert sfwb_result.drive_report.auc >= smart_result.drive_report.auc - 0.02

    def test_invalid_period_raises(self, fitted_sfwb):
        with pytest.raises(ValueError, match="end_day"):
            fitted_sfwb.evaluate(300, 300)

    def test_empty_period_raises(self, fitted_sfwb):
        with pytest.raises(ValueError, match="no drives"):
            fitted_sfwb.evaluate(100000, 100001)

    def test_str_summary(self, fitted_sfwb):
        result = fitted_sfwb.evaluate(240, 360)
        assert "drives[" in str(result)


class TestVariants:
    def test_explicit_feature_columns(self, small_fleet):
        config = MFPAConfig(
            feature_columns=("s14_media_errors", "s15_error_log_entries"),
        )
        model = MFPA(config)
        model.fit(small_fleet, train_end_day=240)
        assert model.assembler_.columns == (
            "s14_media_errors",
            "s15_error_log_entries",
        )
        result = model.evaluate(240, 360)
        assert result.drive_report.n_samples > 0

    def test_alternative_algorithm_with_selection(self, small_fleet):
        # Bayes needs the paper's forward-selection stage: without it the
        # time-drifting cumulative usage counters swamp its Gaussians.
        from repro.ml.tree import DecisionTreeClassifier

        config = MFPAConfig(
            algorithm=GaussianNaiveBayes(),
            feature_selection=True,
            selection_estimator=DecisionTreeClassifier(max_depth=5, seed=0),
        )
        model = MFPA(config)
        model.fit(small_fleet, train_end_day=240)
        assert len(model.selection_history_) >= 1
        assert len(model.assembler_.columns) <= 12
        result = model.evaluate(240, 360)
        assert result.drive_report.tpr > 0.5

    def test_grid_search_integration(self, small_fleet):
        from repro.ml.tree import DecisionTreeClassifier

        config = MFPAConfig(
            algorithm=DecisionTreeClassifier(seed=0),
            param_grid={"max_depth": [3, 8]},
        )
        model = MFPA(config)
        model.fit(small_fleet, train_end_day=240)
        assert model.search_.best_params_["max_depth"] in (3, 8)
        assert model.evaluate(240, 360).drive_report.tpr > 0.5

    def test_history_length_sequences(self, small_fleet):
        config = MFPAConfig(
            feature_columns=("s14_media_errors", "cum_w161_fs_io_error"),
            history_length=3,
            algorithm=GaussianNaiveBayes(),
        )
        model = MFPA(config)
        model.fit(small_fleet, train_end_day=240)
        assert model.assembler_.n_features == 6

    def test_calibrate_threshold_sets_config(self, small_fleet):
        model = MFPA(MFPAConfig())
        model.fit(small_fleet, train_end_day=200)
        threshold = model.calibrate_threshold(200, 260, max_fpr=0.02)
        assert 0.0 < threshold < 1.0
        assert model.config.decision_threshold == threshold
        result = model.evaluate(260, 360)
        assert result.drive_report.tpr > 0.5

    def test_calibrate_threshold_youden_fallback(self, small_fleet):
        model = MFPA(MFPAConfig())
        model.fit(small_fleet, train_end_day=200)
        # max_fpr=None forces the Youden path.
        threshold = model.calibrate_threshold(200, 260, max_fpr=None)
        assert 0.0 < threshold < 1.0

    def test_calibrate_requires_both_classes(self, small_fleet):
        model = MFPA(MFPAConfig())
        model.fit(small_fleet, train_end_day=240)
        # Pick a one-day slice guaranteed to contain no identified
        # failure time: healthy drives only.
        failure_days = set(model.failure_times_.values())
        quiet_day = next(d for d in range(240, 360) if d not in failure_days)
        with pytest.raises(ValueError, match="faulty and healthy"):
            model.calibrate_threshold(quiet_day, quiet_day + 1)

    def test_lookahead_reduces_tpr(self, small_fleet):
        near = MFPA(MFPAConfig(positive_window=7, lookahead=0))
        far = MFPA(MFPAConfig(positive_window=7, lookahead=15))
        near.fit(small_fleet, train_end_day=240)
        far.fit(small_fleet, train_end_day=240)
        near_tpr = near.evaluate(240, 360).drive_report.tpr
        far_tpr = far.evaluate(240, 360).drive_report.tpr
        assert far_tpr <= near_tpr + 0.05


class TestBindDataset:
    """Transform-only rebinding for artifact-loaded pipelines."""

    def test_bound_pipeline_evaluates_identically(
        self, fitted_sfwb, small_fleet, tmp_path
    ):
        from repro.ml.artifact import load_model, save_model

        save_model(fitted_sfwb, tmp_path / "artifact")
        loaded = load_model(tmp_path / "artifact")
        assert not hasattr(loaded, "dataset_")  # artifacts ship no data
        loaded.bind_dataset(small_fleet)
        want = fitted_sfwb.evaluate(240, 360)
        got = loaded.evaluate(240, 360)
        assert got.drive_report.tpr == want.drive_report.tpr
        assert got.drive_report.fpr == want.drive_report.fpr
        np.testing.assert_array_equal(
            sorted(got.period), sorted(want.period)
        )
        assert loaded.failure_times_ == fitted_sfwb.failure_times_

    def test_bind_requires_fitted(self, small_fleet):
        with pytest.raises(RuntimeError, match="not fitted"):
            MFPA(MFPAConfig()).bind_dataset(small_fleet)

    def test_unseen_firmware_rejected(self, fitted_sfwb, small_fleet, tmp_path):
        from repro.ml.artifact import load_model, save_model

        save_model(fitted_sfwb, tmp_path / "artifact")
        loaded = load_model(tmp_path / "artifact")
        mutated = type(small_fleet)(
            dict(small_fleet.columns), small_fleet.drives, small_fleet.tickets
        )
        firmware = mutated.columns["firmware"].copy()
        firmware[:] = "FW-NEVER-SEEN"
        mutated.columns["firmware"] = firmware
        with pytest.raises(ValueError, match="unseen label"):
            loaded.bind_dataset(mutated)

    def test_non_finite_telemetry_rejected(self, fitted_sfwb, small_fleet, tmp_path):
        from repro.ml.artifact import load_model, save_model

        save_model(fitted_sfwb, tmp_path / "artifact")
        loaded = load_model(tmp_path / "artifact")
        temperature = small_fleet.columns["s2_temperature"].copy()
        temperature[50] = np.nan
        broken = type(small_fleet)(
            {**small_fleet.columns, "s2_temperature": temperature},
            small_fleet.drives,
            small_fleet.tickets,
        )
        with pytest.raises(ValueError, match="'s2_temperature' contains NaN"):
            loaded.bind_dataset(broken)
        assert not hasattr(loaded, "dataset_")
