"""Remaining-useful-life (RUL) estimation (extension).

MFPA answers "will this drive fail soon?"; an after-sales planner also
wants "*how* soon?" — it decides whether to ship a replacement
overnight or with the next batch. This extension regresses
days-until-failure from the same SFWB features:

* training targets: for faulty drives, days between each pre-failure
  record and the identified failure time, capped at ``horizon_days``;
  healthy-drive records all carry the cap (they are "at least horizon
  away" — a standard censored-target approximation);
* the regressor is a bagged CART forest; evaluation reports MAE over
  faulty test drives' true countdowns plus the rank correlation between
  predicted and true urgency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.core.features import FeatureAssembler, feature_group
from repro.core.labeling import FailureTimeIdentifier, late_failure_mask
from repro.core.preprocess import preprocess
from repro.ml.forest import RandomForestRegressor
from repro.telemetry.dataset import TelemetryDataset


@dataclass
class RULConfig:
    """Configuration for the RUL regressor."""

    feature_group_name: str = "SFWB"
    horizon_days: int = 45
    """Cap on the countdown target; records farther than this from a
    failure (and all healthy records) train with this value."""
    theta: int = 7
    observation_window: int = 45
    """Faulty drives contribute records within this window before
    failure (matching the horizon keeps targets balanced)."""
    healthy_sample_per_positive: float = 2.0
    n_estimators: int = 40
    max_depth: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon_days < 7:
            raise ValueError("horizon_days must be at least 7")
        feature_group(self.feature_group_name)


@dataclass(frozen=True)
class RULEvaluation:
    """Error metrics over faulty test drives."""

    mae_days: float
    within_7_days: float
    """Fraction of predictions within +-7 days of the true countdown."""
    spearman: float
    n_records: int


class RULRegressor:
    """Days-until-failure regressor over the prepared telemetry."""

    def __init__(self, config: RULConfig | None = None):
        self.config = config or RULConfig()

    # ------------------------------------------------------------------
    def _targets(
        self, prepared: TelemetryDataset, failure_times: dict[int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and countdown targets for every usable record."""
        serial = prepared.columns["serial"]
        day = prepared.columns["day"]
        n = serial.shape[0]
        targets = np.full(n, float(self.config.horizon_days))
        usable = np.zeros(n, dtype=bool)

        faulty_serials = np.array(sorted(failure_times), dtype=np.int64)
        faulty_days = np.array([failure_times[s] for s in faulty_serials])
        position = np.searchsorted(faulty_serials, serial)
        position = np.minimum(position, faulty_serials.size - 1)
        is_faulty = (
            faulty_serials.size > 0
        ) & (faulty_serials[position] == serial)
        countdown = faulty_days[position] - day
        in_window = (
            is_faulty
            & (countdown >= 0)
            & (countdown <= self.config.observation_window)
        )
        targets[in_window] = np.minimum(
            countdown[in_window], self.config.horizon_days
        )
        usable |= in_window
        healthy_rows = np.flatnonzero(~is_faulty)
        rng = np.random.default_rng(self.config.seed)
        n_healthy = int(
            round(self.config.healthy_sample_per_positive * in_window.sum())
        )
        if healthy_rows.size > n_healthy:
            healthy_rows = rng.choice(healthy_rows, size=n_healthy, replace=False)
        usable[healthy_rows] = True
        rows = np.flatnonzero(usable)
        return rows, targets[rows]

    def fit(self, dataset: TelemetryDataset, train_end_day: int) -> "RULRegressor":
        config = self.config
        prepared, _, _ = preprocess(dataset)
        self.dataset_ = prepared
        self.failure_times_ = FailureTimeIdentifier(config.theta).identify(prepared)

        rows, targets = self._targets(prepared, self.failure_times_)
        in_training = prepared.columns["day"][rows] < train_end_day
        # Exclude post-cutoff failures' windows entirely.
        late = late_failure_mask(
            self.failure_times_, prepared.columns["serial"][rows], train_end_day
        )
        keep = in_training & ~late
        rows, targets = rows[keep], targets[keep]
        if rows.size == 0 or np.all(targets == config.horizon_days):
            raise ValueError("no pre-failure records in the training window")

        self.assembler_ = FeatureAssembler(
            feature_group(config.feature_group_name).columns
        )
        X = self.assembler_.assemble(prepared.columns, rows)
        self.model_ = RandomForestRegressor(
            n_estimators=config.n_estimators,
            max_depth=config.max_depth,
            seed=config.seed,
        )
        self.model_.fit(X, targets)
        self.train_end_day_ = train_end_day
        return self

    def predict_rows(self, row_indices: np.ndarray) -> np.ndarray:
        """Predicted days-to-failure (capped) for prepared-dataset rows."""
        if not hasattr(self, "model_"):
            raise RuntimeError("RULRegressor is not fitted yet")
        X = self.assembler_.assemble(self.dataset_.columns, np.asarray(row_indices))
        return np.clip(self.model_.predict(X), 0.0, float(self.config.horizon_days))

    # ------------------------------------------------------------------
    def evaluate(self, start_day: int, end_day: int) -> RULEvaluation:
        """Countdown accuracy over faulty drives failing in the period."""
        prepared = self.dataset_
        row_slices = prepared._row_slices()
        rows_list, truths_list = [], []
        for serial, failure_time in self.failure_times_.items():
            if not start_day <= failure_time < end_day:
                continue
            days = prepared.drive_rows(serial)["day"]
            in_window = (days >= failure_time - self.config.observation_window) & (
                days <= failure_time
            )
            if not np.any(in_window):
                continue
            base = row_slices[serial].start
            rows_list.append(base + np.flatnonzero(in_window))
            truths_list.append(failure_time - days[in_window])
        if not rows_list:
            raise ValueError(f"no failures to evaluate in [{start_day}, {end_day})")

        rows = np.concatenate(rows_list)
        truths = np.concatenate(truths_list).astype(float)
        predictions = self.predict_rows(rows)
        errors = np.abs(predictions - truths)
        if np.unique(truths).size > 1 and np.unique(predictions).size > 1:
            spearman = float(stats.spearmanr(predictions, truths).statistic)
        else:
            spearman = float("nan")
        return RULEvaluation(
            mae_days=float(errors.mean()),
            within_7_days=float(np.mean(errors <= 7.0)),
            spearman=spearman,
            n_records=int(rows.size),
        )
