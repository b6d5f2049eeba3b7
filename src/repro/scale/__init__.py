"""Out-of-core sharded execution: million-drive fleets on a fixed RAM budget.

The paper's population is hundreds of thousands of drives and hyperscale
monitoring operates at millions — far past what the in-RAM pipeline can
hold. This package keeps the fleet on disk as drive-serial-partitioned
npz shards and streams every stage over them:

* :mod:`repro.scale.store` — the shard store (manifest, sha256s,
  fingerprints, append-only string vocab);
* :mod:`repro.scale.stats` — shard-at-a-time quantile edge fitting and
  quarantine/preprocess report merging;
* :mod:`repro.scale.trainer` — :func:`fit_sharded`, MFPA's one fit
  body run over a store's shards (``MFPA.fit`` runs it over one
  in-memory shard), bit-identical to ``MFPA.fit`` on the concatenated
  fleet; for one shard ``preprocess`` fits the firmware encoder and no
  union-encoder pass runs;
* :mod:`repro.scale.monitor` — :class:`ShardedFleetMonitor`,
  bit-identical to the in-RAM monitor's ``OperationSummary``;
* :mod:`repro.scale.memory` — peak-RSS gauge and the
  :class:`MemoryCeiling` enforcement the 1M-drive bench runs under.

See ``docs/scaling.md`` for the shard layout and the memory-ceiling
contract.
"""

from repro.scale.memory import (
    MemoryCeiling,
    MemoryCeilingExceeded,
    peak_rss_mb,
    update_peak_rss_gauge,
)
from repro.scale.monitor import GradingView, ShardedFleetMonitor
from repro.scale.stats import (
    StreamingQuantiles,
    fit_bin_edges,
    merge_preprocess_reports,
    merge_quarantine_reports,
)
from repro.scale.store import (
    MANIFEST_NAME,
    ShardInfo,
    ShardManifestError,
    ShardWriter,
    ShardedDataset,
    is_shard_store,
    write_dataset_sharded,
)
from repro.scale.trainer import evaluate_sharded, fit_sharded, prepare_shard

__all__ = [
    "GradingView",
    "MANIFEST_NAME",
    "MemoryCeiling",
    "MemoryCeilingExceeded",
    "ShardInfo",
    "ShardManifestError",
    "ShardWriter",
    "ShardedDataset",
    "ShardedFleetMonitor",
    "StreamingQuantiles",
    "evaluate_sharded",
    "fit_bin_edges",
    "fit_sharded",
    "is_shard_store",
    "merge_preprocess_reports",
    "merge_quarantine_reports",
    "peak_rss_mb",
    "prepare_shard",
    "update_peak_rss_gauge",
    "write_dataset_sharded",
]
