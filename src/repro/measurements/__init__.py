"""Measurement-data substrate: records, collections, IO, aggregates."""

from .aggregates import (
    DEFAULT_PUBLISHED_PERCENTILES,
    AggregateTable,
    MetricAggregate,
    aggregate_measurements,
)
from .adapters import (
    cloudflare_row_to_measurement,
    flatten_nested,
    ingest_cloudflare,
    ingest_ndt,
    ndt_row_to_measurement,
    ookla_tiles_to_aggregate,
)
from .calibration import (
    BiasModel,
    CalibratedSource,
    estimate_biases,
)
from .collection import MeasurementSet
from .columnar import ColumnarStore, ColumnarView, ColumnBatch
from .io import (
    IngestStats,
    decode_jsonl,
    read_csv,
    read_jsonl,
    write_csv,
    write_jsonl,
)
from .quantile import ExactQuantiles, P2Quantile
from .sketchplane import SketchPlane, SketchView, sketch_records
from .tdigest import TDigest
from .record import Measurement
from .windows import (
    PEAK_END_HOUR,
    PEAK_START_HOUR,
    TimeBucket,
    by_hour_of_day,
    peak_split,
    time_buckets,
)

__all__ = [
    "AggregateTable",
    "BiasModel",
    "CalibratedSource",
    "ColumnBatch",
    "ColumnarStore",
    "ColumnarView",
    "DEFAULT_PUBLISHED_PERCENTILES",
    "ExactQuantiles",
    "IngestStats",
    "Measurement",
    "MeasurementSet",
    "MetricAggregate",
    "P2Quantile",
    "PEAK_END_HOUR",
    "PEAK_START_HOUR",
    "SketchPlane",
    "SketchView",
    "TDigest",
    "TimeBucket",
    "aggregate_measurements",
    "sketch_records",
    "by_hour_of_day",
    "cloudflare_row_to_measurement",
    "decode_jsonl",
    "estimate_biases",
    "flatten_nested",
    "ingest_cloudflare",
    "ingest_ndt",
    "ndt_row_to_measurement",
    "ookla_tiles_to_aggregate",
    "peak_split",
    "read_csv",
    "read_jsonl",
    "time_buckets",
    "write_csv",
    "write_jsonl",
]
