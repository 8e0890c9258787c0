"""Benchmark harness: sweeps, summaries, calibration, and the CLI."""

from .sweep import (
    CellSummary,
    RunRecord,
    SweepConfig,
    calibrate_selector,
    emit_heatmap_data,
    read_records_csv,
    run_sweep,
    summarize,
    write_csv,
    write_records_csv,
)

__all__ = [
    "CellSummary",
    "RunRecord",
    "SweepConfig",
    "calibrate_selector",
    "emit_heatmap_data",
    "read_records_csv",
    "run_sweep",
    "summarize",
    "write_csv",
    "write_records_csv",
]
