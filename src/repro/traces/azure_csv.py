"""Loader for the real Azure Functions 2019 dataset CSV format.

The paper's workloads come from the public Azure Functions trace
(``AzureFunctionsDataset2019``). Our synthetic generator stands in for
it offline, but users who have downloaded the real dataset can load it
here and run the exact pipeline the paper used. The schema, per the
dataset's documentation:

* **invocations** (``invocations_per_function_md.anon.d01.csv``):
  ``HashOwner, HashApp, HashFunction, Trigger, 1, 2, ..., 1440`` —
  per-minute invocation counts over one day.
* **durations** (``function_durations_percentiles.anon.d01.csv``):
  ``HashOwner, HashApp, HashFunction, Average, Count, Minimum,
  Maximum, percentile_* ...`` — execution times in milliseconds.
* **memory** (``app_memory_percentiles.anon.d01.csv``):
  ``HashOwner, HashApp, SampleCount, AverageAllocatedMb,
  AverageAllocatedMb_pct* ...`` — memory at the *application* level.

The loader joins the three files into an :class:`AzureDataset`, after
which everything downstream — the paper's preprocessing rules, the
samplers, the simulator — applies unchanged. Functions missing
duration or memory rows are dropped (the dataset's own documentation
notes the joins are partial); the returned report says how many.
"""

from __future__ import annotations

import csv
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.traces.azure import (
    AzureApplication,
    AzureDataset,
    AzureFunctionRecord,
    MINUTES_PER_DAY,
)

__all__ = ["AzureCsvLoadReport", "load_azure_dataset_csv"]

PathLike = Union[str, pathlib.Path]

#: Default per-application memory when the memory file lacks the app.
DEFAULT_APP_MEMORY_MB = 170.0


@dataclass(frozen=True)
class AzureCsvLoadReport:
    """What the join kept and dropped."""

    functions_loaded: int
    functions_without_durations: int
    apps_without_memory: int


def _function_key(row: Dict[str, str]) -> Tuple[str, str, str]:
    return (row["HashOwner"], row["HashApp"], row["HashFunction"])


def _read_rows(path: PathLike) -> List[Dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def load_azure_dataset_csv(
    invocations_csv: PathLike,
    durations_csv: PathLike,
    memory_csv: PathLike,
    minutes: int = MINUTES_PER_DAY,
) -> Tuple[AzureDataset, AzureCsvLoadReport]:
    """Join one day of the real Azure trace into an AzureDataset.

    Returns the dataset plus a load report. Raises ``ValueError`` on
    files that do not match the documented schema.
    """
    invocation_rows = _read_rows(invocations_csv)
    duration_rows = _read_rows(durations_csv)
    memory_rows = _read_rows(memory_csv)
    if not invocation_rows:
        raise ValueError(f"{invocations_csv}: no invocation rows")
    required = {"HashOwner", "HashApp", "HashFunction"}
    if not required <= set(invocation_rows[0]):
        raise ValueError(
            f"{invocations_csv}: missing columns {required - set(invocation_rows[0])}"
        )

    durations: Dict[Tuple[str, str, str], Tuple[float, float]] = {}
    for row in duration_rows:
        try:
            avg = float(row["Average"])
            maximum = float(row["Maximum"])
        except (KeyError, ValueError) as exc:
            raise ValueError(
                f"{durations_csv}: bad duration row ({exc})"
            ) from None
        if avg <= 0:
            continue
        durations[_function_key(row)] = (avg, max(maximum, avg))

    app_memory: Dict[Tuple[str, str], float] = {}
    for row in memory_rows:
        try:
            memory = float(row["AverageAllocatedMb"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{memory_csv}: bad memory row ({exc})") from None
        if memory > 0:
            app_memory[(row["HashOwner"], row["HashApp"])] = memory

    minute_columns = [str(i) for i in range(1, minutes + 1)]
    functions: List[AzureFunctionRecord] = []
    app_functions: Dict[Tuple[str, str], List[str]] = {}
    dropped_durations = 0
    for row in invocation_rows:
        key = _function_key(row)
        if key not in durations:
            dropped_durations += 1
            continue
        counts = tuple(
            int(float(row.get(col, "0") or "0")) for col in minute_columns
        )
        avg_ms, max_ms = durations[key]
        function_id = "-".join(key)
        app_key = (key[0], key[1])
        functions.append(
            AzureFunctionRecord(
                function_id=function_id,
                app_id=f"{key[0]}-{key[1]}",
                minute_counts=counts,
                avg_duration_ms=avg_ms,
                max_duration_ms=max_ms,
            )
        )
        app_functions.setdefault(app_key, []).append(function_id)

    apps_without_memory = 0
    applications: List[AzureApplication] = []
    for app_key, function_ids in app_functions.items():
        memory = app_memory.get(app_key)
        if memory is None:
            apps_without_memory += 1
            memory = DEFAULT_APP_MEMORY_MB
        applications.append(
            AzureApplication(
                app_id=f"{app_key[0]}-{app_key[1]}",
                memory_mb=memory,
                function_ids=tuple(function_ids),
            )
        )

    dataset = AzureDataset(functions, applications)
    report = AzureCsvLoadReport(
        functions_loaded=len(functions),
        functions_without_durations=dropped_durations,
        apps_without_memory=apps_without_memory,
    )
    return dataset, report
