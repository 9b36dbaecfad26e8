"""Trace serialization.

The original artifact serialized Azure trace samples into pickle files
consumed by the simulator. We provide an equivalent, but in two
portable formats instead of raw pickles:

* **JSON** — one self-describing document with the function table and
  the invocation list; convenient and versioned.
* **CSV pair** — ``<stem>.functions.csv`` and
  ``<stem>.invocations.csv``; convenient for spreadsheets and other
  tools.

Both round-trip exactly (function order, invocation timestamps to
full float precision via JSON/CSV decimal repr).
"""

from __future__ import annotations

import csv
import json
import pathlib
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple, Union

from repro.traces.model import FunctionTable, Trace, TraceFunction

__all__ = ["save_trace_json", "load_trace_json", "save_trace_csv", "load_trace_csv"]

_FORMAT_VERSION = 1

PathLike = Union[str, pathlib.Path]


def _named_arrivals(trace: Trace):
    """``(time_s, function_name)`` per invocation, from the columns."""
    return zip(trace.times_s, map(trace.functions_table.names.__getitem__, trace.function_ids))


def _from_columns(
    path: PathLike, functions: Iterable[TraceFunction], times: Sequence[float],
    names: Sequence[str], name: str,
) -> Trace:
    """The loaders' one construction: no :class:`Invocation` per
    arrival, and every error names the file."""
    try:
        table = FunctionTable(functions)
        return Trace.from_columns(table, times, table.ids_of(names), name=name)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_trace_json(trace: Trace, path: PathLike) -> None:
    """Write a trace as one JSON document."""
    document = {
        "format": "repro-trace",
        "version": _FORMAT_VERSION,
        "name": trace.name,
        # tenant_id is written only when non-zero, so tenant-less
        # traces serialize byte-identically to the pre-tenancy format
        # (and old readers never see an unknown key).
        "functions": [
            {
                "name": f.name,
                "memory_mb": f.memory_mb,
                "warm_time_s": f.warm_time_s,
                "cold_time_s": f.cold_time_s,
                **({"tenant_id": f.tenant_id} if f.tenant_id else {}),
            }
            for f in trace.functions.values()
        ],
        "invocations": list(_named_arrivals(trace)),
    }
    pathlib.Path(path).write_text(json.dumps(document))


def _json_columns(path: PathLike, pairs: list) -> Tuple[list, list]:
    """The time and name columns of ``[time_s, function_name]`` pairs;
    ValueError naming the file and the first entry that is not such a
    pair with a numeric (not boolean) time."""
    try:
        times = list(map(itemgetter(0), pairs))
        names = list(map(itemgetter(1), pairs))
        valid = set(map(len, pairs)) <= {2} and set(map(type, times)) <= {int, float}
    except (TypeError, LookupError):
        valid = False
    if not valid:
        index, pair = next(
            (i, pair) for i, pair in enumerate(pairs)
            if not (
                isinstance(pair, list) and len(pair) == 2
                and type(pair[0]) in (int, float)
            )
        )
        raise ValueError(
            f"{path}: invocation {index}: expected [time_s, function_name] "
            f"with a numeric time, got {pair!r}"
        )
    return times, names


def load_trace_json(path: PathLike) -> Trace:
    """Read a trace written by :func:`save_trace_json`."""
    document = json.loads(pathlib.Path(path).read_text())
    if document.get("format") != "repro-trace":
        raise ValueError(f"{path}: not a repro trace file")
    if document.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported trace version {document.get('version')}"
        )
    # Built inside _from_columns, so a refused value names the file.
    functions = (
        TraceFunction(
            name=f["name"],
            memory_mb=f["memory_mb"],
            warm_time_s=f["warm_time_s"],
            cold_time_s=f["cold_time_s"],
            tenant_id=f.get("tenant_id", 0),
        )
        for f in document["functions"]
    )
    times, names = _json_columns(path, document["invocations"])
    return _from_columns(path, functions, times, names, document.get("name", "trace"))


def _csv_paths(stem: PathLike) -> tuple:
    stem = pathlib.Path(stem)
    return (
        stem.with_suffix(".functions.csv"),
        stem.with_suffix(".invocations.csv"),
    )


def save_trace_csv(trace: Trace, stem: PathLike) -> None:
    """Write ``<stem>.functions.csv`` and ``<stem>.invocations.csv``."""
    functions_path, invocations_path = _csv_paths(stem)
    # The tenant column appears only for tenant-carrying traces, so
    # tenant-less exports stay byte-identical to the pre-tenancy CSVs.
    tenants = trace.has_tenants
    with open(functions_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["name", "memory_mb", "warm_time_s", "cold_time_s"]
        if tenants:
            header.append("tenant_id")
        writer.writerow(header)
        for f in trace.functions.values():
            row = [
                f.name, repr(f.memory_mb), repr(f.warm_time_s), repr(f.cold_time_s)
            ]
            if tenants:
                row.append(str(f.tenant_id))
            writer.writerow(row)
    with open(invocations_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "function_name"])
        writer.writerows((repr(t), n) for t, n in _named_arrivals(trace))


def _csv_times(path: PathLike, cells: List[str]) -> List[float]:
    """``cells`` as floats; ValueError naming the file and the first
    cell that is not a number."""
    try:
        return list(map(float, cells))
    except ValueError:
        for index, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: invocation {index}: time {cell!r} is not a number"
                ) from None
        raise


def load_trace_csv(stem: PathLike, name: str = "trace") -> Trace:
    """Read a trace written by :func:`save_trace_csv`."""
    functions_path, invocations_path = _csv_paths(stem)
    with open(functions_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    try:
        functions = [
            TraceFunction(row["name"], float(row["memory_mb"]), float(row["warm_time_s"]),
                          float(row["cold_time_s"]), int(row.get("tenant_id") or 0))
            for row in rows
        ]
    except ValueError as exc:
        raise ValueError(f"{functions_path}: {exc}") from None
    with open(invocations_path, newline="") as handle:
        rows = csv.reader(handle)
        header = next(rows, [])
        time_column, name_column = header.index("time_s"), header.index("function_name")
        rows = list(rows)
    times = _csv_times(invocations_path, list(map(itemgetter(time_column), rows)))
    names = list(map(itemgetter(name_column), rows))
    return _from_columns(invocations_path, functions, times, names, name)
