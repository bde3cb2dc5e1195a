"""Per-cell artifact encoding and folder layout.

Every completed campaign cell owns one artifact folder::

    <campaign dir>/cells/<cell name>/
        result.json    # the ExperimentResult (schema repro-campaign-cell/1)
        metrics.json   # the cell's MetricsRecorder snapshot
        trace.jsonl    # the cell's span trace (repro-trace/1)

All three files are written atomically (temp file in the same folder,
fsync, ``os.replace``), and the folder is fsynced after the renames: a
crash leaves either no file or a complete one, never a torn one, and a
file the writer returned from survives the crash.

``result.json`` and the checkpoint payload share one encoding
(:func:`encode_result` / :func:`decode_result`): finite floats
round-trip bit-exactly through ``repr``-based JSON, and non-finite
floats — which plain JSON cannot carry — are tagged
``{"__float__": "inf"}`` so a decoded result compares equal to the
original (the kill-and-resume report byte-identity leans on this).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Mapping, Union

from repro.exceptions import ValidationError
from repro.experiments.runner import ExperimentResult
from repro.obs import MetricsRecorder

__all__ = [
    "CELL_RESULT_SCHEMA",
    "encode_result",
    "decode_result",
    "write_cell_artifacts",
    "read_cell_result",
]

#: Schema identifier written into every cell result.json.
CELL_RESULT_SCHEMA = "repro-campaign-cell/1"


def _encode_cell(value):
    if hasattr(value, "item"):  # numpy scalar -> native python
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return {"__float__": repr(value)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValidationError(
        f"cell value {value!r} ({type(value).__name__}) is not JSON-encodable"
    )


def _decode_cell(value):
    if isinstance(value, dict):
        if set(value) != {"__float__"}:
            raise ValidationError(f"unknown tagged cell {value!r}")
        return float(value["__float__"])
    return value


def encode_result(result: ExperimentResult) -> dict:
    """Encode an :class:`ExperimentResult` as a JSON-safe payload."""
    return {
        "name": result.name,
        "title": result.title,
        "headers": [str(h) for h in result.headers],
        "rows": [[_encode_cell(v) for v in row] for row in result.rows],
        "notes": [str(n) for n in result.notes],
        "precision": int(result.precision),
    }


def decode_result(payload: Mapping) -> ExperimentResult:
    """Inverse of :func:`encode_result`.

    ``decode_result(encode_result(r)) == r`` for every result whose rows
    are tuples (the library convention), including non-finite cells.
    """
    return ExperimentResult(
        name=str(payload["name"]),
        title=str(payload["title"]),
        headers=list(payload["headers"]),
        rows=[tuple(_decode_cell(v) for v in row) for row in payload["rows"]],
        notes=tuple(payload["notes"]),
        precision=int(payload.get("precision", 3)),
    )


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path``: the whole file or nothing.

    The text goes to a temp file in the same folder, is fsynced, and is
    then renamed over ``path``; on any failure the temp file is removed
    and ``path`` keeps its previous state.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fsync_dir(folder: Path) -> None:
    """Make the renames into ``folder`` durable."""
    fd = os.open(folder, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_cell_artifacts(
    directory: Union[str, Path],
    *,
    campaign: str,
    cell: "object",
    result: ExperimentResult,
    recorder: MetricsRecorder,
) -> Path:
    """Write one cell's artifact folder; returns the folder path.

    Called from *inside* the resilient unit, so a resumed campaign never
    rewrites artifacts a previous run already persisted (the checkpoint
    replays the result payload instead).
    """
    folder = Path(directory)
    folder.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": CELL_RESULT_SCHEMA,
        "campaign": campaign,
        "cell": cell.name,
        "kind": cell.kind,
        "tenant": cell.resolved_tenant,
        "knobs": dict(cell.knobs),
        "result": encode_result(result),
    }
    for name, payload in (("result.json", doc), ("metrics.json", recorder.snapshot())):
        _write_atomic(folder / name, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    trace = recorder.trace_lines(
        meta={"generator": "repro-campaign", "campaign": campaign, "cell": cell.name}
    )
    _write_atomic(folder / "trace.jsonl", "\n".join(trace) + "\n")
    _fsync_dir(folder)
    return folder


def read_cell_result(directory: Union[str, Path]) -> ExperimentResult:
    """Load the :class:`ExperimentResult` back from a cell folder."""
    path = Path(directory) / "result.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("schema") != CELL_RESULT_SCHEMA:
        raise ValidationError(
            f"{path}: expected schema {CELL_RESULT_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    return decode_result(doc["result"])
