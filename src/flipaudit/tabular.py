"""Strict CSV ingestion and emission for audit frames.

Rows are never dropped or coerced: a single non-binary cell or ragged row
rejects the whole file, with the offending row and column named. Dropping
rows silently would change n and therefore every rate downstream.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .frame import AuditFrame, ValidationError


@dataclass(frozen=True)
class ColumnMapping:
    pred_col: str = "pred"
    corr_col: str | None = "corr"  # None: no corrected labels, corr = pred
    group_col: str = "group"
    true_col: str | None = None
    favorable: int = 1    # raw value that maps to the favorable label 1
    privileged: int = 1   # raw value that maps to the privileged group 1

    def __post_init__(self):
        cols = self.columns()
        if len(set(cols)) != len(cols):
            raise ValidationError("mapped columns must be distinct", code="bad_mapping")
        if self.favorable not in (0, 1) or self.privileged not in (0, 1):
            raise ValidationError(
                "favorable and privileged values must be 0 or 1", code="bad_mapping"
            )

    def columns(self) -> list[str]:
        """The mapped column names, leaving out unmapped optional ones."""
        cols = [self.pred_col, self.corr_col, self.group_col, self.true_col]
        return [c for c in cols if c is not None]


def _parse_cell(raw: str, row: int, col: str) -> int:
    value = raw.strip()
    if value not in ("0", "1"):
        raise ValidationError(
            f"row {row}, column {col!r}: value {raw!r} is not binary (expected 0 or 1)",
            code="non_binary",
        )
    return int(value)


def ingest_rows(rows, mapping: ColumnMapping) -> AuditFrame:
    rows = iter(rows)
    try:
        header = next(rows)
    except StopIteration:
        raise ValidationError("input has no header row", code="empty")
    columns = [h.strip() for h in header]
    wanted = mapping.columns()
    indices = {}
    for name in wanted:
        if name not in columns:
            raise ValidationError(
                f"unknown column {name!r}; file has {columns}", code="unknown_column"
            )
        indices[name] = columns.index(name)

    data: dict[str, list[int]] = {name: [] for name in wanted}
    for rownum, row in enumerate(rows, start=2):  # 1-based, counting the header
        if len(row) != len(columns):
            raise ValidationError(
                f"row {rownum} has {len(row)} cells, expected {len(columns)}",
                code="ragged_row",
            )
        for name, idx in indices.items():
            data[name].append(_parse_cell(row[idx], rownum, name))
    if not data[mapping.pred_col]:
        raise ValidationError("file contains no data rows", code="empty")

    def vec(name: str | None, flip_when: int) -> np.ndarray | None:
        if name is None:
            return None
        arr = np.asarray(data[name], dtype=np.int64)
        return (1 - arr) if flip_when == 0 else arr

    y_predicted = vec(mapping.pred_col, mapping.favorable)
    y_corrected = vec(mapping.corr_col, mapping.favorable)
    return AuditFrame(
        y_predicted=y_predicted,
        y_corrected=y_predicted if y_corrected is None else y_corrected,
        group=vec(mapping.group_col, mapping.privileged),
        y_true=vec(mapping.true_col, mapping.favorable),
    )


def ingest(path, mapping: ColumnMapping | None = None) -> AuditFrame:
    """Read a header-bearing CSV file into a validated frame."""
    mapping = mapping or ColumnMapping()
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}", code="unreadable")
    with fh:
        return ingest_rows(csv.reader(fh), mapping)


def frame_to_csv(frame: AuditFrame) -> str:
    """Emit a frame in the canonical column layout (pred, corr, group[, true])."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["pred", "corr", "group"]
    cols = [frame.y_predicted, frame.y_corrected, frame.group]
    if frame.y_true is not None:
        header.append("true")
        cols.append(frame.y_true)
    writer.writerow(header)
    for row in zip(*cols):
        writer.writerow([int(v) for v in row])
    return buf.getvalue()


def write_frame(frame: AuditFrame, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(frame_to_csv(frame))
