"""Correctness checks on the CSVs one workload sweep writes.

On any seed every row must hold finite numbers, nonnegative losses and
errors in [0, 1], no failed cells, and the row count the config implies;
biasvar rows must also satisfy risk = bias + variance.  At the default
seed each row is further compared with the reference rows under
``reference/`` with per-column tolerances: loose enough for last-digit
changes from reassociated float arithmetic (a few ulps on the fit, grown
over a few hundred optimizer steps), tight enough that a wrong formula
fails.  Byte equality with the reference is reported but not required.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

LOSS_RTOL = 1e-6
LOSS_ATOL = 1e-12  # interpolating fits have train loss at roundoff level
ERROR_ATOL = 0.005  # ten misclassified points of a 2000-row eval set
EXACT_RTOL = 1e-12
IDENTITY_ATOL = 1e-10

KEY, EXACT, LOSS, ERROR, RESIDUAL = "key", "exact", "loss", "error", "residual"
COLUMNS = {
    # curve rows (records.CSV_HEADER)
    "experiment_id": KEY, "variant": KEY, "axis_name": KEY,
    "axis_value": EXACT, "train_loss": LOSS, "train_error": ERROR,
    "test_loss": LOSS, "test_error": ERROR, "seed": KEY, "params": KEY,
    "param_sample_ratio": EXACT, "status": KEY,
    # biasvar report rows
    "config_id": KEY, "width": KEY, "k": KEY, "risk": LOSS, "bias_kl": LOSS,
    "variance": LOSS, "bias_subtraction": LOSS, "identity_residual": RESIDUAL,
}
GOOD_STATUS = ("ok", "median")


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    bytes_equal: bool = True

    def add(self, other: "CheckResult"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.bytes_equal = self.bytes_equal and other.bytes_equal


def _number(text: str):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def row_ok(row: dict) -> bool:
    """Invariants that hold on every seed."""
    if row.get("status", "ok") not in GOOD_STATUS:
        return False
    values = {}
    for column, text in row.items():
        kind = COLUMNS.get(column)
        if kind is None or text is None:  # unknown or missing column
            return False
        if kind == KEY or (kind == ERROR and text == ""):
            continue
        value = _number(text)
        if value is None:
            return False
        if kind == LOSS and value < 0.0:
            return False
        if kind == ERROR and not 0.0 <= value <= 1.0:
            return False
        values[column] = value
    if "identity_residual" in values:
        # the exact oracle, recomputed rather than trusted from the row
        residual = values["risk"] - values["bias_kl"] - values["variance"]
        if (abs(residual) > IDENTITY_ATOL
                or abs(values["identity_residual"]) > IDENTITY_ATOL):
            return False
    return True


def _close(kind: str, got: str, want: str) -> bool:
    if kind == KEY or got == "" or want == "":
        return got == want
    a, b = float(got), float(want)
    if kind == LOSS:
        return abs(a - b) <= LOSS_ATOL + LOSS_RTOL * abs(b)
    if kind == ERROR:
        return abs(a - b) <= ERROR_ATOL
    if kind == RESIDUAL:  # roundoff-level; bounded by row_ok instead
        return True
    return abs(a - b) <= EXACT_RTOL * abs(b)


def row_matches(row: dict, ref: dict) -> bool:
    """Per-column tolerance comparison with one reference row."""
    return row.keys() == ref.keys() and all(
        _close(COLUMNS[column], row[column], ref[column]) for column in row)


def _read(path: Path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def check_file(path: Path, expected: int, reference: Path | None) -> CheckResult:
    """Rows checked and rows failed for one CSV (missing rows fail)."""
    if not path.is_file():
        return CheckResult(expected, expected, False)
    header, rows = _read(path)
    result = CheckResult(max(expected, len(rows)), abs(expected - len(rows)))
    ref_rows = None
    if reference is not None:
        ref_header, ref_rows = _read(reference)
        result.bytes_equal = path.read_bytes() == reference.read_bytes()
        if ref_header != header:
            return CheckResult(result.attempted, result.attempted, False)
    for i, row in enumerate(rows[:expected]):
        good = row_ok(row)
        if good and ref_rows is not None:
            good = i < len(ref_rows) and row_matches(row, ref_rows[i])
        result.failed += not good
    return result


def check_outputs(out_dir: Path, expected: dict, use_reference: bool) -> CheckResult:
    """Check every CSV a sweep must write; ``expected`` maps name -> rows."""
    total = CheckResult()
    for name, rows in expected.items():
        reference = REFERENCE_DIR / name if use_reference else None
        total.add(check_file(Path(out_dir) / name, rows, reference))
    return total
