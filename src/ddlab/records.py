"""Row records shared between the sweep runners and their CSV output."""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_MEDIAN = "median"


def lower_median(values) -> float:
    """Median with the lower-middle element for even counts."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    return ordered[(len(ordered) - 1) // 2]


def fmt_value(value) -> str:
    """Round-trip cell formatting: 17 significant digits, empty for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass
class CurvePoint:
    experiment_id: str
    variant: str
    axis_name: str  # hidden_units | samples | epoch
    axis_value: float
    train_loss: float | None = None
    train_error: float | None = None
    test_loss: float | None = None
    test_error: float | None = None
    seed: int | None = None
    params: int | None = None
    param_sample_ratio: float | None = None
    status: str = STATUS_OK

    def __post_init__(self):
        for name in ("train_loss", "test_loss"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        for name in ("train_error", "test_error"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def csv_row(self) -> str:
        return ",".join(fmt_value(c) for c in _cells(self))


CSV_HEADER = ",".join(f.name for f in fields(CurvePoint))
_cells = attrgetter(*CSV_HEADER.split(","))
