"""Reader and writer for the IDX image/label container (MNIST layout).

Byte layout, all integers big-endian unsigned 32-bit:

* images file: magic 0x00000803, count n, rows r, cols c, then n*r*c
  pixel bytes in row-major order;
* labels file: magic 0x00000801, count n, then n label bytes.

Pixels are scaled to [0, 1] by dividing by 255 on load; labels become
one-hot rows.  ``write_idx`` emits the identical layout so a load/write
round trip reproduces conforming files byte for byte.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import ClassificationDataset, one_hot

MAGIC_IMAGES = 0x00000803
MAGIC_LABELS = 0x00000801


class IdxFormatError(ValueError):
    """Base class for malformed IDX input."""


class IdxMagicError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


@dataclass(frozen=True)
class IdxInfo:
    kind: str  # "images" or "labels"
    magic: int
    count: int
    rows: int | None
    cols: int | None


# magic -> (kind, number of big-endian uint32 dimensions after the magic)
LAYOUTS = {MAGIC_IMAGES: ("images", 3), MAGIC_LABELS: ("labels", 1)}


def _parse(path, expect: int | None = None):
    """(magic, dimensions, body) of an IDX file whose length matches its
    header.  A reader passes the magic it needs as ``expect``."""
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise IdxTruncatedError(f"{path}: file shorter than its header")
    (magic,) = struct.unpack(">I", data[:4])
    if expect is not None and magic != expect:
        raise IdxMagicError(f"{path}: bad {LAYOUTS[expect][0]} magic "
                            f"0x{magic:08x}, expected 0x{expect:08x}")
    if magic not in LAYOUTS:
        raise IdxMagicError(f"{path}: unrecognized magic number 0x{magic:08x}")
    header = 4 + 4 * LAYOUTS[magic][1]
    if len(data) < header:
        raise IdxTruncatedError(f"{path}: file shorter than its header")
    dims = struct.unpack(f">{LAYOUTS[magic][1]}I", data[4:header])
    size = header + math.prod(dims)
    if len(data) != size:
        raise IdxTruncatedError(f"{path}: expected {size} bytes, found {len(data)}")
    return magic, dims, data[header:]


def inspect_idx(path) -> IdxInfo:
    magic, dims, _ = _parse(path)
    count, rows, cols = (*dims, None, None)[:3]
    return IdxInfo(LAYOUTS[magic][0], magic, count, rows, cols)


def read_idx_images(path) -> np.ndarray:
    """Raw pixel bytes as a (count, rows, cols) uint8 array."""
    _, (count, rows, cols), body = _parse(path, MAGIC_IMAGES)
    # zero pixels pass the length check whatever the other dimensions say,
    # but numpy cannot shape (or convert to float64) arrays with huge ones
    if max(count, 1) * max(rows, 1) * max(cols, 1) > np.iinfo(np.intp).max // 8:
        raise IdxFormatError(
            f"{path}: dimensions {count} x {rows} x {cols} are too large")
    return np.frombuffer(body, dtype=np.uint8).reshape(count, rows, cols)


def read_idx_labels(path) -> np.ndarray:
    _, _, body = _parse(path, MAGIC_LABELS)
    return np.frombuffer(body, dtype=np.uint8).astype(np.int64)


def load_idx(images_path, labels_path, class_count: int | None = None):
    """Load an image/label pair into a one-hot classification dataset.

    Images are flattened row-major and scaled by 1/255.  When class_count
    is not given it is inferred as max(10, max label + 1); when it is
    given, a label at or above it is an ``IdxFormatError``.
    """
    pixels = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if pixels.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images_path} holds {pixels.shape[0]} images but "
            f"{labels_path} holds {labels.shape[0]} labels")
    if class_count is None:
        class_count = max(10, int(labels.max()) + 1) if labels.size else 10
    elif labels.size and labels.max() >= class_count:
        raise IdxFormatError(f"{labels_path}: label {labels.max()} is out "
                             f"of range for {class_count} classes")
    count, rows, cols = pixels.shape
    features = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return ClassificationDataset(features, one_hot(labels, class_count))


def write_idx(images_path, labels_path, pixels: np.ndarray,
              labels: np.ndarray) -> None:
    """Emit a conforming image/label pair from uint8 pixels (n, rows, cols)."""
    pixels = np.asarray(pixels)
    labels = np.asarray(labels)
    if pixels.dtype != np.uint8 or pixels.ndim != 3:
        raise ValueError("pixels must be a (n, rows, cols) uint8 array")
    if labels.shape != (pixels.shape[0],):
        raise ValueError("labels length must match the image count")
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise ValueError("labels must fit in one byte")
    n, rows, cols = pixels.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">4I", MAGIC_IMAGES, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">2I", MAGIC_LABELS, n))
        fh.write(labels.astype(np.uint8).tobytes())
