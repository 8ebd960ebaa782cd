import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import (IdxCountMismatchError, IdxFormatError, IdxMagicError,
                   IdxTruncatedError, inspect_idx, load_idx, write_idx)
from ddlab.idx import read_idx_images, read_idx_labels


def make_pair(tmp_path, pixels, labels):
    images_path = tmp_path / "images-idx3-ubyte"
    labels_path = tmp_path / "labels-idx1-ubyte"
    write_idx(images_path, labels_path, np.asarray(pixels, dtype=np.uint8),
              np.asarray(labels))
    return images_path, labels_path


def test_pixel_scaling(tmp_path):
    pixels = [[[0, 255], [128, 51]], [[255, 0], [0, 255]]]
    ip, lp = make_pair(tmp_path, pixels, [1, 0])
    ds = load_idx(ip, lp)
    np.testing.assert_allclose(ds.features[0],
                               [0.0, 1.0, 128 / 255, 51 / 255])
    assert ds.n == 2 and ds.dim == 4


def test_one_hot_labels_and_inferred_classes(tmp_path):
    ip, lp = make_pair(tmp_path, np.zeros((1, 2, 2)), [7])
    ds = load_idx(ip, lp)
    assert ds.class_count == 10
    expected = np.zeros(10)
    expected[7] = 1.0
    np.testing.assert_array_equal(ds.targets[0], expected)


def test_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(4)
    pixels = rng.integers(0, 256, size=(5, 3, 4)).astype(np.uint8)
    labels = rng.integers(0, 10, size=5)
    ip, lp = make_pair(tmp_path, pixels, labels)
    original = (ip.read_bytes(), lp.read_bytes())

    ds = load_idx(ip, lp)
    info = inspect_idx(ip)
    back_pixels = np.rint(ds.features * 255).astype(np.uint8)
    back_pixels = back_pixels.reshape(info.count, info.rows, info.cols)
    out_ip = tmp_path / "out-images"
    out_lp = tmp_path / "out-labels"
    write_idx(out_ip, out_lp, back_pixels, ds.targets.argmax(axis=1))
    assert out_ip.read_bytes() == original[0]
    assert out_lp.read_bytes() == original[1]


def test_inspect(tmp_path):
    ip, lp = make_pair(tmp_path, np.zeros((3, 2, 5)), [0, 1, 2])
    images = inspect_idx(ip)
    assert (images.kind, images.count, images.rows, images.cols) == \
        ("images", 3, 2, 5)
    labels = inspect_idx(lp)
    assert (labels.kind, labels.count) == ("labels", 3)


def test_wrong_magic(tmp_path):
    bad = tmp_path / "bad"
    bad.write_bytes(struct.pack(">4I", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(IdxMagicError):
        inspect_idx(bad)
    ip, lp = make_pair(tmp_path, np.zeros((1, 2, 2)), [0])
    with pytest.raises(IdxMagicError):
        load_idx(lp, ip)  # swapped arguments hit the magic check
    with pytest.raises(IdxMagicError, match="bad images magic 0x00000801, "
                                            "expected 0x00000803"):
        read_idx_images(lp)
    with pytest.raises(IdxMagicError, match="bad labels magic 0x00000803, "
                                            "expected 0x00000801"):
        read_idx_labels(ip)


def test_truncated_file(tmp_path):
    ip, lp = make_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
    ip.write_bytes(ip.read_bytes()[:-3])
    with pytest.raises(IdxTruncatedError):
        load_idx(ip, lp)


def test_two_byte_file_is_truncated_for_every_reader(tmp_path):
    ip, lp = make_pair(tmp_path, np.zeros((1, 2, 2)), [0])
    stub = tmp_path / "stub"
    stub.write_bytes(b"\x08\x03")
    for call in (lambda: inspect_idx(stub), lambda: read_idx_images(stub),
                 lambda: read_idx_labels(stub), lambda: load_idx(stub, lp),
                 lambda: load_idx(ip, stub)):
        with pytest.raises(IdxTruncatedError, match="shorter than its header"):
            call()


def test_count_mismatch(tmp_path):
    ip, _ = make_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
    # labels file with a different count
    lp = tmp_path / "short-labels"
    lp.write_bytes(struct.pack(">2I", 0x00000801, 3) + bytes([0, 1, 2]))
    with pytest.raises(IdxCountMismatchError):
        load_idx(ip, lp)


@pytest.mark.parametrize("dims", [(0, 2**31, 2**31), (2**31, 2**31, 0)])
def test_empty_images_with_oversized_dimensions(tmp_path, dims):
    # zero pixel bytes pass the length check; the shape itself is invalid
    ip, lp = make_pair(tmp_path, np.zeros((0, 1, 1)), np.zeros(0, dtype=int))
    ip.write_bytes(struct.pack(">4I", 0x00000803, *dims))
    with pytest.raises(IdxFormatError, match="too large"):
        load_idx(ip, lp)


def test_zero_images_load_as_an_empty_dataset(tmp_path):
    ip, lp = make_pair(tmp_path, np.zeros((0, 3, 2)), np.zeros(0, dtype=int))
    ds = load_idx(ip, lp)
    assert ds.features.shape == (0, 6) and ds.targets.shape == (0, 10)


def _corrupt(data: bytes, edit, where: int, payload: bytes) -> bytes:
    where = min(where, len(data))
    if edit == "truncate":
        return data[:where]
    if edit == "extend":
        return data + payload
    flipped = bytearray(data)
    for k, byte in enumerate(payload):
        if flipped:
            flipped[(where + k) % len(flipped)] ^= byte | 1
    return bytes(flipped)


@settings(max_examples=200, deadline=None)
@given(count=st.integers(0, 3), rows=st.integers(0, 3), cols=st.integers(0, 3),
       target=st.sampled_from(["images", "labels", "both"]),
       edit=st.sampled_from(["truncate", "flip", "extend"]),
       where=st.integers(0, 60), payload=st.binary(min_size=1, max_size=6))
def test_corrupted_files_raise_only_idx_format_errors(
        count, rows, cols, target, edit, where, payload):
    with tempfile.TemporaryDirectory() as tmp:
        ip, lp = make_pair(Path(tmp), np.full((count, rows, cols), 7),
                           np.arange(count) % 10)
        for path in ((ip, lp) if target == "both"
                     else (ip,) if target == "images" else (lp,)):
            path.write_bytes(_corrupt(path.read_bytes(), edit, where, payload))
        calls = [lambda: inspect_idx(ip), lambda: inspect_idx(lp),
                 lambda: read_idx_images(ip), lambda: read_idx_labels(lp),
                 lambda: load_idx(ip, lp)]
        for call in calls:
            try:
                call()
            except IdxFormatError:
                pass
