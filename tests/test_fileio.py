import numpy as np
import pytest
from numpy.testing import assert_array_equal

from eltomo import GridSpec, Image, RegionMask, Sinogram
from eltomo.fileio import (TomoFileError, read_image, read_mask,
                           read_sinogram, save_pgm, write_image, write_mask,
                           write_pgm, write_sinogram)


def test_image_round_trip_bit_exact(rng):
    img = Image(GridSpec(7, 5, 2.5, 1.25), rng.standard_normal(35))
    again = read_image(write_image(img))
    assert again.grid == img.grid
    assert_array_equal(again.values, img.values)


def test_image_header_magic_rejected(rng):
    data = write_image(Image(GridSpec(4, 4), rng.standard_normal(16)))
    with pytest.raises(TomoFileError):
        read_image(b"TOMO-XXX" + data[8:])


def test_image_truncated_payload_rejected(rng):
    data = write_image(Image(GridSpec(4, 4), rng.standard_normal(16)))
    with pytest.raises(TomoFileError):
        read_image(data[:-8])


def test_image_non_finite_payload_rejected():
    img = Image(GridSpec(4, 4), np.ones(16))
    data = bytearray(write_image(img))
    data[-16:-8] = np.array([np.inf]).tobytes()
    with pytest.raises(TomoFileError):
        read_image(bytes(data))


def test_image_file_size_matches_format():
    img = Image(GridSpec(250, 250), np.zeros(250 * 250))
    data = write_image(img)
    header_len = data.index(b"\n") + 1
    assert len(data) == header_len + 250 * 250 * 8


def test_sinogram_round_trip(rng):
    angles = np.sort(rng.uniform(0, np.pi, 9))
    sino = Sinogram(angles, 13, rng.standard_normal(9 * 13))
    again = read_sinogram(write_sinogram(sino))
    assert_array_equal(again.angles, sino.angles)
    assert_array_equal(again.values, sino.values)


def test_sinogram_bad_version_rejected(rng):
    sino = Sinogram([0.0, 0.5], 3, rng.standard_normal(6))
    data = write_sinogram(sino)
    with pytest.raises(TomoFileError):
        read_sinogram(data.replace(b"TOMO-SIN 1", b"TOMO-SIN 2", 1))


def test_mask_round_trip(rng):
    mask = RegionMask(GridSpec(6, 4), rng.random(24) > 0.5, "GR")
    again = read_mask(write_mask(mask))
    assert_array_equal(again.membership, mask.membership)
    assert again.label == "GR"


def test_mask_bad_payload_byte_rejected():
    mask = RegionMask(GridSpec(4, 4), np.ones(16, dtype=bool), "BR")
    data = bytearray(write_mask(mask))
    data[-1] = 7
    with pytest.raises(TomoFileError):
        read_mask(bytes(data))


def test_pgm_export_shape_and_scale(rng):
    img = Image(GridSpec(10, 8), rng.standard_normal(80))
    pgm, sidecar = write_pgm(img)
    header = b"P5\n10 8\n65535\n"
    assert pgm.startswith(header)
    assert len(pgm) == len(header) + 2 * 80
    assert "min=" in sidecar and "max=" in sidecar
    pixels = np.frombuffer(pgm[len(header):], dtype=">u2")
    assert pixels.min() == 0 and pixels.max() == 65535


def test_save_pgm_writes_the_preview_and_its_sidecar(tmp_path, rng):
    img = Image(GridSpec(10, 8), rng.standard_normal(80))
    pgm, sidecar = write_pgm(img)
    written = save_pgm(tmp_path / "x.pgm", img)
    assert written == (tmp_path / "x.pgm", tmp_path / "x.pgm.txt")
    assert written[0].read_bytes() == pgm
    assert written[1].read_bytes() == sidecar.encode("utf-8")
