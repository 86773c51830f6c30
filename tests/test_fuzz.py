"""Malformed inputs to the file readers and the config-file parser.

Whatever the bytes, a reader either returns a container or raises
TomoFileError, and the config parser either returns a config or raises
ConfigError: the CLI turns exactly those into one ``error:`` line.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eltomo import cli
from eltomo.fileio import (IMG_MAGIC, MSK_MAGIC, SIN_MAGIC, TomoFileError,
                           read_image, read_mask, read_sinogram)

# deterministic, so the suite passes or fails the same way on every run
FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                database=None)

_numbers = st.one_of(
    st.integers(-5, 40), st.integers(), st.floats(allow_nan=True),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "0x10", "1_0", " 3",
                     "", "+2", "٣"]))
_tokens = st.one_of(_numbers.map(str), st.text(max_size=8))


@st.composite
def _files(draw, magic: str, nfields: int):
    """Header lines near the format (right or wrong magic, version and
    field count) with a payload of floats, mask bytes or raw bytes."""
    head = [draw(st.sampled_from([magic, "TOMO-XXX", ""])),
            draw(st.sampled_from(["1", "2", "1.0"]))]
    head += draw(st.lists(_tokens, min_size=nfields - 1,
                          max_size=nfields + 1))
    floats = draw(st.lists(st.floats(allow_nan=True), max_size=40))
    payload = draw(st.one_of(
        st.just(struct.pack(f"<{len(floats)}d", *floats)),
        st.binary(max_size=64),
        st.lists(st.integers(0, 2), max_size=40).map(bytes)))
    return " ".join(head).encode("utf-8", "surrogatepass") + b"\n" + payload


def _only(error, read, data):
    try:
        read(data)
    except error:
        pass


@FUZZ
@given(st.one_of(_files(IMG_MAGIC, 4), st.binary(max_size=80)))
def test_read_image_raises_only_tomo_file_error(data):
    _only(TomoFileError, read_image, data)


@FUZZ
@given(st.one_of(_files(SIN_MAGIC, 2), st.binary(max_size=80)))
def test_read_sinogram_raises_only_tomo_file_error(data):
    _only(TomoFileError, read_sinogram, data)


@FUZZ
@given(st.one_of(_files(MSK_MAGIC, 3), st.binary(max_size=80)))
def test_read_mask_raises_only_tomo_file_error(data):
    _only(TomoFileError, read_mask, data)


_lines = st.one_of(
    st.tuples(st.sampled_from(sorted(cli._KEYS) + ["", "nokey", " seed "]),
              st.sampled_from(["=", " = ", "", "=="]),
              _tokens).map("".join),
    st.text(max_size=20))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.txt"


@FUZZ
@given(st.one_of(
    st.lists(_lines, max_size=6).map(
        lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")),
    st.binary(max_size=80)))
def test_config_file_raises_only_config_error(config_path, data):
    config_path.write_bytes(data)
    _only(cli.ConfigError, cli.resolve_config,
          ["sweep", "--config", str(config_path)])
