"""Reading and writing binary PPM (P6) images with maxval 255.

The header accepts arbitrary whitespace and '#' comments between tokens, as
produced by common converters; a header field longer than MAX_TOKEN_BYTES is
refused.  Exactly one whitespace byte separates the maxval from the pixel
data.  Only 8-bit RGB is supported; anything else is rejected rather than
silently rescaled.
"""

from __future__ import annotations

import os

import numpy as np

from .atomic import atomic_write
from .errors import IngestError


# No valid header field comes near this length (a maxval is 3 digits, a
# dimension that fits in memory at most 10); a longer token is corrupt.
MAX_TOKEN_BYTES = 20
# A '#' comment is skipped in lines of at most this many bytes: a few calls
# per chunk, and no more than one chunk in memory however long it runs.
COMMENT_CHUNK_BYTES = 1 << 16


def _read_token(f, path) -> bytes:
    token = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise IngestError(f"{path}: unexpected end of file in header")
        if ch == b"#":
            while (chunk := f.readline(COMMENT_CHUNK_BYTES)) and not chunk.endswith(b"\n"):
                pass
            continue
        if ch.isspace():
            if token:
                return token
            continue
        if len(token) == MAX_TOKEN_BYTES:
            raise IngestError(f"{path}: header field longer than {MAX_TOKEN_BYTES} bytes")
        token += ch


def read_ppm(path) -> np.ndarray:
    """Load a P6 file as a uint8 array of shape [H, W, 3]."""
    try:
        f = open(path, "rb")
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise IngestError(f"{path}: {e}") from None
    with f:
        if _read_token(f, path) != b"P6":
            raise IngestError(f"{path}: not a binary PPM (P6) file")
        try:
            width = int(_read_token(f, path))
            height = int(_read_token(f, path))
            maxval = int(_read_token(f, path))
        except ValueError:
            raise IngestError(f"{path}: malformed header field") from None
        if width < 1 or height < 1:
            raise IngestError(f"{path}: invalid dimensions {width}x{height}")
        if maxval != 255:
            raise IngestError(f"{path}: unsupported maxval {maxval} (only 255)")
        # A corrupt header can claim gigabytes; refuse it before ``read``
        # allocates a buffer of that size.
        size = width * height * 3
        left = os.fstat(f.fileno()).st_size - f.tell()
        if size > left:
            raise IngestError(f"{path}: pixel data truncated ({left} of {size} bytes)")
        data = f.read(size)
        if len(data) != size:
            raise IngestError(f"{path}: pixel data truncated ({len(data)} of {size} bytes)")
        if f.read(1):
            raise IngestError(f"{path}: trailing bytes after pixel data")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write a uint8 [H, W, 3] array as a P6 file with maxval 255."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise IngestError(
            f"{path}: pixels must be uint8 with shape [H, W, 3], "
            f"got {pixels.dtype} {pixels.shape}"
        )
    height, width = pixels.shape[:2]
    with atomic_write(path, "wb") as f:
        f.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(pixels).tobytes())
