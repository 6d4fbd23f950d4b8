"""Fixture: F203 — an on-disk struct format without a byte order."""

import struct

NATIVE_FMT = "IHH"  # no byte-order prefix (F203)
_PINNED_FMT = "<IHH"


def pack_native(a, b, c):
    return struct.pack(NATIVE_FMT, a, b, c)  # F203


def pack_pinned(a, b, c):
    # an explicit byte order must NOT be flagged
    return struct.pack(_PINNED_FMT, a, b, c)
