"""Damaged and foreign files for the ``.npy`` feature and checkpoint readers.

``fault_bytes(good, dtype)[fault]`` is the content of one file per name in
``FAULTS``. ``good`` is the bytes of a valid file whose array has the
``dtype`` the reader expects; the damaged files are cut from or added to it,
and the foreign ones hold arrays the reader must not take. Each reader must
refuse every one with a ``ValueError`` that names the path, and a file in
its own retired binary layout with one that says how to re-save it.
"""

import io
import re
import struct

import numpy as np
from numpy.lib import format as npy


def npy_bytes(array):
    fh = io.BytesIO()
    npy.write_array(fh, array, allow_pickle=True)
    return fh.getvalue()


def fault_bytes(good: bytes, dtype) -> dict:
    header_end = good.index(b"\n") + 1
    other = {"<f4": "<f8", "<f8": "<f4"}[dtype]
    archive = io.BytesIO()
    np.savez(archive, a=np.ones((2, 2), dtype))
    # a header that claims 4 TiB of payload, over 8 bytes of data
    oversized = io.BytesIO()
    npy.write_array_header_1_0(
        oversized, {"descr": dtype, "fortran_order": False, "shape": (2**20, 2**20)}
    )
    return {
        "truncated magic": good[:4],
        "truncated version": good[:7],
        "truncated header": good[: header_end - 10],
        "unknown version": good[:6] + b"\x09\x00" + good[8:],
        "short payload": good[:-3],
        "trailing bytes": good + b"\x00",
        "zero rows": npy_bytes(np.zeros((0, 3), dtype)),
        "1-d array": npy_bytes(np.ones(3, dtype)),
        "3-d array": npy_bytes(np.ones((1, 2, 2), dtype)),
        "other float width": npy_bytes(np.ones((2, 2), other)),
        "integer dtype": npy_bytes(np.ones((2, 2), np.int64)),
        "object dtype": npy_bytes(np.array([[1.0, None]], dtype=object)),
        "oversized shape": oversized.getvalue() + bytes(8),
        "npz archive": archive.getvalue(),
        "old WROTFEAT file": struct.pack("<8sII", b"WROTFEAT", 3, 2) + bytes(24),
        "old WROTCKPT file": b"WROTCKPT" + struct.pack("<BII", 1, 2, 2) + bytes(32),
    }


FAULTS = list(fault_bytes(npy_bytes(np.ones((2, 2), "<f4")), "<f4"))


# each reader's retired binary layout, and the saver that writes its format now
OLD_LAYOUTS = {"<f4": ("WROTFEAT", "save_features"), "<f8": ("WROTCKPT", "save_model")}


def refusal(path, dtype, fault):
    """A pattern for the start of the message the ``dtype`` reader gives for
    ``fault`` at ``path``."""
    magic, saver = OLD_LAYOUTS[dtype]
    if fault == f"old {magic} file":
        return re.escape(f"{path}: old {magic} binary layout; re-save it with {saver}")
    return re.escape(str(path))
