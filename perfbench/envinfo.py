"""Environment record written with every result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

from stackprop.nnkernel import DTYPE

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version")}


def _blas_threads_in_use():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs_dir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in _THREAD_QUERIES:
            if hasattr(handle, symbol):
                query = getattr(handle, symbol)
                query.restype = ctypes.c_int
                return query()
    return None


def _git_commit(root: Path):
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def environment(root: Path, blas_threads_pinned: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads_pinned": blas_threads_pinned,
        "blas_threads_in_use": _blas_threads_in_use(),
        "dtype": np.dtype(DTYPE).name,
        "git_commit": _git_commit(root),
    }
