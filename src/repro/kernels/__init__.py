"""The hot-path kernel table.

Every dispatch site — :mod:`repro.core.partition`,
:mod:`repro.core.records`, :mod:`repro.shuffle.router`,
:mod:`repro.storage.blocks` and :mod:`repro.storage.koidb` — calls
:func:`active_kernels` for the :class:`~repro.kernels.api.Kernels`
table it runs, which is :data:`VECTOR_KERNELS`.  That call is the one
seam a test uses to run the pipeline on the per-record oracle in
``tests/kernels/scalar.py`` and prove the two bit-identical
(docs/PERFORMANCE.md).
"""

from __future__ import annotations

from repro.kernels.api import OOB_DEST, Kernels
from repro.kernels.vector import VECTOR_KERNELS

__all__ = [
    "OOB_DEST",
    "Kernels",
    "VECTOR_KERNELS",
    "active_kernels",
    "kernels_name",
]

#: The table every dispatch site runs; only the differential tests
#: replace it, for a scope, with the oracle.
_ACTIVE: Kernels = VECTOR_KERNELS


def active_kernels() -> Kernels:
    """The kernel table every dispatch site consults."""
    return _ACTIVE


def kernels_name() -> str:
    """Name of the active backend (for reports and telemetry labels)."""
    return _ACTIVE.name
