"""Kernel-tier selection: compiled hot-path kernels with a NumPy reference.

The spatial indexes answer every flat-column query through a *kernel
backend* — a namespace providing the six fused kernels (``range_count``,
``range_select``, ``batch_range_count``, ``batch_range_select``,
``knn_candidates``, ``radius_select``).  Two backends exist:

``numpy``
    :mod:`repro.kernels.fallback` — the pure-NumPy reference.  Always
    available; defines the byte-identical semantics every other backend
    must reproduce.

``numba``
    :mod:`repro.kernels.numba_backend` — ``@njit``-compiled single-pass
    loops.  Only importable when the optional ``numba`` dependency is
    installed; never required.

Selection happens once at import from the ``REPRO_KERNELS`` environment
variable: ``numpy`` forces the reference, ``numba`` requests the
compiled tier (gracefully resolving to the reference when Numba is
absent — the override selects a *tier*, not a hard dependency), and
unset/``auto`` picks the compiled tier exactly when Numba is
importable.  Any other value raises at import: a typo'd override
silently running the wrong tier is worse than a crash.

Tests and the runtime sanitizer can swap backends after import with
:func:`set_kernels` / :func:`use`; the indexes resolve the active
backend per query via :func:`get_kernels`, so a swap takes effect
immediately without rebuilding anything.
"""

from __future__ import annotations

import importlib.util
import os
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.kernels import fallback

__all__ = [
    "KERNEL_NAMES",
    "backend_name",
    "get_kernels",
    "numba_available",
    "reference_kernels",
    "resolve_backend",
    "set_kernels",
    "use",
]

#: The kernel functions every backend must provide (the parity surface).
KERNEL_NAMES = (
    "range_count",
    "range_select",
    "batch_range_count",
    "batch_range_select",
    "knn_candidates",
    "radius_select",
)

#: Environment variable selecting the tier at import.
ENV_VAR = "REPRO_KERNELS"


def numba_available() -> bool:
    """Whether the optional ``numba`` dependency is importable (cheap probe)."""
    return importlib.util.find_spec("numba") is not None


def resolve_backend(name: Optional[str]) -> Tuple[object, str]:
    """Resolve a requested tier name to ``(backend, resolved_name)``.

    ``None``/``""``/``"auto"`` pick ``numba`` when available, else
    ``numpy``; ``"numba"`` gracefully degrades to ``numpy`` when the
    dependency is absent; anything else raises :class:`ValueError`.
    """
    if name is not None:
        name = name.strip().lower()
    if name in (None, "", "auto"):
        name = "numba" if numba_available() else "numpy"
    if name == "numpy":
        return fallback, "numpy"
    if name == "numba":
        if numba_available():
            from repro.kernels import numba_backend

            return numba_backend, "numba"
        return fallback, "numpy"
    raise ValueError(
        f"{ENV_VAR} must be 'numba', 'numpy' or 'auto', got {name!r}"
    )


_active, _active_name = resolve_backend(os.environ.get(ENV_VAR))


def get_kernels() -> object:
    """The active kernel backend (resolved per call — swaps apply instantly)."""
    return _active


def backend_name() -> str:
    """Resolved name of the active backend: ``"numpy"`` or ``"numba"``.

    A wrapped backend (e.g. the sanitizer's parity checker) reports the
    name of the backend it wraps via its own ``BACKEND`` attribute.
    """
    return getattr(_active, "BACKEND", _active_name)


def reference_kernels() -> object:
    """The pure-NumPy reference backend (the parity baseline)."""
    return fallback


def set_kernels(backend: object) -> object:
    """Install ``backend`` as the active kernel namespace; returns the old one.

    The sanitizer uses this to interpose its parity checker; tests use it
    to inject corrupt backends.  ``backend`` must provide every function
    in :data:`KERNEL_NAMES`.
    """
    global _active
    for kernel in KERNEL_NAMES:
        if not callable(getattr(backend, kernel, None)):
            raise TypeError(f"kernel backend {backend!r} lacks {kernel}()")
    previous = _active
    _active = backend
    return previous


@contextmanager
def use(name: str) -> Iterator[object]:
    """Temporarily select a tier by name (``"numpy"``/``"numba"``/``"auto"``).

    Yields the resolved backend; restores the previously active backend
    on exit.  Used by the differential harness to drive both tiers in
    one process.
    """
    backend, _ = resolve_backend(name)
    previous = set_kernels(backend)
    try:
        yield backend
    finally:
        set_kernels(previous)
