"""Runtime sanitizer: deep checks of a built or loaded index's invariants.

The static rules in :mod:`repro.devtools.lint` catch code that *could*
corrupt derived state; this module checks the state itself.  Every check
raises :class:`InvariantViolation` carrying the *name* of the violated
invariant, so a failure in CI reads as a diagnosis, not a stack trace:

======================  ====================================================
invariant               what it asserts
======================  ====================================================
leaf-starts-monotone    ``leaf_starts`` is a 0-based, non-decreasing prefix
                        array with one slot per leaf plus the total
leaf-nonempty-consistent ``leaf_nonempty[i]`` equals ``starts[i+1] > starts[i]``
leaf-boxes-tight        a non-empty leaf's stored box equals the exact
                        min/max of its coordinate slice (empty: its cell)
skip-pointer-range      every look-ahead pointer is ``END_OF_LIST`` or a
                        strictly later leaf position
skip-pointer-rebuild    stored pointers are byte-equal to a fresh
                        (non-mutating) Algorithm 4 pass over the live boxes
mmap-read-only          columns of a read-only store (mmap snapshot) have
                        ``writeable=False`` and were never written through
flat-cache-coherent     the cached flat columns equal a fresh gather from
                        the pages (the cache is dropped on every mutation,
                        so a live cache must match a rebuild exactly)
shard-conservation      the dispatcher's accumulated counters equal the sum
                        of the per-shard counters (scatter/gather loses no
                        delta), measured from a shared counter reset
delta-conservation      an online index's merged row count equals the LSM
                        arithmetic ``len(base) + delta live − tombstones``
                        over both the active and frozen buffers — every
                        tombstone consumed exactly one matching row
kernel-parity           a sampled fraction of kernel-tier calls re-executed
                        on the pure-NumPy reference returns byte-identical
                        values (same dtype, shape, bytes and ordering)
======================  ====================================================

Enabling
--------
Nothing here runs unless asked.  Set ``REPRO_SANITIZE=1`` and the test
suite's conftest calls :func:`install_sanitizer`, which wraps
``ZIndex._build`` and ``ZIndex.from_snapshot_state`` to run
:func:`check_index_invariants` on every index the tests construct, and
interposes a :class:`KernelParityChecker` on the active kernel backend
so one in every ``kernel_sample_every`` hot-path kernel calls is
differentially re-executed on the reference tier.  With the variable
unset, the library functions are left untouched — zero overhead
(``tests/test_devtools_invariants.py::TestDisabledModeIsFree`` asserts
this by identity).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = [
    "InvariantViolation",
    "KernelParityChecker",
    "assert_kernel_parity",
    "check_delta_conservation",
    "check_index_invariants",
    "check_shard_conservation",
    "expected_skip_pointers",
    "install_sanitizer",
    "uninstall_sanitizer",
    "sanitize_enabled",
    "sanitizer_installed",
]


class InvariantViolation(AssertionError):
    """A deep check failed; :attr:`invariant` names the broken invariant."""

    def __init__(self, invariant: str, message: str) -> None:
        self.invariant = invariant
        super().__init__(f"[{invariant}] {message}")


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for the sanitizer to be installed."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


# ---------------------------------------------------------------------------
# Index deep checks
# ---------------------------------------------------------------------------


def expected_skip_pointers(entries) -> Dict[str, List[int]]:
    """Algorithm 4 recomputed into fresh lists, without touching ``entries``.

    Mirrors :func:`repro.zindex.skipping.build_lookahead_pointers` exactly,
    but follows its *own* already-computed chains instead of writing
    pointers back, so a check never repairs the corruption it is hunting.
    """
    from repro.storage.leaflist import END_OF_LIST, SKIP_CRITERIA
    from repro.zindex.skipping import _criterion_value, _improves

    n = len(entries)
    expected: Dict[str, List[int]] = {c: [END_OF_LIST] * n for c in SKIP_CRITERIA}
    for position in range(n - 1, -1, -1):
        entry = entries[position]
        for criterion in SKIP_CRITERIA:
            reference = _criterion_value(entry, criterion)
            target = position + 1 if position + 1 < n else END_OF_LIST
            while target != END_OF_LIST:
                candidate = entries[target]
                if _improves(criterion, _criterion_value(candidate, criterion), reference):
                    break
                target = expected[criterion][target]
            expected[criterion][position] = target
    return expected


def check_index_invariants(index: Any) -> None:
    """Deep-check one index; raises :class:`InvariantViolation` on failure.

    Indexes outside the Z-index family (no ``leaflist``) pass vacuously.
    """
    leaflist = getattr(index, "leaflist", None)
    if leaflist is None or not hasattr(leaflist, "entries"):
        return

    from repro.storage.buffers import MemoryColumnStore
    from repro.storage.leaflist import END_OF_LIST, SKIP_CRITERIA

    entries = list(leaflist.entries)
    n = len(entries)

    # A fresh, independent gather of the coordinate columns from the pages.
    fresh = MemoryColumnStore.gather(leaflist)
    starts = np.asarray(fresh["leaf_starts"], dtype=np.int64)
    flat_x = np.asarray(fresh["flat_x"], dtype=np.float64)
    flat_y = np.asarray(fresh["flat_y"], dtype=np.float64)

    # -- leaf-starts-monotone ---------------------------------------------
    if starts.shape[0] != n + 1:
        raise InvariantViolation(
            "leaf-starts-monotone",
            f"leaf_starts has {starts.shape[0]} slots for {n} leaves "
            f"(expected {n + 1})",
        )
    if n >= 0 and (starts[0] != 0 or np.any(np.diff(starts) < 0)):
        raise InvariantViolation(
            "leaf-starts-monotone",
            f"leaf_starts must start at 0 and be non-decreasing; got "
            f"starts[0]={int(starts[0])}, min step "
            f"{int(np.diff(starts).min()) if n else 0}",
        )
    if int(starts[-1]) != flat_x.shape[0]:
        raise InvariantViolation(
            "leaf-starts-monotone",
            f"leaf_starts totals {int(starts[-1])} rows but the flat columns "
            f"hold {flat_x.shape[0]}",
        )

    packed = leaflist.packed()

    # -- leaf-nonempty-consistent -----------------------------------------
    derived_nonempty = starts[1:] > starts[:-1]
    if not np.array_equal(np.asarray(packed.nonempty, dtype=bool), derived_nonempty):
        bad = int(np.flatnonzero(
            np.asarray(packed.nonempty, dtype=bool) != derived_nonempty
        )[0])
        raise InvariantViolation(
            "leaf-nonempty-consistent",
            f"leaf {bad}: nonempty={bool(packed.nonempty[bad])} but its slice "
            f"[{int(starts[bad])}, {int(starts[bad + 1])}) says "
            f"{bool(derived_nonempty[bad])}",
        )

    # -- leaf-boxes-tight --------------------------------------------------
    boxes = np.asarray(packed.boxes, dtype=np.float64).reshape(-1, 4)
    for i in np.flatnonzero(derived_nonempty):
        lo, hi = int(starts[i]), int(starts[i + 1])
        xs, ys = flat_x[lo:hi], flat_y[lo:hi]
        tight = (xs.min(), ys.min(), xs.max(), ys.max())
        if tuple(boxes[i]) != tight:
            raise InvariantViolation(
                "leaf-boxes-tight",
                f"leaf {int(i)}: stored box {tuple(boxes[i])} != tight box "
                f"{tight} of rows [{lo}, {hi})",
            )

    # -- skip-pointer-range ------------------------------------------------
    # The live entries are the source of truth; the packed columns must
    # mirror them (a stale packed cache would hide entry-level corruption).
    positions = np.arange(n, dtype=np.int64)
    entry_pointers = {
        criterion: np.fromiter(
            (entry.skip_pointer(criterion) for entry in entries),
            dtype=np.int64, count=n,
        )
        for criterion in SKIP_CRITERIA
    }
    packed_columns = dict(zip(
        SKIP_CRITERIA, (packed.below, packed.above, packed.left, packed.right)
    ))
    for criterion in SKIP_CRITERIA:
        for origin, pointers in (
            ("entry", entry_pointers[criterion]),
            ("packed", np.asarray(packed_columns[criterion], dtype=np.int64)),
        ):
            bad_mask = (pointers != END_OF_LIST) & (
                (pointers <= positions) | (pointers >= n)
            )
            if np.any(bad_mask):
                bad = int(np.flatnonzero(bad_mask)[0])
                raise InvariantViolation(
                    "skip-pointer-range",
                    f"leaf {bad}: {origin} {criterion} pointer "
                    f"{int(pointers[bad])} is not END_OF_LIST or a later "
                    f"position in [0, {n})",
                )

    # -- skip-pointer-rebuild ----------------------------------------------
    # All-END_OF_LIST columns mean "pointers not built (yet)" — a valid,
    # merely unoptimized state (scans skip nothing): shard construction
    # loads emptied snapshot states exactly like this before rebuilding.
    pointers_built = any(
        np.any(entry_pointers[criterion] != END_OF_LIST)
        for criterion in SKIP_CRITERIA
    )
    if getattr(index, "use_skipping", False) and n and pointers_built:
        expected = expected_skip_pointers(entries)
        for criterion in SKIP_CRITERIA:
            want = np.asarray(expected[criterion], dtype=np.int64)
            for origin, got in (
                ("entry", entry_pointers[criterion]),
                ("packed", np.asarray(packed_columns[criterion], dtype=np.int64)),
            ):
                if not np.array_equal(want, got):
                    bad = int(np.flatnonzero(want != got)[0])
                    raise InvariantViolation(
                        "skip-pointer-rebuild",
                        f"leaf {bad}: {origin} {criterion} pointer "
                        f"{int(got[bad])} != {int(want[bad])} from a fresh "
                        "Algorithm 4 pass — a scan following it could skip a "
                        "relevant leaf",
                    )

    # -- mmap-read-only ----------------------------------------------------
    store = getattr(index, "_store", None)
    if store is not None and not store.writable:
        for name in store.names():
            column = store[name]
            if column.flags.writeable:
                raise InvariantViolation(
                    "mmap-read-only",
                    f"read-only store column {name!r} is writeable; a stray "
                    "in-place write would corrupt the shared snapshot pages",
                )

    # -- flat-cache-coherent -----------------------------------------------
    cached_starts = getattr(index, "_flat_starts", None)
    if cached_starts is not None:
        for name, cached, fresh_column in (
            ("leaf_starts", np.asarray(cached_starts), starts),
            ("flat_x", np.asarray(index._flat_x), flat_x),
            ("flat_y", np.asarray(index._flat_y), flat_y),
        ):
            if not np.array_equal(cached, fresh_column):
                raise InvariantViolation(
                    "flat-cache-coherent",
                    f"cached {name} differs from a fresh page gather; a "
                    "mutation skipped _invalidate_flat (generation "
                    f"{getattr(index, '_flat_generation', '?')})",
                )


# ---------------------------------------------------------------------------
# Shard conservation
# ---------------------------------------------------------------------------


def check_shard_conservation(sharded: Any) -> None:
    """Dispatcher counters must equal the sum of the per-shard counters.

    Valid from a shared counter reset (``sharded.reset_counters()``
    broadcasts the reset to every backend): every per-shard delta the
    workers report must be absorbed exactly once by the dispatcher.
    """
    totals: Dict[str, int] = {}
    for backend in sharded._backends:
        shard_counters = backend.request("counters")
        for key, value in shard_counters.items():
            totals[key] = totals.get(key, 0) + int(value)
    dispatcher = vars(sharded.counters)
    for key, value in totals.items():
        if key in dispatcher and int(dispatcher[key]) != value:
            raise InvariantViolation(
                "shard-conservation",
                f"counter {key!r}: dispatcher accumulated "
                f"{int(dispatcher[key])} but the shards report {value} — a "
                "scatter/gather dropped or double-counted a delta",
            )


# ---------------------------------------------------------------------------
# Delta conservation (online ingest)
# ---------------------------------------------------------------------------


def check_delta_conservation(online: Any) -> None:
    """The LSM merge arithmetic must balance exactly.

    For an :class:`~repro.online.index.OnlineIndex`, the number of rows
    the merged view actually produces must equal ``len(base) + delta
    live − tombstones`` summed over the active and frozen buffers: the
    delete path validates every tombstone against a live occurrence at
    record time, so at *any* point — mid-ingest, mid-compaction, after a
    swap — each tombstone consumes exactly one matching row and no row
    is double-counted.  A mismatch means an acknowledged write was lost
    or resurrected.
    """
    with online._lock:
        state = online._state
        base_count = len(state.base)
        expected = base_count + state.delta.live_count - state.delta.tombstone_count
        if state.frozen is not None:
            expected += state.frozen.live_count - state.frozen.tombstone_count
        xs, _ys = online._merged_rows_full(state)
        actual = int(xs.shape[0])
        compacting = state.frozen is not None
    if actual != expected:
        raise InvariantViolation(
            "delta-conservation",
            f"merged view holds {actual} rows but the LSM arithmetic says "
            f"{expected} (base {base_count}, compacting={compacting}) — a "
            "tombstone missed its matching row or a row was double-counted",
        )


# ---------------------------------------------------------------------------
# Kernel parity (differential re-execution)
# ---------------------------------------------------------------------------


def _kernel_value_mismatch(got: Any, want: Any) -> Optional[str]:
    """Why two kernel return values are not byte-identical, or ``None``."""
    if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        got_array = np.asarray(got)
        want_array = np.asarray(want)
        if got_array.dtype != want_array.dtype:
            return f"dtype {got_array.dtype} != reference {want_array.dtype}"
        if got_array.shape != want_array.shape:
            return f"shape {got_array.shape} != reference {want_array.shape}"
        if got_array.tobytes() != want_array.tobytes():
            diff = np.flatnonzero(
                got_array.view(np.uint8) != want_array.view(np.uint8)
            )
            return (
                f"values differ from the reference starting at byte "
                f"{int(diff[0])} of {got_array.nbytes}"
            )
        return None
    if got != want:
        return f"value {got!r} != reference {want!r}"
    return None


def assert_kernel_parity(kernel: str, got: Any, want: Any) -> None:
    """Raise ``InvariantViolation('kernel-parity', ...)`` naming the kernel
    unless ``got`` is byte-identical (dtype, shape, bytes, ordering) to the
    reference result ``want``."""
    if isinstance(want, tuple):
        if not isinstance(got, tuple) or len(got) != len(want):
            raise InvariantViolation(
                "kernel-parity",
                f"{kernel}() returned {type(got).__name__} where the "
                f"reference returns a {len(want)}-tuple",
            )
        for position, (got_part, want_part) in enumerate(zip(got, want)):
            mismatch = _kernel_value_mismatch(got_part, want_part)
            if mismatch is not None:
                raise InvariantViolation(
                    "kernel-parity",
                    f"{kernel}() element {position}: {mismatch}",
                )
        return
    mismatch = _kernel_value_mismatch(got, want)
    if mismatch is not None:
        raise InvariantViolation("kernel-parity", f"{kernel}() {mismatch}")


class KernelParityChecker:
    """A kernel backend that differentially re-executes sampled calls.

    Wraps the active backend: every call is served by the wrapped tier,
    and one in every ``sample_every`` (deterministically — a call
    counter, no RNG, so a failing run replays exactly) is re-executed on
    the pure-NumPy reference and compared byte-for-byte by
    :func:`assert_kernel_parity`.  Install with
    :func:`repro.kernels.set_kernels`; :func:`install_sanitizer` does so
    under ``REPRO_SANITIZE=1``.
    """

    def __init__(self, backend: Any, reference: Any, sample_every: int = 4) -> None:
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.wrapped = backend
        self.reference = reference
        self.sample_every = int(sample_every)
        self.calls = 0
        self.checked = 0
        from repro.kernels import KERNEL_NAMES

        for name in KERNEL_NAMES:
            setattr(self, name, self._checked_kernel(name))

    @property
    def BACKEND(self) -> str:  # noqa: N802  (kernel-backend protocol name)
        return getattr(self.wrapped, "BACKEND", "unknown")

    def _checked_kernel(self, name: str):
        fast = getattr(self.wrapped, name)
        reference = getattr(self.reference, name)

        def checked(*args, **kwargs):
            result = fast(*args, **kwargs)
            self.calls += 1
            if self.calls % self.sample_every == 0:
                self.checked += 1
                expected = reference(*args, **kwargs)
                assert_kernel_parity(name, result, expected)
            return result

        checked.__name__ = name
        return checked


# ---------------------------------------------------------------------------
# Installation (test-suite hook)
# ---------------------------------------------------------------------------

_ORIGINALS: Optional[Dict[str, Any]] = None


def sanitizer_installed() -> bool:
    return _ORIGINALS is not None


def install_sanitizer(
    *, kernel_sample_every: int = 4, delta_sample_every: int = 64
) -> None:
    """Wrap ``ZIndex._build`` / ``from_snapshot_state`` with deep checks,
    interpose the kernel-parity checker on the active kernel backend, and
    hook the online write path with the delta-conservation check.

    Online hooks: every ``delta_sample_every``-th ``OnlineIndex`` insert
    or delete (a shared deterministic counter — a failing run replays
    exactly) and *every* compaction re-derive the merged row count and
    compare it to the LSM arithmetic.

    Idempotent.  With the sanitizer never installed, the wrapped functions
    are the pristine originals — the disabled-mode overhead is exactly
    zero, which ``TestDisabledModeIsFree`` verifies by identity.
    """
    global _ORIGINALS
    if _ORIGINALS is not None:
        return
    if delta_sample_every <= 0:
        raise ValueError(
            f"delta_sample_every must be positive, got {delta_sample_every}"
        )
    from repro import kernels
    from repro.online.index import OnlineIndex
    from repro.zindex.base import ZIndex

    original_build = ZIndex._build
    original_from_state = ZIndex.from_snapshot_state.__func__
    original_insert = OnlineIndex.insert
    original_delete = OnlineIndex.delete
    original_compact = OnlineIndex.compact

    def checked_build(self, *args, **kwargs):
        result = original_build(self, *args, **kwargs)
        check_index_invariants(self)
        return result

    def checked_from_state(cls, *args, **kwargs):
        index = original_from_state(cls, *args, **kwargs)
        check_index_invariants(index)
        return index

    mutation_clock = {"count": 0}

    def checked_insert(self, *args, **kwargs):
        result = original_insert(self, *args, **kwargs)
        mutation_clock["count"] += 1
        if mutation_clock["count"] % delta_sample_every == 0:
            check_delta_conservation(self)
        return result

    def checked_delete(self, *args, **kwargs):
        result = original_delete(self, *args, **kwargs)
        mutation_clock["count"] += 1
        if mutation_clock["count"] % delta_sample_every == 0:
            check_delta_conservation(self)
        return result

    def checked_compact(self, *args, **kwargs):
        result = original_compact(self, *args, **kwargs)
        if result is not None:
            check_delta_conservation(self)
        return result

    checked_build.__wrapped__ = original_build  # type: ignore[attr-defined]
    ZIndex._build = checked_build
    ZIndex.from_snapshot_state = classmethod(checked_from_state)
    for name, wrapper, original in (
        ("insert", checked_insert, original_insert),
        ("delete", checked_delete, original_delete),
        ("compact", checked_compact, original_compact),
    ):
        wrapper.__name__ = name
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(OnlineIndex, name, wrapper)
    parity = KernelParityChecker(
        kernels.get_kernels(), kernels.reference_kernels(),
        sample_every=kernel_sample_every,
    )
    original_kernels = kernels.set_kernels(parity)
    _ORIGINALS = {
        "_build": original_build,
        "from_snapshot_state": original_from_state,
        "online_insert": original_insert,
        "online_delete": original_delete,
        "online_compact": original_compact,
        "kernels": original_kernels,
    }


def uninstall_sanitizer() -> None:
    """Restore the pristine ``ZIndex``/``OnlineIndex`` entry points and
    kernel backend."""
    global _ORIGINALS
    if _ORIGINALS is None:
        return
    from repro import kernels
    from repro.online.index import OnlineIndex
    from repro.zindex.base import ZIndex

    ZIndex._build = _ORIGINALS["_build"]
    ZIndex.from_snapshot_state = classmethod(_ORIGINALS["from_snapshot_state"])
    OnlineIndex.insert = _ORIGINALS["online_insert"]
    OnlineIndex.delete = _ORIGINALS["online_delete"]
    OnlineIndex.compact = _ORIGINALS["online_compact"]
    kernels.set_kernels(_ORIGINALS["kernels"])
    _ORIGINALS = None
