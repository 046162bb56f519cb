"""Error types raised by the persistence layer.

Every failure mode a deployment can hit while loading persisted artefacts
maps to one of these classes, so serving code can catch
:class:`PersistenceError` (or the narrower subclasses) and fall back to
rebuilding from the stored dataset instead of crashing on an opaque
``AttributeError`` or ``zipfile.BadZipFile`` from deep inside a codec.
"""

from __future__ import annotations


class PersistenceError(Exception):
    """Base class for every error raised by :mod:`repro.persistence`."""


class SnapshotError(PersistenceError):
    """Base class for snapshot-container failures."""


class SnapshotFormatError(SnapshotError):
    """The file is not a snapshot container, is corrupt, or is inconsistent."""


class SnapshotVersionError(SnapshotError):
    """The snapshot uses a format version this library cannot read.

    Raised with a message naming both versions and the producing library
    version, so operators know whether to upgrade the library or rebuild
    the snapshot from the persisted dataset.
    """

