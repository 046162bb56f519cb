"""The snapshot container: a ZIP of NPY members plus a JSON manifest.

Layout (documented in ``docs/PERSISTENCE.md``)::

    snapshot.zip
    ├── manifest.json        UTF-8 JSON, always first; everything scalar
    └── <name>.npy           one uncompressed NPY member per array column

Members are stored **uncompressed** (``ZIP_STORED``): loading an array is
then a single sequential read into a freshly allocated buffer — effectively
a memcpy from the page cache — instead of an inflate pass, which is the
point of a binary snapshot format.  Member timestamps are pinned so that
saving the same index twice produces byte-identical files (handy for
content-addressed artifact stores and for tests).

Zero-copy mapping
-----------------
Array members are additionally written at **64-byte-aligned data offsets**
(via ZIP extra-field padding, the same trick ``zipalign`` uses for APKs):
because members are stored rather than deflated, the NPY payload of each
array sits verbatim in the file at a known offset, so :func:`map_container`
can hand back ``numpy.memmap`` views straight into the snapshot file —
no allocation, no copy, and the OS page cache is shared between every
process that maps the same snapshot.  NumPy's own NPY writer pads headers
to 64-byte multiples (``ARRAY_ALIGN``), so an aligned member start implies
an aligned array-data start, satisfying any vectorised consumer.
Containers written before alignment existed remain fully mappable —
``numpy.memmap`` accepts arbitrary offsets — just without the alignment
guarantee.

This module knows nothing about *what* is stored; it only enforces the
container framing: the magic ``format`` marker, the manifest/array
consistency, and readable NPY members.  Kind- and version-negotiation live
with the codecs in :mod:`repro.persistence.snapshot`.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zipfile
from pathlib import Path
from typing import Dict, Mapping, Tuple, Union

import numpy as np

from repro.persistence.errors import SnapshotFormatError

PathLike = Union[str, Path]

#: Value of the manifest's ``format`` field identifying our containers.
CONTAINER_FORMAT = "repro-snapshot"

_MANIFEST_MEMBER = "manifest.json"
_ARRAY_SUFFIX = ".npy"

# Fixed ZIP member timestamp (ZIP's epoch): identical input produces
# identical bytes regardless of when the snapshot is written.
_FIXED_DATE_TIME = (1980, 1, 1, 0, 0, 0)

#: Alignment (bytes) of every array member's data offset within the file.
MEMBER_ALIGNMENT = 64

# Private extra-field id carrying the alignment padding.  Ids with the high
# byte >= 0x80 sit outside the registered ranges; 0xD935 mirrors the value
# used by zipalign-style padding so unzip tools simply ignore it.
_ALIGN_EXTRA_ID = 0xD935

# Size of a ZIP local file header up to (not including) the variable-length
# file name, per APPNDX 4.3.7.
_LOCAL_HEADER_SIZE = 30
_LOCAL_HEADER_MAGIC = b"PK\x03\x04"


def write_container(
    path: PathLike, manifest: Dict, arrays: Mapping[str, np.ndarray]
) -> None:
    """Write a manifest + arrays container to ``path`` atomically enough.

    The manifest is augmented with the ``format`` marker and an ``arrays``
    section recording each member's dtype and shape (purely informational —
    the NPY headers remain authoritative on load).  Array names must be
    usable as ZIP member stems.
    """
    manifest = dict(manifest)
    manifest["format"] = CONTAINER_FORMAT
    manifest["arrays"] = {
        name: {"dtype": str(array.dtype), "shape": list(array.shape)}
        for name, array in sorted(arrays.items())
    }
    payload = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    target = Path(path)
    # Write to a uniquely named sibling temp file and rename into place: a
    # crash mid-write never leaves a truncated container at the final path,
    # and concurrent writers of the same snapshot each own their scratch
    # file, so a loader sees one complete snapshot or the other — never a
    # torn mix.  The name is generated here (pid + random) rather than via
    # mkstemp so the file is created by ordinary open(), giving the same
    # umask-honouring permissions a direct write would — mkstemp's 0600
    # would survive os.replace and make cross-user serving fail.
    scratch = target.with_name(
        f"{target.name}.{os.getpid()}-{os.urandom(6).hex()}.tmp"  # repro-lint: disable=deterministic-io -- entropy names only the scratch file; the bytes written through it stay deterministic
    )
    try:
        with zipfile.ZipFile(scratch, "w", compression=zipfile.ZIP_STORED) as archive:
            archive.writestr(_member_info(_MANIFEST_MEMBER), payload)
            for name in sorted(arrays):
                array = np.ascontiguousarray(arrays[name])
                buffer = io.BytesIO()
                np.lib.format.write_array(buffer, array, allow_pickle=False)
                member = name + _ARRAY_SUFFIX
                info = _member_info(member)
                # Pad the local header's extra field so the member *data*
                # (the NPY bytes) starts on a MEMBER_ALIGNMENT boundary —
                # this is what lets map_container() return aligned memmaps.
                # After a completed writestr the stream sits exactly where
                # the next local header will go.
                header_end = (
                    archive.fp.tell()
                    + _LOCAL_HEADER_SIZE
                    + len(member.encode("utf-8"))
                )
                info.extra = _alignment_extra(header_end)
                archive.writestr(info, buffer.getvalue())
        os.replace(scratch, target)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise


def _alignment_extra(header_end: int) -> bytes:
    """Extra-field bytes padding a member whose data would start at ``header_end``.

    Returns ``b""`` when already aligned.  An extra field needs at least the
    4-byte (id, size) prologue, so paddings of 1-3 bytes borrow a whole
    extra alignment block.
    """
    pad = (-header_end) % MEMBER_ALIGNMENT
    if pad == 0:
        return b""
    if pad < 4:
        pad += MEMBER_ALIGNMENT
    return struct.pack("<HH", _ALIGN_EXTRA_ID, pad - 4) + b"\x00" * (pad - 4)


def _open_archive(target: Path) -> zipfile.ZipFile:
    try:
        return zipfile.ZipFile(target, "r")
    except (zipfile.BadZipFile, OSError) as exc:
        raise SnapshotFormatError(
            f"{target} is not a repro snapshot container (unreadable as ZIP: {exc})"
        ) from exc


def read_manifest(path: PathLike) -> Dict:
    """Read and validate only the manifest of a container.

    The cheap probe for callers that need to know *what* a snapshot stores
    (kind, index name, build recipe) before paying for the array members —
    e.g. :func:`repro.engine.build_or_load_index` checking that an existing
    file actually matches the requested index.  Same
    :class:`SnapshotFormatError` behaviour as :func:`read_container`.
    """
    target = Path(path)
    with _open_archive(target) as archive:
        return _read_manifest_member(target, archive)


def read_container(path: PathLike) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Read back ``(manifest, arrays)`` from a container written above.

    Raises :class:`SnapshotFormatError` when the file is not one of our
    containers (not a ZIP, missing/duplicate manifest, wrong ``format``
    marker, undeclared or unreadable members).  Format *version* checks are
    deliberately left to the caller — it owns the compatibility policy.
    """
    target = Path(path)
    with _open_archive(target) as archive:
        names = archive.namelist()
        manifest = _read_manifest_member(target, archive)
        declared = manifest.get("arrays")
        if not isinstance(declared, dict):
            raise SnapshotFormatError(f"{target} manifest lacks the arrays section")
        arrays: Dict[str, np.ndarray] = {}
        for name in declared:
            member = name + _ARRAY_SUFFIX
            if member not in names:
                raise SnapshotFormatError(
                    f"{target} declares array {name!r} but has no {member} member"
                )
            try:
                with archive.open(member) as handle:
                    arrays[name] = np.lib.format.read_array(handle, allow_pickle=False)
            except (ValueError, OSError, zipfile.BadZipFile) as exc:
                raise SnapshotFormatError(
                    f"{target} array member {member} is unreadable: {exc}"
                ) from exc
    return manifest, arrays


def _read_manifest_member(target: Path, archive: zipfile.ZipFile) -> Dict:
    if _MANIFEST_MEMBER not in archive.namelist():
        raise SnapshotFormatError(
            f"{target} is not a repro snapshot container (no {_MANIFEST_MEMBER})"
        )
    try:
        manifest = json.loads(archive.read(_MANIFEST_MEMBER).decode("utf-8"))
    except (ValueError, UnicodeDecodeError, zipfile.BadZipFile, OSError) as exc:
        # ValueError covers JSON decoding; BadZipFile covers a CRC mismatch
        # inside the member itself — both are "corrupt file", not a crash.
        raise SnapshotFormatError(f"{target} has a corrupt manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != CONTAINER_FORMAT:
        raise SnapshotFormatError(
            f"{target} is not a repro snapshot container "
            f"(manifest format marker is "
            f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r})"
        )
    return manifest


def _member_info(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=_FIXED_DATE_TIME)
    info.compress_type = zipfile.ZIP_STORED
    # Regular file, rw-r--r--: keeps extraction behaviour predictable.
    info.external_attr = 0o100644 << 16
    return info


# ----------------------------------------------------------------------
# zero-copy mapping
# ----------------------------------------------------------------------
def map_container(path: PathLike) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Read ``(manifest, arrays)`` with every array memory-mapped read-only.

    The returned arrays are ``numpy.memmap`` views directly into the
    container file (zero-length arrays, which cannot be mapped, come back
    as ordinary read-only arrays).  Nothing is copied: N processes mapping
    the same snapshot share one set of physical pages through the OS page
    cache, which is what makes per-worker incremental memory near zero in
    sharded serving.

    Each memmap owns its file handle, so no archive object needs to stay
    open.  Raises :class:`SnapshotFormatError` on anything that cannot be
    mapped safely — compressed members, undeclared arrays, malformed NPY
    headers.
    """
    target = Path(path)
    with _open_archive(target) as archive:
        names = archive.namelist()
        manifest = _read_manifest_member(target, archive)
        declared = manifest.get("arrays")
        if not isinstance(declared, dict):
            raise SnapshotFormatError(f"{target} manifest lacks the arrays section")
        offsets: Dict[str, int] = {}
        for name in declared:
            member = name + _ARRAY_SUFFIX
            if member not in names:
                raise SnapshotFormatError(
                    f"{target} declares array {name!r} but has no {member} member"
                )
            info = archive.getinfo(member)
            if info.compress_type != zipfile.ZIP_STORED:
                raise SnapshotFormatError(
                    f"{target} member {member} is compressed and cannot be "
                    f"memory-mapped; rewrite the snapshot with this library"
                )
            offsets[name] = _member_data_offset(target, archive, info)
    arrays: Dict[str, np.ndarray] = {}
    for name, offset in offsets.items():
        try:
            arrays[name] = _map_npy_member(target, offset)
        except (ValueError, OSError) as exc:
            raise SnapshotFormatError(
                f"{target} array member {name + _ARRAY_SUFFIX} cannot be "
                f"memory-mapped: {exc}"
            ) from exc
    return manifest, arrays


def array_member_offsets(path: PathLike) -> Dict[str, int]:
    """Absolute file offset of each array member's NPY payload.

    Diagnostic companion to :func:`map_container` (tests assert the
    alignment invariant through it; tools can use it to slice members out
    of a container by hand).
    """
    target = Path(path)
    with _open_archive(target) as archive:
        manifest = _read_manifest_member(target, archive)
        declared = manifest.get("arrays")
        if not isinstance(declared, dict):
            raise SnapshotFormatError(f"{target} manifest lacks the arrays section")
        return {
            name: _member_data_offset(target, archive, archive.getinfo(name + _ARRAY_SUFFIX))
            for name in declared
            if name + _ARRAY_SUFFIX in archive.namelist()
        }


def _member_data_offset(target: Path, archive: zipfile.ZipFile, info: zipfile.ZipInfo) -> int:
    """Absolute offset of a stored member's data, via its local header.

    The central directory's ``header_offset`` points at the local header;
    the data follows the header's *own* name and extra fields, which may
    differ in length from the central directory's copies (our alignment
    padding lives only in the local header).
    """
    handle = archive.fp
    handle.seek(info.header_offset)
    header = handle.read(_LOCAL_HEADER_SIZE)
    if len(header) != _LOCAL_HEADER_SIZE or header[:4] != _LOCAL_HEADER_MAGIC:
        raise SnapshotFormatError(
            f"{target} member {info.filename} has a corrupt local header"
        )
    name_len, extra_len = struct.unpack("<HH", header[26:30])
    return info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len


def _map_npy_member(path: Path, offset: int) -> np.ndarray:
    """Map one NPY payload at ``offset`` in ``path`` as a read-only array."""
    with open(path, "rb") as handle:
        handle.seek(offset)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise SnapshotFormatError(f"unsupported NPY format version {version}")
        data_offset = handle.tell()
    if dtype.hasobject:
        raise SnapshotFormatError("object arrays cannot be memory-mapped")
    if int(np.prod(shape)) == 0:
        # mmap(2) refuses zero-length mappings; an empty array carries no
        # shared state anyway, so a plain (read-only) array is equivalent.
        empty = np.empty(shape, dtype=dtype)
        empty.setflags(write=False)
        return empty
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=data_offset,
        shape=tuple(shape),
        order="F" if fortran_order else "C",
    )
