"""Columnar index snapshots: versioned binary save / memcpy-level load.

The paper positions WaZI for deployments where "index construction can be
performed offline ... and deployed for an extended amount of time".  This
module is that workflow's persistence layer:

* :func:`save_snapshot` serialises a built Z-index-family index
  (:class:`~repro.zindex.ZIndex` and subclasses — WaZI, Base, the
  ablations) as its flat coordinate columns, packed ``(n_leaves, 4)`` bbox
  table, skip-pointer columns and tree-structure tables inside the
  container of :mod:`repro.persistence.container`;
* :func:`load_snapshot` restores a queryable index from those arrays in
  O(n) memcpy-level work — no split strategy, density estimator or
  workload evaluation is ever re-run, and the loaded index answers every
  query with byte-identical results, ordering and cost counters;
* :func:`save_rebuild_snapshot` covers the rest of the index zoo: it
  persists the dataset columns plus the build recipe, and
  :func:`load_snapshot` replays the recipe through
  :func:`repro.engine.build_index` — deterministic given the seed, and
  still free of per-point JSON overhead.

Both kinds record what the index was built from the same way: a
:class:`BuildRecipe` (index name, workload rectangles, parameters) stored
as the manifest's ``build`` section plus a ``workload_rects`` member, so
every load can restore it and one matcher can compare it with a request.

Format-version negotiation is strict and friendly: snapshots written by a
*newer* library raise :class:`SnapshotVersionError` naming both versions;
corrupt or foreign files raise :class:`SnapshotFormatError`; both inherit
:class:`SnapshotError` so serving code can fall back to a rebuild with one
``except`` clause.  The container layout and compatibility rules are
specified in ``docs/PERSISTENCE.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Point, Rect, points_from_arrays, points_to_arrays
from repro.persistence.arrays import rects_from_array, rects_to_array
from repro.persistence.container import (
    PathLike,
    read_container,
    write_container,
)
from repro.persistence.errors import SnapshotFormatError, SnapshotVersionError
from repro.zindex.base import ZIndex, ZIndexSnapshotState

#: Current snapshot format version.  Bump on any incompatible layout change;
#: the loader refuses newer versions with a friendly error and keeps reading
#: every older version listed in ``_READABLE_VERSIONS``.
SNAPSHOT_FORMAT_VERSION = 1
_READABLE_VERSIONS = (1,)

#: Manifest ``kind`` for a structural Z-index snapshot.
KIND_ZINDEX = "zindex-structure"
#: Manifest ``kind`` for a dataset + build-recipe snapshot.
KIND_REBUILD = "rebuild-recipe"
#: Manifest ``kind`` for a standalone workload container.
KIND_WORKLOAD = "workload"

#: Index-name aliases :func:`repro.engine.build_index` accepts, mapped to
#: the canonical build key a :class:`BuildRecipe` records.
_INDEX_ALIASES = {
    "wazi_nosk": "wazi-sk",
    "wazi-noskip": "wazi-sk",
    "base_sk": "base+sk",
    "basesk": "base+sk",
}

#: The ``build`` fields an *adapted* recipe must still match: its layout
#: was re-derived from observed traffic, superseding the request's
#: workload, seed and page size, but not the index or the dataset.
_ADAPTED_IDENTITY = ("name", "kwargs", "num_points", "dataset_fingerprint")

#: Member-name prefix under which an index snapshot embeds its observed
#: workload history (so one file restores both the structure and what the
#: engine learned about its traffic).
_HISTORY_PREFIX = "history_"


def json_clone(value) -> Optional[Dict]:
    """JSON round-trip of a value, or ``None`` when it is not representable.

    The single encode-or-reject policy for everything that travels in a
    manifest (build kwargs, workload metadata): round-tripping normalises
    JSON-equivalent Python values (tuples → lists, int-keyed dicts →
    strings) so that what a saver records compares equal to what a later
    loader re-encodes.
    """
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError):
        return None


def _mix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (wrapping uint64 arithmetic).

    The nonlinearity matters: summing a *linear* pair combination would
    factorise into per-coordinate sums, making any re-pairing of the same
    x and y multisets collide.
    """
    v = values.copy()
    with np.errstate(over="ignore"):
        v ^= v >> np.uint64(30)
        v *= np.uint64(0xBF58476D1CE4E5B9)
        v ^= v >> np.uint64(27)
        v *= np.uint64(0x94D049BB133111EB)
        v ^= v >> np.uint64(31)
    return v


def dataset_fingerprint(xs: np.ndarray, ys: np.ndarray) -> str:
    """Cheap, order-insensitive fingerprint of a coordinate dataset.

    Recorded in snapshot manifests and compared by
    :meth:`BuildRecipe.matches` so a snapshot saved from a
    *different* dataset of the same size is rebuilt instead of silently
    served.  Each (x, y) pair is hashed through a nonlinear 64-bit mix and
    the hashes summed, so any permutation of the same multiset of points
    (the caller's order vs the snapshot's curve order) produces the same
    value while re-paired coordinates do not.  This guards against
    accidental mismatches, not adversarial collisions.
    """
    a = np.ascontiguousarray(xs, dtype=np.float64).view(np.uint64)
    b = np.ascontiguousarray(ys, dtype=np.float64).view(np.uint64)
    with np.errstate(over="ignore"):
        paired = a * np.uint64(0x9E3779B97F4A7C15) + b
    hashed = _mix64(paired)
    return f"{int(hashed.sum(dtype=np.uint64)):016x}-{int(a.shape[0])}"


def workload_fingerprint(rects: np.ndarray) -> str:
    """Order-*sensitive* fingerprint of a workload rectangle table.

    Query order can matter (adaptive baselines crack on it), so each row's
    hash is salted with its position before summing.
    """
    table = np.ascontiguousarray(rects, dtype=np.float64).reshape(-1, 4)
    n = table.shape[0]
    bits = table.view(np.uint64)
    with np.errstate(over="ignore"):
        rows = _mix64(bits[:, 0] * np.uint64(0x9E3779B97F4A7C15) + bits[:, 1])
        rows = _mix64(rows * np.uint64(0x9E3779B97F4A7C15) + bits[:, 2])
        rows = _mix64(rows * np.uint64(0x9E3779B97F4A7C15) + bits[:, 3])
        salted = rows * _mix64(np.arange(1, n + 1, dtype=np.uint64))
    return f"{int(salted.sum(dtype=np.uint64)):016x}-{n}"


@dataclass(frozen=True)
class BuildRecipe:
    """What :func:`repro.engine.build_index` was asked for.

    ``name`` is the canonical build key (aliases such as ``wazi_nosk`` map
    to it), ``workload`` the rectangles the layout was derived from and
    ``kwargs`` the extra constructor options.  ``adapted`` marks a recipe
    re-derived from observed traffic by
    :meth:`~repro.engine.SpatialEngine.adapt`.  Both snapshot kinds store
    it as :meth:`section` plus a ``workload_rects`` member; the dataset is
    not part of it.
    """

    name: str
    workload: Tuple[Rect, ...] = ()
    leaf_capacity: int = 64
    seed: Optional[int] = 0
    kwargs: Dict = field(default_factory=dict)
    adapted: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.canonical_name(self.name))
        object.__setattr__(self, "workload", tuple(self.workload))
        object.__setattr__(self, "kwargs", dict(self.kwargs))

    @staticmethod
    def canonical_name(name: str) -> str:
        """The build key of an index name: lower-cased, aliases resolved."""
        key = str(name).lower()
        return _INDEX_ALIASES.get(key, key)

    def build(self, points: Sequence[Point]):
        """Run the recipe on ``points`` through :func:`repro.engine.build_index`."""
        from repro.engine import build_index  # lazily: repro.engine imports this package

        return build_index(
            self.name, points, self.workload,
            leaf_capacity=self.leaf_capacity, seed=self.seed, **self.kwargs,
        )

    def section(self, xs: np.ndarray, ys: np.ndarray) -> Optional[Dict]:
        """The manifest ``build`` record of this recipe over the dataset
        ``xs``/``ys``, or ``None`` when ``kwargs`` are not
        JSON-serialisable."""
        kwargs = json_clone(self.kwargs)
        if kwargs is None:
            return None
        rects = rects_to_array(self.workload)
        section = {
            "name": self.name,
            "leaf_capacity": int(self.leaf_capacity),
            "seed": None if self.seed is None else int(self.seed),
            "kwargs": kwargs,
            "num_points": int(len(xs)),
            "num_queries": int(rects.shape[0]),
            "dataset_fingerprint": dataset_fingerprint(xs, ys),
            "workload_fingerprint": workload_fingerprint(rects),
        }
        if self.adapted:
            section["adapted"] = True
        return section

    def matches(self, stored, xs: np.ndarray, ys: np.ndarray) -> bool:
        """Whether a stored ``build`` section records this recipe over the
        dataset ``xs``/``ys``.

        Field-by-field equality with :meth:`section`, except that an
        ``adapted`` section only has to agree on the index, its extra
        kwargs and the dataset.  A missing or malformed section, or a
        recipe that cannot be stored, never matches.
        """
        if not isinstance(stored, dict):
            return False
        expected = self.section(xs, ys)
        if expected is None:
            return False
        if stored.get("adapted"):
            return all(stored.get(key) == expected[key] for key in _ADAPTED_IDENTITY)
        return stored == expected


def _store_recipe(
    manifest: Dict, arrays: Dict[str, np.ndarray], recipe: BuildRecipe, xs, ys
) -> bool:
    """Record ``recipe`` as the manifest's ``build`` section plus the
    ``workload_rects`` member.  Returns ``False``, storing nothing, when
    its kwargs are not JSON-serialisable."""
    section = recipe.section(xs, ys)
    if section is None:
        return False
    manifest["build"] = section
    arrays["workload_rects"] = rects_to_array(recipe.workload)
    return True


def _read_recipe(
    path: PathLike, manifest: Dict, arrays: Dict[str, np.ndarray]
) -> Optional[BuildRecipe]:
    """The recipe :func:`_store_recipe` recorded, or ``None`` when the
    snapshot has no ``build`` section."""
    build = manifest.get("build")
    if build is None:
        return None
    if not isinstance(build, dict) or "name" not in build:
        raise SnapshotFormatError(f"{path} holds a malformed build section: {build!r}")
    if "workload_rects" not in arrays:
        raise SnapshotFormatError(f"{path} is missing snapshot array 'workload_rects'")
    kwargs = build.get("kwargs") or {}
    if not isinstance(kwargs, dict):
        raise SnapshotFormatError(f"{path} build kwargs are not a mapping: {kwargs!r}")
    seed = build.get("seed", 0)
    try:
        return BuildRecipe(
            name=str(build["name"]),
            workload=rects_from_array(arrays["workload_rects"]),
            leaf_capacity=int(build.get("leaf_capacity", 64)),
            seed=None if seed is None else int(seed),
            kwargs=kwargs,
            adapted=bool(build.get("adapted", False)),
        )
    except (TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"{path} holds a malformed build recipe: {exc}") from exc


def _store_history(manifest: Dict, arrays: Dict[str, np.ndarray], history) -> None:
    """Embed a non-empty observed-workload history under ``history_*``."""
    if history is None or not len(history):
        return
    manifest["workload_history"] = _workload_manifest_section(history)
    for name, table in _workload_members(history).items():
        arrays[_HISTORY_PREFIX + name] = table


def _workload_members(workload) -> Dict[str, np.ndarray]:
    """The container members a :class:`~repro.workloads.Workload` serialises to."""
    return {name: np.ascontiguousarray(table) for name, table in workload.tables().items()}


def _workload_manifest_section(workload) -> Dict:
    """The JSON metadata block stored alongside a workload's tables."""
    metadata = workload.metadata()
    cloned = json_clone(metadata)
    if cloned is None:
        raise TypeError(
            f"workload metadata must be JSON-serialisable, got {metadata!r}"
        )
    return cloned


def _workload_from_members(
    path: PathLike, section: Dict, arrays: Dict[str, np.ndarray], prefix: str = ""
):
    """Rebuild a Workload from container members (optionally prefixed)."""
    from repro.workloads.workload import Workload

    names = ("ranges", "knn_probes", "knn_k", "radius_probes", "radius_radii")
    tables = {}
    for name in names:
        member = prefix + name
        if member not in arrays:
            raise SnapshotFormatError(f"{path} is missing workload array {member!r}")
        tables[name] = arrays[member]
    if not isinstance(section, dict):
        raise SnapshotFormatError(f"{path} workload metadata is not a mapping")
    try:
        return Workload.from_tables(tables, section)
    except (ValueError, TypeError) as exc:
        raise SnapshotFormatError(f"{path} holds an inconsistent workload: {exc}") from exc


def save_workload(workload, path: PathLike) -> Dict:
    """Persist a :class:`~repro.workloads.Workload` as its own container.

    The columnar tables become NPY members, the metadata travels in the
    manifest.  Saving the same workload twice produces byte-identical
    files (the container pins member timestamps), so workload artefacts
    can live in content-addressed stores.  Returns the written manifest.
    """
    manifest = {
        "kind": KIND_WORKLOAD,
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "library_version": _library_version(),
        "workload": _workload_manifest_section(workload),
    }
    write_container(path, manifest, _workload_members(workload))
    return manifest


def load_workload(path: PathLike):
    """Restore a workload saved by :func:`save_workload`."""
    manifest, arrays = read_container(path)
    _check_version(path, manifest)
    if manifest.get("kind") != KIND_WORKLOAD:
        raise SnapshotFormatError(
            f"{path} stores snapshot kind {manifest.get('kind')!r}, not a workload; "
            f"use load_snapshot for index snapshots"
        )
    return _workload_from_members(path, manifest.get("workload") or {}, arrays)


def save_snapshot(
    index,
    path: PathLike,
    *,
    recipe: Optional[BuildRecipe] = None,
    workload_history=None,
) -> Dict:
    """Serialise a built Z-index-family index to a binary snapshot.

    Returns the manifest that was written (handy for logging).  Raises
    :class:`TypeError` for indexes outside the Z-index family — persist
    those with :func:`save_rebuild_snapshot`, which stores the dataset and
    build recipe instead of the structure.

    ``recipe`` is the :class:`BuildRecipe` that produced the index.  The
    structure does not retain it, so it is stored alongside (as the
    ``build`` section every snapshot kind shares) for loads to restore and
    for :meth:`repro.engine.SpatialEngine.open` to verify a later request
    against; a recipe whose kwargs are not JSON-serialisable is not
    recorded, and neither is one passed as ``None``.

    ``workload_history`` is an optional :class:`~repro.workloads.Workload`
    (typically an engine's observed-traffic snapshot) embedded in the same
    container under ``history_*`` members, so one file restores both the
    structure and its observed query history
    (:func:`load_snapshot_with_history`).
    """
    if not isinstance(index, ZIndex):
        raise TypeError(
            f"save_snapshot only supports the Z-index family (ZIndex subclasses); "
            f"{type(index).__name__} is not one — use save_rebuild_snapshot(name, "
            f"points, path, ...) to persist its dataset and build recipe instead"
        )
    state = index.snapshot_state()
    manifest = {
        "kind": KIND_ZINDEX,
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "library_version": _library_version(),
        "index": {
            "name": state.index_name,
            "class": state.class_path,
            "leaf_capacity": state.leaf_capacity,
            "max_depth": state.max_depth,
            "use_skipping": state.use_skipping,
            "has_nonmonotone_ordering": state.has_nonmonotone_ordering,
            "extent": None if state.extent is None else list(state.extent),
            "num_points": state.num_points,
            "num_leaves": int(state.arrays["leaf_starts"].shape[0]) - 1,
            "num_nodes": int(state.arrays["tree_kind"].shape[0]),
            "orderings": list(state.orderings),
        },
    }
    arrays = dict(state.arrays)
    if recipe is not None:
        _store_recipe(manifest, arrays, recipe, arrays["flat_x"], arrays["flat_y"])
    _store_history(manifest, arrays, workload_history)
    write_container(path, manifest, arrays)
    return manifest


def save_rebuild_snapshot(
    name: str,
    points: Sequence[Point],
    path: PathLike,
    *,
    workload: Sequence[Rect] = (),
    leaf_capacity: int = 64,
    seed: Optional[int] = 0,
    workload_history=None,
    adapted: bool = False,
    **kwargs,
) -> Dict:
    """Persist a dataset plus the recipe to rebuild any index from the zoo.

    ``name`` and the keyword parameters mirror :func:`repro.engine.build_index`;
    extra ``kwargs`` must be JSON-serialisable (they are stored in the
    manifest and replayed on load).  Loading rebuilds deterministically
    given the stored seed, so round-tripped indexes answer queries exactly
    like a fresh build with the same arguments.

    ``workload_history`` embeds an observed-traffic
    :class:`~repro.workloads.Workload` the same way :func:`save_snapshot`
    does.  ``adapted`` marks the recipe as one re-derived from observed
    traffic by :meth:`~repro.engine.SpatialEngine.adapt`:
    :meth:`~repro.engine.SpatialEngine.open` then treats the stored
    (adapted) workload as superseding the caller's build-time workload
    instead of rebuilding.
    """
    recipe = BuildRecipe(name, workload, leaf_capacity, seed, kwargs, adapted)
    xs, ys = points_to_arrays(points)
    manifest = {
        "kind": KIND_REBUILD,
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "library_version": _library_version(),
    }
    arrays = {"xs": xs, "ys": ys}
    if not _store_recipe(manifest, arrays, recipe, xs, ys):
        raise TypeError(
            f"rebuild-snapshot build kwargs must be JSON-serialisable, got {kwargs!r}"
        )
    _store_history(manifest, arrays, workload_history)
    write_container(path, manifest, arrays)
    return manifest


def _check_version(path: PathLike, manifest: Dict) -> None:
    version = manifest.get("format_version")
    if not isinstance(version, int) or version > SNAPSHOT_FORMAT_VERSION:
        raise SnapshotVersionError(
            f"{path} uses snapshot format version {version!r} (written by library "
            f"{manifest.get('library_version', 'unknown')}), but this library "
            f"({_library_version()}) reads up to {SNAPSHOT_FORMAT_VERSION}; "
            f"upgrade the library, or rebuild the snapshot from the persisted dataset"
        )
    if version not in _READABLE_VERSIONS:
        raise SnapshotVersionError(
            f"{path} uses retired snapshot format version {version!r}; rebuild the "
            f"snapshot from the persisted dataset with this library "
            f"({_library_version()})"
        )


def load_snapshot(path: PathLike, *, mmap: bool = False, validate: bool = True):
    """Restore an index from any snapshot written by this module.

    Dispatches on the manifest ``kind``: structural Z-index snapshots are
    rematerialised in O(n) without re-running construction; rebuild-recipe
    snapshots replay :func:`repro.engine.build_index` on the stored columns.
    Raises :class:`SnapshotVersionError` / :class:`SnapshotFormatError`
    (both :class:`SnapshotError`) instead of ever surfacing a codec
    internal error.  Any embedded workload history is ignored; use
    :func:`load_snapshot_with_history` to get it too.

    ``mmap=True`` opens a structural Z-index snapshot **zero-copy**: the
    flat columns stay in the file, mapped read-only, and the restored index
    holds views into a shared :class:`~repro.storage.buffers.
    MmapColumnStore` — every process mapping the same snapshot shares one
    set of physical pages.  Rebuild-recipe snapshots cannot be mapped
    (they replay construction) and raise :class:`SnapshotFormatError`.
    ``validate=False`` skips the O(n) bounding-box cross-check on load
    (trusted snapshots; serving workers use this so opening a shard does
    not fault in every coordinate page up front).
    """
    return load_snapshot_with_history(path, mmap=mmap, validate=validate)[0]


def load_snapshot_with_history(
    path: PathLike, *, mmap: bool = False, validate: bool = True
):
    """Restore ``(index, observed_workload_or_None)`` from one container.

    The second element is the :class:`~repro.workloads.Workload` history
    embedded by ``save_snapshot(..., workload_history=...)`` (or the
    rebuild-recipe equivalent), or ``None`` when the snapshot predates the
    adaptive lifecycle or simply recorded no traffic.  ``mmap`` /
    ``validate`` behave as in :func:`load_snapshot`.
    """
    return _restore(path, mmap=mmap, validate=validate)[:2]


def _restore(path: PathLike, *, mmap: bool = False, validate: bool = True):
    """``(index, history, recipe, points)`` from one container read.

    ``recipe`` is the stored :class:`BuildRecipe` (``None`` for a
    structural snapshot saved without one) and ``points`` the dataset of a
    rebuild-recipe snapshot (``None`` for a structural one, whose index
    holds its points).  This is what lets
    :meth:`repro.engine.SpatialEngine.load` resume the observe → advise →
    adapt loop exactly where the saving process left off.
    """
    store = None
    if mmap:
        from repro.storage.buffers import MmapColumnStore

        store = MmapColumnStore.open(path)
        manifest, arrays = store.manifest, dict(store.items())
    else:
        manifest, arrays = read_container(path)
    _check_version(path, manifest)
    kind = manifest.get("kind")
    if mmap and kind != KIND_ZINDEX:
        raise SnapshotFormatError(
            f"{path} stores snapshot kind {kind!r}, which cannot be memory-"
            f"mapped; only {KIND_ZINDEX!r} snapshots hold mappable columns"
        )
    if kind == KIND_WORKLOAD:
        raise SnapshotFormatError(
            f"{path} stores a standalone workload, not an index; load it with "
            f"load_workload"
        )
    if kind not in (KIND_ZINDEX, KIND_REBUILD):
        raise SnapshotFormatError(
            f"{path} stores unknown snapshot kind {kind!r}; expected "
            f"{KIND_ZINDEX!r} or {KIND_REBUILD!r}"
        )
    recipe = _read_recipe(path, manifest, arrays)
    points = None
    if kind == KIND_ZINDEX:
        index = _load_zindex(path, manifest, arrays, store=store, validate=validate)
    else:
        index, points = _load_rebuild(path, recipe, arrays)
    history = None
    if "workload_history" in manifest:
        history = _workload_from_members(
            path, manifest.get("workload_history"), arrays, prefix=_HISTORY_PREFIX
        )
    return index, history, recipe, points


def load_workload_history(path: PathLike):
    """Only the embedded observed-workload history of an index snapshot.

    Returns ``None`` when the snapshot carries no history.  Unlike
    :func:`load_snapshot_with_history` this never rebuilds the index (a
    rebuild-recipe snapshot would replay its construction), so it is the
    cheap probe for callers that already hold the index.
    """
    manifest, arrays = read_container(path)
    _check_version(path, manifest)
    if "workload_history" not in manifest:
        return None
    return _workload_from_members(
        path, manifest.get("workload_history"), arrays, prefix=_HISTORY_PREFIX
    )


def _load_zindex(
    path: PathLike,
    manifest: Dict,
    arrays: Dict[str, np.ndarray],
    *,
    store=None,
    validate: bool = True,
):
    info = manifest.get("index")
    if not isinstance(info, dict):
        raise SnapshotFormatError(f"{path} z-index snapshot lacks the index section")
    required = (
        "flat_x", "flat_y", "leaf_starts", "leaf_boxes", "leaf_nonempty",
        "skip_below", "skip_above", "skip_left", "skip_right",
        "tree_kind", "tree_cells", "tree_splits", "tree_orderings",
        "tree_children", "tree_leaf_index",
    )
    missing = [name for name in required if name not in arrays]
    if missing:
        raise SnapshotFormatError(f"{path} is missing snapshot arrays {missing}")
    extent = info.get("extent")
    # One try covers both the manifest-scalar coercions and the structural
    # restore: corrupt values of any shape (a string leaf_capacity, a
    # three-element extent) must surface as SnapshotFormatError, never as a
    # raw ValueError/TypeError that escapes the except-SnapshotError
    # fallback the package documents.
    try:
        state = ZIndexSnapshotState(
            index_name=str(info.get("name", ZIndex.name)),
            class_path=str(info.get("class", "")),
            leaf_capacity=int(info.get("leaf_capacity", 0) or 0),
            max_depth=int(info.get("max_depth", 0) or 0),
            use_skipping=bool(info.get("use_skipping", False)),
            has_nonmonotone_ordering=bool(info.get("has_nonmonotone_ordering", False)),
            extent=None if extent is None else tuple(float(v) for v in extent),
            num_points=int(info.get("num_points", -1)),
            orderings=[str(o) for o in info.get("orderings", [])],
            arrays=arrays,
        )
        if state.leaf_capacity <= 0:
            raise SnapshotFormatError(
                f"{path} records non-positive leaf_capacity {info.get('leaf_capacity')!r}"
            )
        if state.extent is not None and len(state.extent) != 4:
            raise SnapshotFormatError(
                f"{path} records malformed extent {info.get('extent')!r}"
            )
        return ZIndex.from_snapshot_state(state, store=store, validate=validate)
    except SnapshotFormatError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise SnapshotFormatError(f"{path} holds inconsistent snapshot state: {exc}") from exc


def _load_rebuild(
    path: PathLike, recipe: Optional[BuildRecipe], arrays: Dict[str, np.ndarray]
):
    """``(index, points)``: the stored recipe replayed on the stored dataset."""
    if recipe is None:
        raise SnapshotFormatError(f"{path} rebuild snapshot lacks the build section")
    for name in ("xs", "ys"):
        if name not in arrays:
            raise SnapshotFormatError(f"{path} is missing snapshot array {name!r}")
    try:
        points = points_from_arrays(arrays["xs"], arrays["ys"])
        return recipe.build(points), points
    except (TypeError, ValueError) as exc:
        raise SnapshotFormatError(
            f"{path} rebuild recipe could not be replayed "
            f"({recipe.name!r}, kwargs {recipe.kwargs!r}): {exc}"
        ) from exc


def _library_version() -> str:
    from repro import __version__

    return __version__
