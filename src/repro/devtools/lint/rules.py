"""The repro-lint rule catalog.

Each rule mechanizes one invariant this codebase has already paid for in
review time or bugs; ``docs/STATIC_ANALYSIS.md`` records the history.  The
rules are heuristics over the AST — same-function presence checks, not data
flow — tuned so that every firing on this tree is either a real defect or a
case worth an explicit, reasoned suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.devtools.lint import Finding, ModuleContext, rule

# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c`` (None for anything else)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _called_names(func: ast.AST) -> Set[str]:
    """Trailing attribute/function names of every call inside ``func``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = node.func
            if isinstance(target, ast.Attribute):
                names.add(target.attr)
            elif isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _call_linenos(func: ast.AST, names: Set[str]) -> List[int]:
    """Line numbers of calls whose trailing name is in ``names``."""
    linenos: List[int] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = node.func
            name = target.attr if isinstance(target, ast.Attribute) else (
                target.id if isinstance(target, ast.Name) else None
            )
            if name in names:
                linenos.append(node.lineno)
    return linenos


def _is_self_attr(node: ast.AST, attrs: Optional[Set[str]] = None) -> Optional[str]:
    """``self.<attr>`` → the attribute name (restricted to ``attrs`` if given)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attrs is None or node.attr in attrs)
    ):
        return node.attr
    return None


def _assign_targets(node: ast.stmt) -> List[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


# ---------------------------------------------------------------------------
# mutation-must-invalidate
# ---------------------------------------------------------------------------

#: Rebinding these attributes changes what the flat scan cache mirrors.
_STRUCTURE_ATTRS = {"root", "leaflist"}
#: Packed skip/box columns: writing them stales any retained packed view.
_PACKED_COLUMNS = {"boxes", "nonempty", "below", "above", "left", "right"}
#: Calls that count as repairing/invalidating the derived state.
_INVALIDATORS = {
    "_invalidate_flat", "_rebuild_leaflist", "invalidate_packed",
    "refresh", "refresh_entry", "_ensure_writable", "_promote", "bump",
    "build_lookahead_pointers", "repair_lookahead_pointers",
    "refresh_lookahead_for_leaf",
}
#: Functions that *are* the build/repair machinery.
_MUTATION_EXEMPT_PREFIXES = (
    "__init__", "_build", "_rebuild", "from_", "refresh",
    "_invalidate", "_adopt", "_ensure", "_promote",
)


@rule(
    "mutation-must-invalidate",
    "structural mutations in zindex/storage must invalidate derived caches "
    "in the same function",
)
def check_mutation_must_invalidate(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.in_package("zindex", "storage"):
        return
    for func, _cls in ctx.functions():
        if func.name.startswith(_MUTATION_EXEMPT_PREFIXES):
            continue
        called = _called_names(func)
        if called & _INVALIDATORS:
            continue
        assigns_packed_sentinel = False
        mutations: List[Tuple[ast.AST, str]] = []
        for node in ast.walk(func):
            for target in _assign_targets(node) if isinstance(node, ast.stmt) else []:
                attr = _is_self_attr(target, _STRUCTURE_ATTRS)
                if attr is not None:
                    mutations.append((target, f"self.{attr} = ... rebinds index structure"))
                if _is_self_attr(target, {"_packed"}) is not None:
                    assigns_packed_sentinel = True
                if isinstance(target, ast.Subscript):
                    col = _is_self_attr(target.value, _PACKED_COLUMNS)
                    if col is not None:
                        mutations.append(
                            (target, f"self.{col}[...] = ... writes a packed column")
                        )
        if assigns_packed_sentinel:
            # Dropping the packed cache (self._packed = None) is itself the
            # invalidation LeafList.append/splice_span use.
            continue
        for target, what in mutations:
            yield ctx.finding(
                target, "mutation-must-invalidate",
                f"{what} but {func.name}() never calls an invalidator "
                f"({', '.join(sorted(_INVALIDATORS)[:3])}, ...); stale flat/packed "
                "caches silently serve old data",
            )


# ---------------------------------------------------------------------------
# cow-before-write
# ---------------------------------------------------------------------------

_PROMOTERS = {"_promote", "_ensure_writable"}
_COW_EXEMPT = ("__init__", "__setstate__", "from_", "adopt_")


@rule(
    "cow-before-write",
    "item-assignment to buffers of a copy-on-write class must follow a "
    "_promote/_ensure_writable call in the same method",
)
def check_cow_before_write(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        method_names = {
            child.name for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if not (method_names & _PROMOTERS):
            continue
        for child in node.body:
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if child.name in _PROMOTERS or child.name.startswith(_COW_EXEMPT):
                continue
            promote_lines = _call_linenos(child, _PROMOTERS)
            first_promote = min(promote_lines) if promote_lines else None
            for stmt in ast.walk(child):
                for target in _assign_targets(stmt) if isinstance(stmt, ast.stmt) else []:
                    if not isinstance(target, ast.Subscript):
                        continue
                    attr = _is_self_attr(target.value)
                    if attr is None:
                        continue
                    if first_promote is None or first_promote > target.lineno:
                        yield ctx.finding(
                            target, "cow-before-write",
                            f"{node.name}.{child.name}() writes self.{attr}[...] "
                            "without first calling _promote()/_ensure_writable(); "
                            "a view-backed buffer would corrupt its source",
                        )


# ---------------------------------------------------------------------------
# no-hidden-rng
# ---------------------------------------------------------------------------

_SEED_CALLS = {"random.seed", "np.random.seed", "numpy.random.seed"}


@rule(
    "no-hidden-rng",
    "library code must thread seeds through rng=/seed= parameters, never "
    "hard-code them",
)
def check_no_hidden_rng(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted is None:
            continue
        tail = dotted.rsplit(".", 1)[-1]
        if tail == "default_rng" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, int):
                yield ctx.finding(
                    node, "no-hidden-rng",
                    f"literal seed default_rng({first.value}) hides determinism "
                    "from callers; accept a seed=/rng= parameter instead",
                )
        elif dotted in _SEED_CALLS:
            yield ctx.finding(
                node, "no-hidden-rng",
                f"{dotted}(...) reseeds global state; thread an explicit "
                "Generator through rng=/seed= parameters",
            )


# ---------------------------------------------------------------------------
# error-taxonomy
# ---------------------------------------------------------------------------

_BARE_EXCEPTIONS = {"ValueError", "KeyError", "TypeError", "RuntimeError"}
_LOAD_PREFIXES = (
    "load", "_load", "read", "_read", "open", "_open",
    "map", "_map", "from_", "restore", "_restore",
)


@rule(
    "error-taxonomy",
    "persistence/serving load paths raise the SnapshotError/PersistenceError "
    "hierarchy, never bare built-in exceptions",
)
def check_error_taxonomy(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.in_package("persistence", "serving"):
        return
    for func, cls in ctx.functions():
        if not func.name.startswith(_LOAD_PREFIXES):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _BARE_EXCEPTIONS:
                where = f"{cls.name}.{func.name}" if cls else func.name
                yield ctx.finding(
                    node, "error-taxonomy",
                    f"{where}() raises bare {name} on a load path; raise a "
                    "repro.persistence.errors class (SnapshotFormatError, "
                    "SnapshotVersionError, ...) so serving fallbacks can catch "
                    "PersistenceError",
                )


# ---------------------------------------------------------------------------
# no-boxing-in-hot-path
# ---------------------------------------------------------------------------

_BOXER_NAME_PARTS = ("box", "points")
_BOXER_EXEMPT = {"__iter__", "__init__"}


def _is_boxer(name: str) -> bool:
    return name in _BOXER_EXEMPT or any(part in name for part in _BOXER_NAME_PARTS)


@rule(
    "no-boxing-in-hot-path",
    "hot-path modules must not construct Point objects or call .points() "
    "outside whitelisted boxer functions",
)
def check_no_boxing_in_hot_path(ctx: ModuleContext) -> Iterator[Finding]:
    if "hot-path" not in ctx.tags:
        return
    for func, cls in ctx.functions():
        if _is_boxer(func.name):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            where = f"{cls.name}.{func.name}" if cls else func.name
            if isinstance(node.func, ast.Name) and node.func.id == "Point":
                yield ctx.finding(
                    node, "no-boxing-in-hot-path",
                    f"{where}() constructs Point objects in a hot-path module; "
                    "keep the scan columnar and box only at the result boundary",
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "points":
                yield ctx.finding(
                    node, "no-boxing-in-hot-path",
                    f"{where}() calls .points() in a hot-path module; iterate "
                    "the columns instead of materializing boxed points",
                )


# ---------------------------------------------------------------------------
# keyword-only-api-growth
# ---------------------------------------------------------------------------


@rule(
    "keyword-only-api-growth",
    "public API callables with two or more defaulted parameters must make "
    "them keyword-only",
)
def check_keyword_only_api_growth(ctx: ModuleContext) -> Iterator[Finding]:
    if "public-api" not in ctx.tags:
        return
    for func, cls in ctx.functions():
        if func.name.startswith("_"):
            continue
        defaulted = len(func.args.defaults)
        if defaulted >= 2:
            where = f"{cls.name}.{func.name}" if cls else func.name
            yield ctx.finding(
                func, "keyword-only-api-growth",
                f"{where}() has {defaulted} defaulted positional parameters; "
                "adding one later silently shifts positional callers — put "
                "them after a bare * (keyword-only)",
            )


# ---------------------------------------------------------------------------
# pickle-safety
# ---------------------------------------------------------------------------

_VIEW_MARKERS = {"_promote", "_ensure_writable", "from_view", "adopt_view"}


@rule(
    "pickle-safety",
    "view-backed (COW/mmap) classes must define __getstate__ and "
    "__setstate__ so pickling materializes owned arrays",
)
def check_pickle_safety(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        method_names = {
            child.name for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if not (method_names & _VIEW_MARKERS):
            continue
        missing = {"__getstate__", "__setstate__"} - method_names
        if missing:
            yield ctx.finding(
                node, "pickle-safety",
                f"{node.name} holds view-backed buffers "
                f"({', '.join(sorted(method_names & _VIEW_MARKERS))}) but lacks "
                f"{' and '.join(sorted(missing))}; default pickling would "
                "capture borrowed memory or an mmap handle",
            )


# ---------------------------------------------------------------------------
# deterministic-io
# ---------------------------------------------------------------------------

_NONDETERMINISTIC_CALLS = {
    "time.time", "time.time_ns", "time.monotonic",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "os.urandom",
    "uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5",
}
_WRITE_PREFIXES = ("write", "_write", "save", "_save", "dump", "_dump")


@rule(
    "deterministic-io",
    "container write paths must produce byte-identical output: no clocks, "
    "no urandom, no set-ordered iteration",
)
def check_deterministic_io(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.in_package("persistence"):
        return
    for func, cls in ctx.functions():
        if not func.name.startswith(_WRITE_PREFIXES):
            continue
        where = f"{cls.name}.{func.name}" if cls else func.name
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted in _NONDETERMINISTIC_CALLS:
                    yield ctx.finding(
                        node, "deterministic-io",
                        f"{where}() calls {dotted}(); written container bytes "
                        "must not depend on clocks or entropy",
                    )
            elif isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                is_set = isinstance(it, ast.Set) or (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Name)
                    and it.func.id in {"set", "frozenset"}
                )
                if is_set:
                    yield ctx.finding(
                        it, "deterministic-io",
                        f"{where}() iterates a set while writing; hash order "
                        "varies per process — sort first",
                    )


# ---------------------------------------------------------------------------
# kernel-parity
# ---------------------------------------------------------------------------

#: Sorts whose default algorithm (introsort) is not stable: without
#: ``kind="stable"`` equal keys land in unspecified order, breaking the
#: byte-identical tie-break the kernel tiers share.
_UNSTABLE_SORTS = {"argsort", "sort"}
#: JIT decorators whose ``fastmath`` option licenses reassociation — the
#: compiled tier would stop being IEEE-identical to the NumPy reference.
_JIT_DECORATORS = {"njit", "jit"}


@rule(
    "kernel-parity",
    "kernel-tier modules must stay bitwise reproducible: sorts need "
    'kind="stable" and JIT decorators must not enable fastmath',
)
def check_kernel_parity(ctx: ModuleContext) -> Iterator[Finding]:
    if "kernel-parity" not in ctx.tags:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name in _UNSTABLE_SORTS:
            kind = next(
                (kw for kw in node.keywords if kw.arg == "kind"), None
            )
            stable = (
                kind is not None
                and isinstance(kind.value, ast.Constant)
                and kind.value.value == "stable"
            )
            if not stable:
                yield ctx.finding(
                    node, "kernel-parity",
                    f'{name}() without kind="stable" in a kernel-parity '
                    "module; the default introsort breaks the shared "
                    "tie-break on equal keys",
                )
        elif name in _JIT_DECORATORS:
            for keyword in node.keywords:
                if keyword.arg != "fastmath":
                    continue
                disabled = (
                    isinstance(keyword.value, ast.Constant)
                    and not keyword.value.value
                )
                if not disabled:
                    yield ctx.finding(
                        node, "kernel-parity",
                        f"{name}(fastmath=...) in a kernel-parity module; "
                        "fastmath licenses reassociation and the compiled "
                        "tier stops being IEEE-identical to the reference",
                    )
