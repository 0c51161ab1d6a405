"""Lock-discipline analyzer: ``# guarded-by:`` annotations, enforced.

The serve stack and the compile cache share mutable counters across
threads, each guarded by a lock the surrounding code promises to hold.
That promise lives in comments -- which rot.  This analyzer makes the
comments checkable:

* a field initialised with a trailing (or immediately preceding)
  ``# guarded-by: <lock>`` comment -- in ``__init__`` for instance
  fields, in the class body for dataclass fields -- is *guarded*;
* every ``self.<field>`` read or write in any other method must occur
  lexically inside a ``with self.<lock>:`` (or ``with <lock>:``)
  block, else CHK601 fires;
* a field annotated with two different locks is CHK602;
* a deliberate unguarded access (a racy-but-monotonic fast path, say)
  is suppressed with ``# unguarded-ok`` on the access line.

The analysis is lexical, not a happens-before proof: it will not catch
a lock released early or an alias smuggled out, and nested functions
are assumed to run with no locks held (the conservative direction).
It catches the common regression -- a new method touching a counter
without taking the lock -- which is the one that actually happens.

Method *calls* on guarded fields' parents and non-``self`` bases
(``outcome.deduped``) are out of scope; attribute chains like
``self.stats.deduped`` resolve through the field name only when every
annotation in the scanned set agrees on a single lock for that name.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

from repro.check.diagnostics import Diagnostic

_GUARD_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_SUPPRESS_RE = re.compile(r"#\s*unguarded-ok\b")


def default_lock_paths() -> "list[Path]":
    """The concurrency-sensitive modules the repo lints by default:
    every serve module, the compile cache, and the pass manager (its
    spec analysis memo)."""
    package = Path(__file__).resolve().parents[1]
    paths = sorted((package / "serve").glob("*.py"))
    paths.append(package / "flow" / "cache.py")
    paths.append(package / "flow" / "manager.py")
    return paths


def _comment_lines(source: str) -> "tuple[dict[int, str], set[int], set[int]]":
    """Map line -> lock name for ``guarded-by`` comments, the set of
    lines whose comment stands alone (annotating the *next* line, not
    trailing the statement it shares a line with), and the set of
    ``unguarded-ok`` suppression lines."""
    guards: dict[int, str] = {}
    standalone: set[int] = set()
    suppressed: set[int] = set()
    reader = io.StringIO(source).readline
    for token in tokenize.generate_tokens(reader):
        if token.type != tokenize.COMMENT:
            continue
        match = _GUARD_RE.search(token.string)
        if match:
            line = token.start[0]
            guards[line] = match.group(1)
            if token.line[: token.start[1]].strip() == "":
                standalone.add(line)
        if _SUPPRESS_RE.search(token.string):
            suppressed.add(token.start[0])
    return guards, standalone, suppressed


def _assigned_names(stmt) -> "list[tuple[str, bool]]":
    """Names a class-body or ``__init__`` statement assigns, as
    (field, is_self_attribute) pairs."""
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    names: list[tuple[str, bool]] = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append((target.id, False))
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            names.append((target.attr, True))
    return names


class _ClassGuards:
    """The guarded fields of one class: field name -> lock name."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.fields: dict[str, str] = {}


def _collect_class(
    node: ast.ClassDef,
    guards: "dict[int, str]",
    standalone: "set[int]",
    path: Path,
    diagnostics: "list[Diagnostic]",
) -> _ClassGuards:
    info = _ClassGuards(node.name)

    def note(field: str, lock: str, lineno: int) -> None:
        known = info.fields.get(field)
        if known is not None and known != lock:
            diagnostics.append(
                Diagnostic(
                    code="CHK602",
                    severity="error",
                    location=f"{path.name}:{lineno}",
                    message=(
                        f"field {field!r} of {info.name} annotated "
                        f"guarded-by {lock!r} but already guarded-by "
                        f"{known!r}"
                    ),
                )
            )
            return
        info.fields[field] = lock

    def scan(stmt) -> None:
        lock = guards.get(stmt.lineno)
        if lock is None and stmt.lineno - 1 in standalone:
            lock = guards.get(stmt.lineno - 1)
        if lock is None:
            return
        for field, _ in _assigned_names(stmt):
            note(field, lock, stmt.lineno)

    for stmt in node.body:
        scan(stmt)
        if (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "__init__"
        ):
            for inner in ast.walk(stmt):
                if isinstance(inner, (ast.Assign, ast.AnnAssign)):
                    scan(inner)
    return info


def _lock_names(with_node) -> "set[str]":
    """Lock names a ``with`` statement acquires: ``with self._lock:``
    and ``with lock:`` both count, by terminal name."""
    names: set[str] = set()
    for item in with_node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute):
            names.add(expr.attr)
        elif isinstance(expr, ast.Name):
            names.add(expr.id)
    return names


def _check_method(
    func,
    info: _ClassGuards,
    shared: "dict[str, str]",
    suppressed: "set[int]",
    path: Path,
    diagnostics: "list[Diagnostic]",
) -> None:
    def guard_for(attribute: ast.Attribute) -> "str | None":
        base = attribute.value
        if isinstance(base, ast.Name) and base.id == "self":
            return info.fields.get(attribute.attr)
        # Deeper self-rooted chains (self.stats.deduped): resolve by
        # field name, but only through unambiguous annotations.
        root = base
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id == "self":
            return shared.get(attribute.attr)
        return None

    def visit(node, held: "frozenset[str]", skip_attrs: "set[int]") -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held | _lock_names(node)
            for item in node.items:
                visit(item.context_expr, held, skip_attrs)
                if item.optional_vars is not None:
                    visit(item.optional_vars, held, skip_attrs)
            for stmt in node.body:
                visit(stmt, inner, skip_attrs)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def may run after the enclosing with exits.
            for stmt in node.body:
                visit(stmt, frozenset(), skip_attrs)
            return
        if isinstance(node, ast.Lambda):
            visit(node.body, frozenset(), skip_attrs)
            return
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            # self._lock.acquire(), self._memory.move_to_end(...):
            # the *call* is not a field access, but its receiver is --
            # check the receiver chain, skip only the method name.
            skip_attrs = skip_attrs | {id(node.func)}
        if (
            isinstance(node, ast.Attribute)
            and id(node) not in skip_attrs
            and node.lineno not in suppressed
        ):
            lock = guard_for(node)
            if lock is not None and lock not in held:
                diagnostics.append(
                    Diagnostic(
                        code="CHK601",
                        severity="error",
                        location=f"{path.name}:{node.lineno}",
                        message=(
                            f"field {node.attr!r} is guarded by "
                            f"{lock!r} but accessed without holding it"
                        ),
                        suggestion=f"wrap the access in 'with self.{lock}:'",
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, held, skip_attrs)

    for stmt in func.body:
        visit(stmt, frozenset(), set())


def check_lock_discipline(paths=None) -> "list[Diagnostic]":
    """Run the lock-discipline lint over ``paths`` (default: the serve
    stack and the compile cache) and return the findings."""
    if paths is None:
        paths = default_lock_paths()
    paths = [Path(p) for p in paths]

    diagnostics: list[Diagnostic] = []
    parsed = []
    for path in paths:
        source = path.read_text()
        guards, standalone, suppressed = _comment_lines(source)
        tree = ast.parse(source, filename=str(path))
        parsed.append((path, tree, guards, standalone, suppressed))

    # Pass 1: every class's guarded fields, plus the cross-file map for
    # attribute chains (a field name maps through only when all
    # annotations agree on its lock).
    classes: list[tuple[Path, ast.ClassDef, _ClassGuards, set[int]]] = []
    seen: dict[str, set[str]] = {}
    for path, tree, guards, standalone, suppressed in parsed:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                info = _collect_class(
                    node, guards, standalone, path, diagnostics
                )
                classes.append((path, node, info, suppressed))
                for field, lock in info.fields.items():
                    seen.setdefault(field, set()).add(lock)
    shared = {
        field: next(iter(locks))
        for field, locks in seen.items()
        if len(locks) == 1
    }

    # Pass 2: check every method body except __init__ (construction
    # happens-before any other thread can hold a reference).  Classes
    # with no guarded fields of their own still get checked when a
    # cross-class chain (self.stats.deduped) could resolve.
    for path, node, info, suppressed in classes:
        if not info.fields and not shared:
            continue
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name == "__init__":
                continue
            _check_method(stmt, info, shared, suppressed, path, diagnostics)
    return diagnostics
