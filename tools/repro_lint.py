#!/usr/bin/env python3
"""Repository-specific AST lint (the ``static-analysis`` CI gate).

Hazard classes that generic linters don't cover here:

* **LNT001** — constructing a process/thread pool directly
  (``multiprocessing.Pool``, ``ProcessPoolExecutor``,
  ``ThreadPoolExecutor``, ``get_context(...).Pool``) anywhere outside
  :mod:`repro.parallel`.  The repo's concurrency contract (DESIGN.md
  §13) routes every pool through ``repro.parallel.WorkerPool`` so the
  fork-safety checks, ``REPRO_PARALLEL`` escape hatch, and worker
  accounting cannot be bypassed.
* **LNT002** — a bare ``except:`` (swallows ``KeyboardInterrupt`` and
  ``SystemExit``); never allowed.
* **LNT003** — ``except Exception``/``except BaseException`` without a
  justification pragma.  Overbroad handlers in the search/execution hot
  paths have repeatedly hidden genuine defects; a site that really must
  be a catch-all (worker-pool crash barriers, the service accept loop,
  hostile-document decoding) carries ``# lint: allow-broad-except`` on
  the handler line or the line above, which makes the judgment call
  reviewable.
* **LNT004** — calling ``time.sleep`` anywhere outside the backoff
  helper in :mod:`repro.runtime.faults`.  Retry timing is centralized
  there (DESIGN.md §16) so the schedule stays policy-driven and
  testable; a stray sleep elsewhere is either an uncontrolled retry
  loop or a latency hack the fault model cannot see.  (The async
  service waits via ``asyncio.sleep``, which is not flagged.)
* **LNT005** — reading the process environment (``os.environ``,
  ``os.getenv``) anywhere outside the three modules that each own one
  documented ``REPRO_*`` switch (``REPRO_FAULTS``, ``REPRO_PARALLEL``,
  ``REPRO_VERIFY``).  Execution lanes are selected by backend name and
  costing has a single lane — neither hangs off a process-wide knob; a
  new environment read is a new hidden mode and has to be argued for
  by extending the allow-list.
* **LNT006** — calling ``dataclasses.fields`` anywhere outside
  :mod:`repro.ocal.ast`.  The AST walkers iterate the per-class
  ``CHILD_FIELDS`` / ``field_names`` tables built once there
  (DESIGN.md §6.1); ``dataclasses.fields`` rebuilds its tuple on every
  call and was a hot-path cost of the search.  A use on a non-AST
  dataclass that is off the hot path carries ``# lint: allow-fields``
  on the call line or the line above.

Usage: ``python tools/repro_lint.py [paths...]`` (default: ``src``).
Exit 0 when clean, 1 with ``path:line: CODE message`` findings, 2 on
usage errors (unreadable path, syntax error in a checked file).
"""

from __future__ import annotations

import ast
import os
import sys

PRAGMA = "lint: allow-broad-except"
FIELDS_PRAGMA = "lint: allow-fields"

#: callables whose *direct* construction is banned outside repro.parallel.
BANNED_POOLS = {"Pool", "ProcessPoolExecutor", "ThreadPoolExecutor"}

#: files allowed to build pools: the one blessed wrapper.
POOL_ALLOWED_FILES = {os.path.join("repro", "parallel.py")}

#: files allowed to call time.sleep: the one blessed backoff helper.
SLEEP_ALLOWED_FILES = {os.path.join("repro", "runtime", "faults.py")}

#: files allowed to read the environment: one documented switch each.
ENV_ALLOWED_FILES = {
    os.path.join("repro", "runtime", "faults.py"),
    os.path.join("repro", "parallel.py"),
    os.path.join("repro", "search", "synthesizer.py"),
}
ENV_READERS = {"environ", "getenv"}

#: the one file allowed to call dataclasses.fields without a pragma.
FIELDS_ALLOWED_FILES = {os.path.join("repro", "ocal", "ast.py")}


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _has_pragma(
    lines: list[str], lineno: int, pragma: str = PRAGMA
) -> bool:
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines) and pragma in lines[candidate - 1]:
            return True
    return False


def _path_exempt(path: str, allowed_files: set[str]) -> bool:
    normalized = path.replace(os.sep, "/")
    return any(
        normalized.endswith(allowed.replace(os.sep, "/"))
        for allowed in allowed_files
    )


def _imports_time_sleep(tree: ast.AST) -> bool:
    """True when the module does ``from time import sleep`` (any alias
    keeping the name ``sleep``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if (alias.asname or alias.name) == "sleep":
                    return True
    return False


def _is_env_read(node: ast.AST) -> bool:
    """``os.environ`` / ``os.getenv`` as an attribute, or either name
    pulled in by ``from os import ...``."""
    if isinstance(node, ast.Attribute):
        return (
            node.attr in ENV_READERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        )
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in ENV_READERS for alias in node.names)
    return False


def _imports_dataclass_fields(tree: ast.AST) -> bool:
    """True when the module does ``from dataclasses import fields``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            for alias in node.names:
                if (alias.asname or alias.name) == "fields":
                    return True
    return False


def _is_fields_call(node: ast.Call, bare_fields_is_dataclasses: bool) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "fields":
        return isinstance(func.value, ast.Name) and func.value.id == (
            "dataclasses"
        )
    if isinstance(func, ast.Name) and func.id == "fields":
        return bare_fields_is_dataclasses
    return False


def _is_sleep_call(node: ast.Call, bare_sleep_is_time: bool) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "sleep":
        return isinstance(func.value, ast.Name) and func.value.id == "time"
    if isinstance(func, ast.Name) and func.id == "sleep":
        return bare_sleep_is_time
    return False


def check_source(path: str, source: str) -> list[tuple[str, int, str, str]]:
    """All findings for one file as ``(path, line, code, message)``."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    findings: list[tuple[str, int, str, str]] = []
    pool_ok = _path_exempt(path, POOL_ALLOWED_FILES)
    sleep_ok = _path_exempt(path, SLEEP_ALLOWED_FILES)
    bare_sleep_is_time = _imports_time_sleep(tree)
    env_ok = _path_exempt(path, ENV_ALLOWED_FILES)
    fields_ok = _path_exempt(path, FIELDS_ALLOWED_FILES)
    bare_fields_is_dataclasses = _imports_dataclass_fields(tree)
    for node in ast.walk(tree):
        if not env_ok and _is_env_read(node):
            findings.append(
                (
                    path,
                    node.lineno,
                    "LNT005",
                    "environment read outside the modules that own a "
                    "documented REPRO_* switch; select behaviour by "
                    "argument or backend name",
                )
            )
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if not pool_ok and name in BANNED_POOLS:
                findings.append(
                    (
                        path,
                        node.lineno,
                        "LNT001",
                        f"direct {name} construction; use "
                        f"repro.parallel.WorkerPool (DESIGN.md §13)",
                    )
                )
            if not sleep_ok and _is_sleep_call(node, bare_sleep_is_time):
                findings.append(
                    (
                        path,
                        node.lineno,
                        "LNT004",
                        "time.sleep outside the backoff helper; use "
                        "repro.runtime.faults.sleep_for_retry "
                        "(DESIGN.md §16)",
                    )
                )
            if (
                not fields_ok
                and _is_fields_call(node, bare_fields_is_dataclasses)
                and not _has_pragma(lines, node.lineno, FIELDS_PRAGMA)
            ):
                findings.append(
                    (
                        path,
                        node.lineno,
                        "LNT006",
                        "dataclasses.fields outside repro.ocal.ast; walk "
                        "ast.CHILD_FIELDS / ast.field_names, or justify "
                        f"with '# {FIELDS_PRAGMA}'",
                    )
                )
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None:
                findings.append(
                    (
                        path,
                        node.lineno,
                        "LNT002",
                        "bare 'except:' swallows KeyboardInterrupt; "
                        "name the exceptions",
                    )
                )
                continue
            names = _handler_names(node.type)
            broad = names & {"Exception", "BaseException"}
            if broad and not _has_pragma(lines, node.lineno):
                caught = sorted(broad)[0]
                findings.append(
                    (
                        path,
                        node.lineno,
                        "LNT003",
                        f"'except {caught}' without "
                        f"'# {PRAGMA}' justification pragma",
                    )
                )
    return findings


def _handler_names(node: ast.expr) -> set[str]:
    names: set[str] = set()
    targets = node.elts if isinstance(node, ast.Tuple) else [node]
    for target in targets:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _python_files(paths: list[str]) -> list[str]:
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for base, _dirs, names in os.walk(path):
                files.extend(
                    os.path.join(base, name)
                    for name in names
                    if name.endswith(".py")
                )
        else:
            raise FileNotFoundError(path)
    return sorted(files)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = argv or ["src"]
    try:
        files = _python_files(paths)
    except FileNotFoundError as error:
        print(f"repro_lint: no such path {error}", file=sys.stderr)
        return 2
    findings: list[tuple[str, int, str, str]] = []
    for path in files:
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            findings.extend(check_source(path, source))
        except (OSError, SyntaxError) as error:
            print(f"repro_lint: cannot check {path}: {error}", file=sys.stderr)
            return 2
    for path, lineno, code, message in sorted(findings):
        print(f"{path}:{lineno}: {code} {message}")
    if findings:
        print(
            f"repro_lint: {len(findings)} finding(s) in "
            f"{len(files)} file(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
