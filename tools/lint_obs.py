#!/usr/bin/env python
"""Lint: no stray ``print()``; no silent excepts in serve/; no
``http.server`` outside ``src/repro/obs/``; no raw file writes.

Four AST checks over ``src/repro`` (``make lint-obs``):

* library output must flow through ``repro.obs.get_logger`` so it
  carries a level and respects ``--log-level`` / ``--log-json`` — any
  ``print(...)`` outside the allowlisted CLI entry point fails;
* the serve daemon (``src/repro/serve/``) and the out-of-core subsystem
  (``src/repro/scale/``) are long-running supervisors whose whole job
  is *accounting* for failures — a bare ``except:`` or an ``except
  Exception:`` whose body is only ``pass``/``...`` hides a fault from
  the quarantine counters, the breaker, the shard manifest checks and
  the logs, so both are rejected there;
* the HTTP surface is ``repro.obs.server``'s single responsibility —
  importing ``http.server`` anywhere else in the library scatters
  socket lifecycles and bypasses the endpoint's scrape counters, dump
  retries and access-log routing, so it is rejected outside
  ``src/repro/obs/``;
* checkpoints, model artifacts and run manifests are verified by
  per-file sha256 or read back whole — a partial file from a crashed
  raw ``open(..., "w")`` / ``write_text`` / ``write_bytes`` would
  either fail that verification or, worse, be manifested before it is
  durable, so every write in ``src/repro`` must go through
  ``repro.robustness.checkpoint.atomic_write`` (fsync + rename). The
  few writes that are non-atomic on purpose are named, with their
  reason, in :data:`RAW_WRITE_ALLOWLIST`; an entry that no longer
  matches a write is reported too, so the list cannot go stale.

AST-based on purpose: docstrings contain ``print()`` usage examples and
prose about ``except`` clauses that a grep would false-positive on.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Files (relative to src/repro) where print() remains acceptable.
ALLOWED = {
    Path("cli.py"),  # argparse entry point; output goes through get_logger,
    # but SystemExit-adjacent fallbacks may print
}

#: Directories (relative to src/repro) under the silent-except ban.
STRICT_EXCEPT_DIRS = frozenset({Path("serve"), Path("scale")})

#: The only directory (relative to src/repro) allowed to import
#: ``http.server``.
HTTP_SERVER_DIR = Path("obs")

#: The raw file writes that are non-atomic on purpose:
#: (file relative to src/repro, qualified function) -> why.
RAW_WRITE_ALLOWLIST = {
    (Path("robustness/checkpoint.py"), "atomic_write"):
        "the atomic write itself: temp file, fsync, rename",
    (Path("scale/store.py"), "ShardWriter.add_shard"):
        "streams a shard that only the store manifest commits",
    (Path("serve/alarms.py"), "AlarmStream.emit_pending"):
        "append-only alarm sink, rebuilt by reconcile_sink on resume",
    (Path("obs/server.py"), "TextfileExporter.write_once"):
        "periodic scrape file, renamed into place and rewritten each interval",
    (Path("serve/replay.py"), "write_stream"):
        "streamed CLI output",
    (Path("cli.py"), "_cmd_replay"):
        "paced CLI output a concurrent consumer tails while it grows",
}


def find_prints(tree: ast.AST) -> list[tuple[int, str]]:
    return [
        (node.lineno, "print() call")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


def _is_silent_body(body: list[ast.stmt]) -> bool:
    """Whether an except body does nothing but swallow."""
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        )
        for stmt in body
    )


def find_silent_excepts(tree: ast.AST) -> list[tuple[int, str]]:
    offenders: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            offenders.append(
                (node.lineno, "bare `except:` (name the exception type)")
            )
        elif (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
            and _is_silent_body(node.body)
        ):
            offenders.append(
                (
                    node.lineno,
                    f"`except {node.type.id}: pass` swallows the fault — "
                    "count, log or re-raise it",
                )
            )
    return offenders


def find_http_server_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """``http.server`` reached any way: ``import http.server``,
    ``from http.server import ...``, or ``from http import server``."""
    offenders: list[tuple[int, str]] = []
    message = (
        "http.server import outside src/repro/obs/ — the live endpoint "
        "lives in repro.obs.server; talk to it instead"
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name == "http.server" or alias.name.startswith("http.server.")
                for alias in node.names
            ):
                offenders.append((node.lineno, message))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "http.server" or module.startswith("http.server."):
                offenders.append((node.lineno, message))
            elif module == "http" and any(
                alias.name == "server" for alias in node.names
            ):
                offenders.append((node.lineno, message))
    return offenders


def _calls_by_function(tree: ast.AST):
    """Yield ``(qualified enclosing function, call node)`` for every
    call; module-level calls get ``""``."""
    def visit(node: ast.AST, scope: tuple[str, ...]):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield from visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call):
                yield ".".join(scope), child
            yield from visit(child, scope)

    yield from visit(tree, ())


def find_raw_writes(tree: ast.AST) -> list[tuple[int, str, str]]:
    """Write-mode ``open()`` and ``Path.write_text``/``write_bytes``,
    as ``(line, message, qualified enclosing function)``.

    ``open()`` with a non-literal mode is flagged too: if the mode can
    vary at runtime, the call can write, and those bytes must only
    reach disk through ``atomic_write``.
    """
    offenders: list[tuple[int, str, str]] = []
    route = "route file writes through robustness.checkpoint.atomic_write"
    for function, node in _calls_by_function(tree):
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "write_text",
            "write_bytes",
        ):
            offenders.append(
                (node.lineno, f".{node.func.attr}() — {route}", function)
            )
        elif isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = None
            if len(node.args) >= 2:
                mode = node.args[1]
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
            if mode is None:
                continue  # default "r" is a read
            if not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            ):
                offenders.append(
                    (node.lineno, f"open() with dynamic mode — {route}", function)
                )
            elif any(flag in mode.value for flag in "wax+"):
                offenders.append(
                    (
                        node.lineno,
                        f'open(..., "{mode.value}") — {route}',
                        function,
                    )
                )
    return offenders


def main() -> int:
    offenders: list[str] = []
    unused = set(RAW_WRITE_ALLOWLIST)
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        tree = ast.parse(path.read_text(), filename=str(path))
        findings: list[tuple[int, str]] = []
        if relative not in ALLOWED:
            findings.extend(find_prints(tree))
        if any(strict in relative.parents for strict in STRICT_EXCEPT_DIRS):
            findings.extend(find_silent_excepts(tree))
        if HTTP_SERVER_DIR not in relative.parents:
            findings.extend(find_http_server_imports(tree))
        for lineno, message, function in find_raw_writes(tree):
            if (relative, function) in RAW_WRITE_ALLOWLIST:
                unused.discard((relative, function))
            else:
                findings.append((lineno, message))
        for lineno, message in sorted(findings):
            offenders.append(f"src/repro/{relative}:{lineno}: {message}")
    for relative, function in sorted(unused):
        offenders.append(
            f"src/repro/{relative}: {function} is in RAW_WRITE_ALLOWLIST "
            "but makes no raw write — drop the entry"
        )
    if offenders:
        print("\n".join(offenders))
        print(f"\n{len(offenders)} lint finding(s)")
        return 1
    print(
        "lint-obs: no stray print() calls in src/repro; "
        "no silent excepts in src/repro/serve or src/repro/scale; "
        "no http.server imports outside src/repro/obs; "
        "no raw file writes in src/repro outside RAW_WRITE_ALLOWLIST "
        "(atomic_write only)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
