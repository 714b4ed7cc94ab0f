"""Which code under ``src/repro`` does a test run never execute?

    PYTHONPATH=src python scripts/line_coverage.py run OUT.json [-- PYTEST ARGS]
    python scripts/line_coverage.py report OUT.json [--against PARENT.json]

A line-coverage map built on the stdlib ``sys.settrace`` (``coverage`` is
not a dependency).  ``run`` executes pytest with this module loaded as a
plugin (``-p line_coverage --line-coverage OUT.json`` does the same from a
plain pytest command line, with ``scripts/`` on ``PYTHONPATH``): every
line event in a file under ``src/repro`` is recorded, in the main thread
and in threads started afterwards.  At the end of the session the hits
are matched against the source as it is on disk and written to OUT.json
with the analysis:

- a *never-run function* is a ``def`` whose body has executable lines and
  none of them ran;
- a *never-run block* is a maximal run of sibling statements inside code
  that did run, none of which ran, holding at least
  :data:`MIN_BLOCK_STATEMENTS` executable statements (nested ones
  included).

``report`` prints both lists; ``--against`` compares with a second run
(typically the parent commit's) and lists the functions that ran there
and never run here, matched by file and qualified name.  It exits 1 when
there is any, so it can gate a change.

Only the driver process is traced: code that runs only inside spawned
pool workers (``engine/backend/worker.py``'s task loop) shows as never
run.  Tracing slows the suite about 3x.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"

#: Smallest never-run block worth listing, in executable statements.
MIN_BLOCK_STATEMENTS = 4


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------


class Tracer:
    """``sys.settrace`` hook recording line hits per file under ``root``."""

    def __init__(self, root: pathlib.Path = SOURCE):
        self.prefix = str(root) + "/"
        self.hits: dict[str, set[int]] = {}
        self._watched: dict[str, set[int] | None] = {}

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        hits = self._watched.get(filename, False)
        if hits is False:
            hits = None
            if filename.startswith(self.prefix):
                hits = self.hits.setdefault(filename, set())
            self._watched[filename] = hits
        if hits is None:
            return None
        hits.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line

        return line

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def executable_lines(source: str, filename: str) -> set[int]:
    """Lines that carry bytecode in any code object of the module."""
    lines: set[int] = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _bodies(node):
    """The statement lists directly under ``node``."""
    for name in ("body", "orelse", "finalbody"):
        block = getattr(node, name, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(node, "handlers", ()):
        yield handler.body
    for case in getattr(node, "cases", ()):
        yield case.body


class _Analysis:
    def __init__(self, relpath: str, tree: ast.Module,
                 executable: set[int], hits: set[int]):
        self.relpath = relpath
        self.executable = executable
        self.hits = hits
        self.functions: list[dict] = []
        self.blocks: list[dict] = []
        self._walk(tree.body, "")

    def _lines(self, node) -> set[int]:
        return {line for line in range(node.lineno, node.end_lineno + 1)
                if line in self.executable}

    def _ran(self, node) -> bool:
        return any(line in self.hits
                   for line in range(node.lineno, node.end_lineno + 1))

    def _statements(self, node) -> int:
        count = 1 if self._lines(node) else 0
        for body in _bodies(node):
            count += sum(self._statements(child) for child in body)
        return count

    def _walk(self, body: list, scope: str) -> None:
        run: list = []
        for node in body + [None]:
            if node is not None and self._lines(node) and not self._ran(node):
                run.append(node)
                continue
            self._flush(run, scope)
            run = []
            if node is not None:
                self._descend(node, scope)

    def _flush(self, run: list, scope: str) -> None:
        statements = sum(self._statements(node) for node in run)
        if statements >= MIN_BLOCK_STATEMENTS:
            self.blocks.append({
                "file": self.relpath, "scope": scope or "<module>",
                "first": run[0].lineno, "last": run[-1].end_lineno,
                "statements": statements})

    def _descend(self, node, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{scope}.{node.name}" if scope else node.name
            body_lines = set().union(*(self._lines(s) for s in node.body))
            ran = any(line in self.hits for line in body_lines)
            if body_lines:
                self.functions.append({
                    "file": self.relpath, "name": qualname,
                    "line": node.lineno, "ran": ran,
                    "lines": node.end_lineno - node.lineno + 1})
            if ran:
                self._walk(node.body, qualname)
            return
        if isinstance(node, ast.ClassDef):
            qualname = f"{scope}.{node.name}" if scope else node.name
            self._walk(node.body, qualname)
            return
        for body in _bodies(node):
            self._walk(body, scope)


def analyse(hits: dict[str, set[int]], root: pathlib.Path = SOURCE) -> dict:
    """Functions (with a ``ran`` flag) and never-run blocks of every
    module under ``root``, given the line hits of a traced run."""
    functions: list[dict] = []
    blocks: list[dict] = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        relpath = str(path.relative_to(root.parent.parent))
        analysis = _Analysis(relpath, ast.parse(source),
                             executable_lines(source, str(path)),
                             hits.get(str(path), set()))
        functions += analysis.functions
        blocks += analysis.blocks
    return {"functions": functions, "blocks": blocks}


# ----------------------------------------------------------------------
# pytest plugin
# ----------------------------------------------------------------------

_tracer: Tracer | None = None


def pytest_addoption(parser):
    parser.addoption("--line-coverage", metavar="PATH", default=None,
                     help="trace line hits under src/repro and write the "
                          "never-run functions and blocks to PATH (JSON)")


def pytest_load_initial_conftests(early_config, parser, args):
    # Before the first conftest imports the package, so module-level
    # lines count.
    global _tracer
    if early_config.known_args_namespace.line_coverage:
        _tracer = Tracer()
        _tracer.start()


def pytest_unconfigure(config):
    global _tracer
    out = config.getoption("--line-coverage")
    if _tracer is None or not out:
        return
    _tracer.stop()
    result = analyse(_tracer.hits)
    _tracer = None
    pathlib.Path(out).write_text(json.dumps(result, indent=1) + "\n")


# ----------------------------------------------------------------------
# reporter
# ----------------------------------------------------------------------


def summary(result: dict) -> dict:
    never = [f for f in result["functions"] if not f["ran"]]
    return {"functions": len(result["functions"]),
            "never_run_functions": len(never),
            "never_run_function_lines": sum(f["lines"] for f in never),
            "never_run_blocks": len(result["blocks"]),
            "never_run_block_statements": sum(
                b["statements"] for b in result["blocks"])}


def format_report(result: dict) -> str:
    stats = summary(result)
    lines = [f"never-run functions: {stats['never_run_functions']} of "
             f"{stats['functions']} ({stats['never_run_function_lines']} "
             f"lines)"]
    lines += [f"  {f['file']}:{f['line']} {f['name']} ({f['lines']} lines)"
              for f in result["functions"] if not f["ran"]]
    lines.append(f"never-run blocks of >= {MIN_BLOCK_STATEMENTS} "
                 f"statements: {stats['never_run_blocks']} "
                 f"({stats['never_run_block_statements']} statements)")
    lines += [f"  {b['file']}:{b['first']}-{b['last']} in {b['scope']} "
              f"({b['statements']} statements)" for b in result["blocks"]]
    return "\n".join(lines)


def newly_never_run(result: dict, parent: dict) -> list[dict]:
    """Functions that ran in ``parent`` and never run in ``result``."""
    ran_before = {(f["file"], f["name"]) for f in parent["functions"]
                  if f["ran"]}
    return [f for f in result["functions"]
            if not f["ran"] and (f["file"], f["name"]) in ran_before]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scripts/line_coverage.py",
        description="Never-run functions and blocks under src/repro.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run pytest under the tracer")
    run.add_argument("out", help="JSON file to write")
    run.add_argument("pytest_args", nargs="*",
                     help="arguments for pytest (after --)")
    report = commands.add_parser("report", help="print a run's lists")
    report.add_argument("result", help="JSON file written by run")
    report.add_argument("--against", metavar="PARENT",
                        help="a second run to compare with")
    args = parser.parse_args(argv)

    if args.command == "run":
        import pytest

        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
        return pytest.main(["-p", "line_coverage", "--line-coverage",
                            args.out, *args.pytest_args])

    result = json.loads(pathlib.Path(args.result).read_text())
    print(format_report(result))
    if args.against is None:
        return 0
    parent = json.loads(pathlib.Path(args.against).read_text())
    before, after = summary(parent), summary(result)
    print(f"\n{'':28s}{'parent':>10s}{'this':>10s}")
    for key in after:
        print(f"{key:28s}{before[key]:>10d}{after[key]:>10d}")
    lost = newly_never_run(result, parent)
    print(f"ran at the parent, never run here: {len(lost)}")
    for f in lost:
        print(f"  {f['file']}:{f['line']} {f['name']}")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
