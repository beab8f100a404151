"""The library's scope as a checked rule: every top-level def and class of
src/lowdeg is reached, by references, from a command (cli.main), from a
name that perfbench/*.py contains, or from a row of the README's "Paper
quantities and guarded oracles" table.

Nodes are the top-level def, class and assignment statements of
src/lowdeg/*.py; a node refers to every top-level definition, in any
module, named by a Name or Attribute identifier inside it.  Docstrings and
comments refer to nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("paper quantity", "guarded oracle")


def _readme_kept_rows():
    """(module, name, kind) per row of the README's Paper quantities table."""
    readme = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    section = readme.split("## Paper quantities and guarded oracles", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            function, kind, _what = (cell.strip() for cell in re.split(r"(?<!\\)\|", line.strip().strip("|")))
            module, name = function.strip("`").split(".")
            rows.append((module, name, kind))
    return rows


def _src_nodes(src: Path) -> dict:
    """(module, name) -> (top-level statement, identifiers it names), for
    each name a def, class or assignment binds."""
    nodes = {}
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
            else:
                continue
            refs = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(top)
                    if isinstance(node, (ast.Name, ast.Attribute))}
            for name in names:
                nodes[path.stem, name] = (top, refs)
    return nodes


def _reached(nodes: dict, roots) -> set:
    by_name = {}
    for module, name in nodes:
        by_name.setdefault(name, []).append((module, name))
    seen, todo = set(), [root for root in roots if root in nodes]
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo += [target for ref in nodes[key][1] for target in by_name.get(ref, ())]
    return seen


def scope_violations(root: Path, rows) -> list[str]:
    """One line per top-level def or class of root/src/lowdeg that no root
    reaches, and per stale row: a row naming no such def, or naming one
    that a command or perfbench already reaches."""
    nodes = _src_nodes(root / "src" / "lowdeg")
    bench = set(re.findall(r"\w+", " ".join(path.read_text(encoding="utf-8")
                                             for path in sorted((root / "perfbench").glob("*.py")))))
    called = {("cli", "main")} | {key for key in nodes if key[1] in bench}
    listed = {(module, name) for module, name, _kind in rows}
    reached = _reached(nodes, called | listed)
    problems = []
    for (module, name), (top, _refs) in nodes.items():
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and (module, name) not in reached:
            problems.append(f"unreached: {module}.{name} ({top.end_lineno - top.lineno + 1} lines): "
                            "move it to tests/ or add a README row")
    with_caller = _reached(nodes, called)
    for module, name, _kind in rows:
        top = nodes.get((module, name), (None,))[0]
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            problems.append(f"stale row: {module}.{name} names no top-level def or class in src/lowdeg")
        elif (module, name) in with_caller:
            problems.append(f"stale row: {module}.{name} is reached from a command or perfbench")
    return problems


def test_every_src_definition_is_reached():
    rows = _readme_kept_rows()
    assert rows and {kind for _, _, kind in rows} <= set(KINDS)
    assert len(rows) == len({(module, name) for module, name, _ in rows})
    problems = scope_violations(ROOT, rows)
    assert not problems, "\n".join(problems)


def test_two_test_only_functions_that_call_each_other_are_unreached(tmp_path):
    # a mention count would pass them: each is named by the other
    lib = tmp_path / "src" / "lowdeg"
    lib.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("from lowdeg import cli\ncli.main()\n")
    (lib / "cli.py").write_text("from . import core\n\n\ndef main():\n    return core.kept()\n")
    (lib / "core.py").write_text("def kept():\n    return 1\n\n\ndef ping():\n    return pong()\n\n\n"
                                 "def pong():\n    return ping()\n")
    assert scope_violations(tmp_path, []) == [
        "unreached: core.ping (2 lines): move it to tests/ or add a README row",
        "unreached: core.pong (2 lines): move it to tests/ or add a README row"]
    assert scope_violations(tmp_path, [("core", "ping", "paper quantity"), ("core", "gone", "paper quantity"),
                                       ("core", "kept", "paper quantity")]) == [
        "stale row: core.gone names no top-level def or class in src/lowdeg",
        "stale row: core.kept is reached from a command or perfbench"]
