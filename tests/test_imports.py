"""Import hygiene: every module uses what it imports; the package exports resolve;
private code has a caller; README's index names real objects."""

import ast
import importlib
import pathlib
import re

import pytest

import pwcalc

SRC = pathlib.Path(pwcalc.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# longest line of README's module table
MAX_ROW = 300


def _imported(tree):
    """Names an import binds, with the line of the import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def _used(tree):
    """Names read anywhere in the module, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_every_exported_name_resolves():
    missing = [name for name in pwcalc.__all__ if not hasattr(pwcalc, name)]
    assert not missing
    assert len(set(pwcalc.__all__)) == len(pwcalc.__all__)


def test_exports_are_exactly_the_imported_names():
    init = SRC / "__init__.py"
    imported = {name for name, _ in _imported(ast.parse(init.read_text(), filename=str(init)))}
    assert set(pwcalc.__all__) == imported


def _top_level_references():
    """(module, top-level statement, names it reads or imports), for every
    top-level statement of every module."""
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(a.name for a in node.names)
            yield path.name, stmt, names


def test_every_private_function_has_a_caller():
    # code with no user path is deleted: each private module-level function
    # or class is named somewhere in the package outside its own definition
    refs = list(_top_level_references())
    private = [
        (module, stmt)
        for module, stmt, _ in refs
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_")
    ]
    assert private
    orphans = [
        f"{module}:{stmt.name}"
        for module, stmt in private
        if not any(stmt.name in names for _, other, names in refs if other is not stmt)
    ]
    assert not orphans, f"private code no one calls: {', '.join(orphans)}"


def _resolves(name: str) -> bool:
    """Whether a dotted name, pwcalc.<module>.<attr>... or <module>.<attr>...,
    names an object of the package."""
    module, *attrs = name.removeprefix("pwcalc.").split(".")
    try:
        obj = importlib.import_module(f"pwcalc.{module}")
    except ModuleNotFoundError:
        return False
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _index_faults(text: str) -> list:
    """What README's text gets wrong as an index of the package: a backticked
    dotted name that names nothing, a backticked name in a module row that
    its module lacks, a module row longer than MAX_ROW characters, and a
    module that has no row."""
    modules = "|".join(p.stem for p in MODULES)
    dotted = re.compile(rf"(?<![\w./])(?:pwcalc(?:\.\w+)+|(?:{modules})(?:\.\w+)+)")
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    faults = [
        f"`{name}` names nothing"
        for span in re.findall(r"`([^`]+)`", prose)
        for name in dotted.findall(span)
        if not _resolves(name)
    ]
    rows = set()
    for line in text.split("\n## Modules\n")[1].split("\n## ")[0].splitlines():
        row = re.match(rf"\| `pwcalc\.({modules})` +\|", line)
        if row is None:
            continue
        rows.add(row[1])
        if len(line) > MAX_ROW:
            faults.append(f"the {row[1]} row has {len(line)} characters")
        faults += [
            f"`{name}` is not in pwcalc.{row[1]}"
            for name in re.findall(r"`(\w+)`", line[row.end():])
            if not _resolves(f"{row[1]}.{name}")
        ]
    faults += [f"no row for pwcalc.{p.stem}" for p in MODULES if p.stem not in rows]
    return faults


def test_readme_indexes_real_objects():
    assert _index_faults(README.read_text()) == []
