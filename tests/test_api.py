"""Every public name and member of the package has a caller outside the
tests, and every name the benchmark's span recorder wraps still exists.

A public top-level function or class of a ``divbands`` module, or an
``__all__`` entry, counts as used when code in ``src/`` or ``perfbench/``
(its tests aside) refers to it outside its own definition: by name in its
own module, by importing it, or as ``module.name``.  A public method,
property or annotated field of a public class counts as used when that
code reads an attribute of its name off anything but an imported module
(``json.dump`` is no read of ``OracleTree.dump``) or the CLI's parsed
``args``.  The only exceptions are the verification entry points and
result members the README lists under "Library use"; any other name that
only tests reach is dead API and should be deleted.
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "divbands"

VERIFICATION_API = {
    ("oracle", "exact_policy_value"),
    ("oracle", "markov_optimum"),
    ("simulate", "ruin_certainty_check"),
}
RESULT_API = {
    ("exp_solver", "BandFunction.evaluate"),
    ("howard", "HowardResult.table"),
    ("oracle", "OracleTree.dump"),
}


def public_names(tree: ast.Module) -> set[str]:
    names = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_")}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def public_members(tree: ast.Module) -> set[str]:
    """``Class.member`` for each public method, property or field of a public class."""
    members = set()
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                members.add(f"{cls.name}.{name}")
    return members


def dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of plain names, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):  # the parent is a plain module
        return False


def module_names(tree: ast.Module) -> set[str]:
    """The dotted names under which a file reaches an imported module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                names |= ({alias.asname} if alias.asname else
                          {".".join(parts[:i]) for i in range(1, len(parts) + 1)})
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names |= {alias.asname or alias.name for alias in node.names
                      if is_module(f"{node.module}.{alias.name}")}
    return names


def attribute_reads(tree: ast.Module) -> set[str]:
    """Attribute names read off anything but a module or the CLI's ``args``."""
    skip = module_names(tree) | {"args"}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and dotted(node.value) not in skip}


def program_trees():
    """(module name or None, syntax tree) of each file in src/ and perfbench/, tests aside."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            yield None, ast.parse(path.read_text())


def references(module: str | None, tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs that a file refers to.

    ``module`` is the file's own module name, under which its bare names
    count; a top-level definition's references to its own name do not.
    """
    refs = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                refs |= {(source, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                refs.add((node.value.id, node.attr))
            elif (module and isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load) and node.id != own):
                refs.add((module, node.id))
    return refs


def test_every_public_name_has_a_caller():
    defined, refs = {}, set()
    for module, tree in program_trees():
        if module:
            defined[module] = public_names(tree)
        refs |= references(module, tree)
    assert all(name in defined[module] for module, name in VERIFICATION_API)
    unused = sorted(f"{module}.{name}" for module, names in defined.items()
                    for name in names
                    if (module, name) not in refs | VERIFICATION_API)
    assert unused == []


def test_every_public_member_has_a_reader():
    defined, reads = {}, set()
    for module, tree in program_trees():
        if module:
            defined[module] = public_members(tree)
        reads |= attribute_reads(tree)
    assert all(member in defined[module] for module, member in RESULT_API)
    unused = sorted(f"{module}.{member}" for module, members in defined.items()
                    for member in members
                    if member.split(".")[1] not in reads
                    and (module, member) not in RESULT_API)
    assert unused == []


def test_every_span_target_exists(monkeypatch):
    # a renamed target would silently read 0 in its per-layer metrics
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    rec = spans.Recorder()
    try:
        rec.install()
        assert rec.absent == []
        assert len(rec._patches) == len(spans.TARGETS)
    finally:
        rec.restore()
    assert rec._patches == []
