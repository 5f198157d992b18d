"""Source hygiene: no module in src/augpipe imports a name it does not use,
ops.py gives an OpError its op kind in two places only, pipeline.py
chooses its workers by sink in one place, and dataio.py refuses an unknown
PNG filter byte in one place."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "augpipe"

# Names a module imports only so that perfbench can look them up on it.
PERFBENCH_HOOKS = {
    "ops.py": {"warp_affine", "warp_projective", "warp_mesh"},  # perfbench/spans.py
    "cli.py": {"split_by_class"},  # perfbench/child.py
}


def _top_level_imports(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The names spelled out in __all__ (ops.py adds its op classes to them)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {n.value for n in ast.walk(node.value)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = _top_level_imports(tree)
    hooks = PERFBENCH_HOOKS.get(path.name, set())
    assert hooks <= imported, f"{path.name} no longer imports perfbench hooks {hooks - imported}"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - _exported(tree) - hooks
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def test_op_kind_is_set_only_by_apply_batch_and_elastic_draw():
    # OpSpec.apply_batch makes every kernel failure its op's OpError;
    # Elastic.draw refuses before drawing, outside any kernel.
    setters = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.keyword) and child.arg == "op_kind":
                setters.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse((SRC / "ops.py").read_text(encoding="utf-8")), ())
    assert setters == {"OpSpec.apply_batch", "Elastic.draw"}


def _places(tree: ast.Module, name: str) -> list[str]:
    """Where pipeline.py spells name: as a class, a name or attribute, or
    a string equal to it; each place is its enclosing class or function,
    "__all__", or "" at module level."""
    places = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                if child.name == name:
                    places.append(child.name)
                visit(child, child.name)
                continue
            if isinstance(child, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in child.targets):
                visit(child, "__all__")
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.Constant) and child.value == name):
                places.append(scope)
            visit(child, scope)

    visit(tree, "")
    return places


def test_only_run_chooses_workers_by_sink():
    # A DirectorySink's files are seen by every process, so only it goes
    # to pool workers; every other sink, a CollectingSink too, is written
    # in the caller, with no case of its own.
    tree = ast.parse((SRC / "pipeline.py").read_text(encoding="utf-8"))
    assert sorted(_places(tree, "CollectingSink")) == ["CollectingSink", "__all__"]
    assert sorted(_places(tree, "DirectorySink")) == ["DirectorySink", "__all__", "_run"]


def test_unknown_filter_type_is_refused_only_by_unfilter():
    # _unfilter checks every scanline's filter byte before it picks a
    # kernel, so neither kernel has a check of its own.
    places = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and "unknown filter type" in child.value):
                places.append(scope)
            visit(child, scope)

    visit(ast.parse((SRC / "dataio.py").read_text(encoding="utf-8")), "")
    assert places == ["_unfilter"]
