import ast
import doctest
import gc
import re
import subprocess
import sys
from pathlib import Path

import pytest

import snkron
from snkron.characters import DEFAULT_CAP, CharacterTable, character_table, class_sizes
from snkron.closed_forms import _WIDTH_BOUND, theorem1_decomposition, theorem2_decomposition
from snkron.kronecker import tensor_decompose
from snkron.partitions import _BIT_BOUND, _CELL_BOUND, Decomposition
from snkron.weights import (
    T2_W_GENERATORS,
    GeneratorCombination,
    SemiInvariantWeight,
    membership_t1,
    membership_t2,
)
from conftest import package_memos
from test_cli import child_env

LAYERS = ("partitions", "characters", "kronecker", "closed_forms", "weights")


def test_package_exports_exactly_the_layers():
    # Through sys.modules: the function snkron.kronecker shadows its submodule.
    modules = [sys.modules[f"snkron.{layer}"] for layer in LAYERS]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert len(snkron.__all__) == len(set(snkron.__all__))
    assert set(snkron.__all__) == set(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(snkron, name) is getattr(module, name), (module.__name__, name)


# module -> the snkron modules it imports.  The routes share only partitions,
# so the closed forms and the weights load and run with no character code.
IMPORTS = {
    "partitions": set(),
    "characters": {"partitions"},
    "kronecker": {"characters", "partitions"},
    "closed_forms": {"partitions"},
    "weights": {"partitions"},
    "cli": set(LAYERS),
    "__init__": set(LAYERS),
    "__main__": {"cli"},
}


def snkron_imports(tree):
    """The snkron modules a parsed module of the (flat) package imports."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["snkron" if node.level else "", node.module]))
            if module == "snkron":  # from . import <submodule>
                dotted += [f"snkron.{alias.name}" for alias in node.names]
            else:
                dotted.append(module)
    return {name.split(".")[1] for name in dotted if name.startswith("snkron.")}


def test_routes_import_only_what_the_layering_allows():
    # By path, not by import: the function snkron.kronecker shadows its
    # submodule, so ``import snkron.kronecker as m`` would bind the function.
    package = Path(snkron.__file__).parent
    graph = {
        path.stem: snkron_imports(ast.parse(path.read_text(), str(path)))
        for path in sorted(package.glob("*.py"))
    }
    assert graph == IMPORTS


def test_only_the_character_layer_keeps_memos():
    # One row per shape that the border-strip recursion reuses, and one
    # record per size of the row lengths it slices by and the class sizes;
    # partitions and the routes hold no state.
    assert set(package_memos()) == {
        "snkron.characters._rows",
        "snkron.characters._classes",
    }


def test_library_calls_leave_no_cyclic_garbage(cold_memo):
    # Cycles are freed only by the collector, whose passes then land inside
    # timed calls; every layer's work is freed by reference counts alone.
    gc.collect()
    gc.disable()
    try:
        tensor_decompose((6, 6), (6, 6))
        class_sizes(18)
        character_table(10)
        dec = theorem1_decomposition(20)
        dec.dimension_sum()
        for nu in dec.entries:
            membership_t1(nu)
        for nu in theorem2_decomposition(20).entries:
            membership_t2(nu)
        assert gc.collect() == 0
    finally:
        gc.enable()


# The checkout's root: the package sources, the benchmark and README.
ROOT = Path(__file__).resolve().parents[1]


def _defines(statement):
    """The module-level names a top-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _identifiers(node):
    """The names and attributes that ``node`` reads; an import alone is no use."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def test_every_public_name_has_a_caller():
    # A public name is used by the package outside its own definition, by
    # the benchmark (as ``snkron.<name>``, or as a string for getattr), or
    # is named in README.  A module-level private name is used by the
    # package alone.  The sources are parsed, never imported.
    used, private = set(), set()
    for path in (ROOT / "src" / "snkron").glob("*.py"):
        for statement in ast.parse(path.read_text(), str(path)).body:
            defined = _defines(statement)
            used |= _identifiers(statement) - defined
            private |= {name for name in defined if name.startswith("_") and name[:2] != "__"}
    assert sorted(private - used) == []
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "snkron":
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    readme = (ROOT / "README.md").read_text()
    public = [name for layer in LAYERS for name in sys.modules[f"snkron.{layer}"].__all__]
    unused = [
        name for name in public
        if name not in used and not re.search(rf"`{name}\b", readme)
    ]
    assert unused == []


def test_readme_library_examples_run():
    # The fenced block alone: doctest on the whole README would read the
    # closing fence as expected output.
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", "README.md", 0)
    assert doctest.DocTestRunner().run(test) == (0, 7)


# README's limits table: the label in its first column -> the value in force.
LIMITS = {
    "size n of S_n, `DEFAULT_CAP`": DEFAULT_CAP,
    "cells of a shape": _CELL_BOUND,
    "numerator bits of `schur_dimension(lam, d)`": _BIT_BOUND,
    "width n of the closed form's (n,n) or (n,n,n,n)": _WIDTH_BOUND,
}


def test_readme_limits_match_the_code():
    section = (ROOT / "README.md").read_text().split("\n## Limits\n")[1].split("\n## ")[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines() if line.startswith("|")
    ]
    assert rows[0] == ["limit", "value", "calls that raise", "CLI exit code"]
    values = {row[0]: row[1] for row in rows[2:]}
    assert values.pop("no limit") == "none"
    assert {label: int(value.replace(" ", "")) for label, value in values.items()} == LIMITS


def test_cli_import_skips_the_introspection_modules():
    # A fresh interpreter, so nothing the tests imported counts; modules the
    # site hooks load are in both snapshots and drop out of the difference.
    script = (
        "import sys; before = set(sys.modules); import snkron.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    new = set(proc.stdout.split())
    assert "snkron.cli" in new
    assert not new & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


# record, its fields in order, one value per field, its methods
RECORDS = [
    (
        CharacterTable,
        ("n", "partitions", "rows"),
        (2, ((2,), (1, 1)), {(2,): (1, 1), (1, 1): (-1, 1)}),
        (),
    ),
    (
        Decomposition,
        ("n", "entries"),
        (4, {(4,): 1, (2, 2): 1}),
        ("restrict_length", "dimension_sum"),
    ),
    (
        SemiInvariantWeight,
        ("label", "u_weight", "v_weight", "w_weight"),
        ("f2", (1, 1), (1, 1), (2,)),
        (),
    ),
    (
        GeneratorCombination,
        ("coefficients", "generators"),
        ((1, 0, 1), T2_W_GENERATORS),
        (),
    ),
]


@pytest.mark.parametrize(
    "record, fields, values, methods", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_records_are_immutable_and_built_either_way(record, fields, values, methods):
    # The methods' results are checked where each record lives.
    assert record._fields == fields
    by_position = record(*values)
    by_keyword = record(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, name) for name in fields] == list(values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
    assert all(callable(getattr(by_position, name)) for name in methods)


def test_records_compare_by_value():
    first = Decomposition(4, {(4,): 1, (2, 2): 1, (1, 1, 1, 1): 1})
    second = Decomposition(4, {(1, 1, 1, 1): 1, (2, 2): 1, (4,): 1})
    assert list(first.entries) != list(second.entries)
    assert first == second
    assert first != Decomposition(4, {(4,): 1})
    assert character_table(2) == CharacterTable(*RECORDS[0][2])
    with pytest.raises(TypeError):
        Decomposition(4)
