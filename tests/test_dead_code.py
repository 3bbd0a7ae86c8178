"""Every top-level function and class and every method in src/qhgrass is
reached from the program's module-level code, or is on KEPT with the reason
it stays.

The definitions are found by ast.  Liveness starts at the module-level code
of every module (each statement that is not a def or a class) and follows
references:

- a module function or class by its name, in its own module or in one that
  imports it by name, or by `module.name` on the module itself;
- a method by an attribute of its name, on any object;
- a string constant only as a CLI handler name, `_cmd_*` (the CLI looks its
  handlers up by name).

A reached class reaches its bases, its class-level statements and its dunder
methods, which are exempt themselves.  The bodies of KEPT definitions are not
followed, so what only they reach is unreached too.  A function that no
production code calls belongs with the tests, in tests/oracles.py, or
nowhere."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qhgrass"

# "<module>.<function>" or "<module>.<class>.<method>" -> why it stays
KEPT = {
    "quantum.semisimple_test": "benchmark/spans.py traces it; no command calls it",
    "quantum.mult_operators": "benchmark/spans.py traces it; no command calls it, the tests read label operators",
    "linalg.trace_product": "benchmark/spans.py traces it, reached through semisimple_test; no command calls it",
    "hodge.is_hodge_tate": "ROADMAP item 2a makes it the not-Hodge-Tate verdict; no command calls it yet",
}


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def _definitions(trees: dict) -> dict:
    """Qualified name -> (module, node) of every top-level function and
    class and every method."""
    defs = {}
    for module, tree in trees.items():
        for node in filter(_is_def, tree.body):
            defs[f"{module}.{node.name}"] = module, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{module}.{node.name}.{item.name}"] = module, item
    return defs


def _bindings(module: str, tree) -> tuple[dict, dict]:
    """The names a module binds to definitions (its own and those it imports
    by name) and the modules it imports under a name."""
    names = {node.name: f"{module}.{node.name}" for node in filter(_is_def, tree.body)}
    modules = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    modules[module] = module
    return names, modules


def _parts(node) -> list:
    """What reaching a definition makes live: a function whole, a class's
    bases, decorators, class-level statements and dunder methods."""
    if isinstance(node, ast.FunctionDef):
        return [node]
    return node.bases + node.decorator_list + [
        item for item in node.body if not isinstance(item, ast.FunctionDef) or item.name.startswith("__")
    ]


def unreached(src: Path = SRC) -> set[str]:
    """The qualified names of the definitions that module-level code does not
    reach, dunder methods aside."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defs = _definitions(trees)
    bindings = {module: _bindings(module, tree) for module, tree in trees.items()}
    methods = defaultdict(set)
    for name in defs:
        if name.count(".") == 2:
            methods[name.rsplit(".", 1)[1]].add(name)

    def references(module, node):
        names, modules = bindings[module]
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and child.id in names:
                yield names[child.id]
            elif isinstance(child, ast.Attribute):
                yield from methods[child.attr]
                if isinstance(child.value, ast.Name) and child.value.id in modules:
                    yield f"{modules[child.value.id]}.{child.attr}"
            elif isinstance(child, ast.Constant) and str(child.value).startswith("_cmd_"):
                yield f"{module}.{child.value}"

    todo = [(module, node) for module, tree in trees.items() for node in tree.body if not _is_def(node)]
    live = set()
    while todo:
        module, node = todo.pop()
        for name in references(module, node):
            if name in defs and name not in live:
                live.add(name)
                if name not in KEPT:
                    owner, definition = defs[name]
                    todo += [(owner, part) for part in _parts(definition)]
    return {name for name in defs if name not in live and not name.rsplit(".", 1)[1].startswith("__")}


def test_every_function_is_reached_from_src_or_kept_for_a_reason():
    assert unreached() == set(KEPT)
    assert all(reason.strip() for reason in KEPT.values())


def _copy_of_src(tmp_path) -> None:
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())


def test_the_scan_finds_a_function_nothing_calls(tmp_path):
    # a copy of src/ with one helper added that no one calls
    _copy_of_src(tmp_path)
    with open(tmp_path / "linalg.py", "a") as f:
        f.write("\n\ndef unused_helper(a):\n    return unused_helper(a)\n")
    assert unreached(tmp_path) == set(KEPT) | {"linalg.unused_helper"}


def test_the_scan_is_not_fooled_by_a_colliding_name(tmp_path):
    # a module function named like an attribute that other modules read
    # (ring.pairing), and a method named like a local variable of its own
    # module (euler in hodge.diamond): neither is reached, though each name
    # occurs in src/
    _copy_of_src(tmp_path)
    with open(tmp_path / "linalg.py", "a") as f:
        f.write("\n\ndef pairing(a):\n    return a\n")
    hodge = (tmp_path / "hodge.py").read_text()
    anchor = "    def total(self) -> int:\n"
    assert hodge.count(anchor) == 1
    (tmp_path / "hodge.py").write_text(
        hodge.replace(anchor, "    def euler(self) -> int:\n        return self.total()\n\n" + anchor))
    assert unreached(tmp_path) == set(KEPT) | {"linalg.pairing", "hodge.HodgeDiamond.euler"}


def test_the_scan_does_not_follow_a_kept_body(tmp_path):
    # a helper that only a KEPT function calls is unreached
    _copy_of_src(tmp_path)
    quantum = (tmp_path / "quantum.py").read_text()
    anchor = "    gram = [[linalg.trace_product(a, b) for b in ops] for a in ops]\n"
    assert quantum.count(anchor) == 1
    (tmp_path / "quantum.py").write_text(quantum.replace(anchor, "    _only_kept_calls()\n" + anchor)
                                         + "\n\ndef _only_kept_calls():\n    return None\n")
    assert unreached(tmp_path) == set(KEPT) | {"quantum._only_kept_calls"}
