"""Every top-level function and method in src/qhgrass is reached from src/,
or is on KEPT with the reason it stays.

The definitions are found by ast.  A name is referenced when it occurs in
src/ outside its own definition as a name, an attribute or a string constant
(the CLI looks its handlers up by name).  Dunder methods are exempt.  A
function that no production code calls belongs with the tests, in
tests/oracles.py, or nowhere."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qhgrass"

# "<module>.<function>" or "<module>.<class>.<method>" -> why it stays
KEPT = {
    "quantum.semisimple_test": "benchmark/spans.py traces it; no command calls it",
    "quantum.GradedAlgebra.label_ops": "benchmark/spans.py counts entries through it; no command reads it",
    "section.section_charpoly": "benchmark/spans.py traces it; no command calls it",
}


def _names(node) -> Counter:
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            found[child.value] += 1
    return found


def unreferenced(src: Path = SRC) -> set[str]:
    """The qualified names of the definitions that nothing else in src names."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    found = set()
    for module, tree in trees.items():
        defs = [(module, node) for node in tree.body]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [(f"{module}.{cls.name}", node) for node in cls.body]
        for owner, node in defs:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            if everywhere[node.name] == _names(node)[node.name]:
                found.add(f"{owner}.{node.name}")
    return found


def test_every_function_is_reached_from_src_or_kept_for_a_reason():
    assert unreferenced() == set(KEPT)
    assert all(reason.strip() for reason in KEPT.values())


def test_the_scan_finds_a_function_nothing_calls(tmp_path):
    # a copy of src/ with one helper added that no one calls
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "linalg.py", "a") as f:
        f.write("\n\ndef unused_helper(a):\n    return unused_helper(a)\n")
    assert unreferenced(tmp_path) == set(KEPT) | {"linalg.unused_helper"}
