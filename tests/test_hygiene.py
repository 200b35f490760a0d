"""Source hygiene: no private helper outlives its last caller."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "onecomp"


def _private_defs_and_references():
    defs, refs = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__")
                                                 and name.endswith("__")):
                    defs.append((path.name, node.lineno, name))
            elif isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return defs, refs


def test_every_private_function_is_used_in_the_package():
    defs, refs = _private_defs_and_references()
    assert defs, "no private functions found; is the source path right?"
    unused = ["%s:%d %s" % d for d in defs if d[2] not in refs]
    assert unused == []
