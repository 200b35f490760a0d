"""Source hygiene: no private helper outlives its last caller, and every
name the bench tracer patches still exists."""

import ast
import importlib
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


TRACER = SRC.parent.parent / "bench" / "tracer.py"


def _tracer_tables():
    """FUNCTION_SPANS, METHOD_SPANS and COUNTED, read from the tracer's source."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            tables[node.targets[0].id] = node.value
    return {name: ast.literal_eval(tables[name])
            for name in ("FUNCTION_SPANS", "METHOD_SPANS", "COUNTED")}


def test_every_name_the_bench_tracer_patches_exists():
    # the tracer patches vars(owner)[attr]; a dropped name breaks traced runs
    tables = _tracer_tables()
    missing = []
    for _, module, attr in tables["FUNCTION_SPANS"] + tables["COUNTED"]:
        if attr not in vars(importlib.import_module(module)):
            missing.append("%s.%s" % (module, attr))
    for _, module, cls, attr in tables["METHOD_SPANS"]:
        owner = getattr(importlib.import_module(module), cls, None)
        if owner is None or attr not in vars(owner):
            missing.append("%s.%s.%s" % (module, cls, attr))
    assert missing == []
