"""Source hygiene: no private helper outlives its last caller, every public
name has a caller, every name the bench tracer patches still exists, an
import kept only for the tracer goes with its tracer entry, and every
measure kind an inner function accepts answers a scan's queries itself."""

import ast
import importlib
import pathlib
from collections import Counter

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


def test_every_parameter_of_a_module_function_is_read():
    # a parameter that the body never reads is dead weight in every call;
    # methods are left out, as they keep the signature of their class family
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + \
                [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += ["%s:%d %s(%s)" % (path.name, node.lineno, node.name, a.arg)
                       for a in params if a.arg not in read]
    assert unread == []


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


def test_unused_imports_name_only_what_the_tracer_patches_there():
    # an import marked unused (noqa: F401) is kept only so that the tracer
    # can patch the name in that module; once the tracer tables stop naming
    # it there, the import must go too
    tables = _tracer_tables()
    patched = {(module, attr) for _, module, attr in
               tables["FUNCTION_SPANS"] + tables["COUNTED"]}
    imports, stray = 0, []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        module = "onecomp." + path.stem
        for node in ast.parse(text, filename=str(path)).body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            imports += 1
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                stray += ["%s:%d %s" % (path.name, node.lineno, alias.asname or alias.name)
                          for alias in node.names
                          if (module, alias.asname or alias.name) not in patched]
    assert imports, "no imports found; is the source path right?"
    assert stray == []


MU_QUERIES = ("support", "lower_mass_arcs", "mass_of_arc_bounds_many", "poisson_bounds")


def test_every_singular_kind_defines_the_queries_of_a_scan():
    # SingularMeasure gives no lower_mass_arcs or mass_of_arc_bounds_many and
    # only NotImplementedError for the others, so a kind that SingularInner
    # accepts without them fails mid-scan: a traceback, exit 1
    from onecomp.errors import DomainError
    from onecomp.inner import SingularInner
    from onecomp.measures import SingularMeasure

    kinds, accepted, missing = [SingularMeasure], [], []
    while kinds:
        kind = kinds.pop()
        kinds += kind.__subclasses__()
        if kind is SingularMeasure:
            continue
        try:
            SingularInner(kind.__new__(kind))
        except DomainError:
            continue
        accepted.append(kind.__name__)
        missing += ["%s.%s" % (kind.__name__, name) for name in MU_QUERIES
                    if name not in vars(kind)]
    assert "AtomicMeasure" in accepted and "CdfMeasure" not in accepted
    assert missing == []


ROOT = SRC.parent.parent
CALLER_DIRS = ("src", "tests", "bench")


def _defaulted_parameters():
    """(file, line, function, parameter, positional index or None) for every
    defaulted parameter of a module-level function, method or constructor in
    the package; a constructor goes by its class name, and the index counts
    positional slots after self/cls."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defs = [(node, None) for node in tree.body]
        defs += [(item, node.name) for node in tree.body if isinstance(node, ast.ClassDef)
                 for item in node.body]
        for node, owner in defs:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = owner if node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if owner and not static else 0
            first_defaulted = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional):
                if i >= first_defaulted:
                    found.append((path.name, node.lineno, name, arg.arg, i - skip))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((path.name, node.lineno, name, arg.arg, None))
    return found


def _calls_by_name():
    """Function name -> [(positional count, *args used, keywords, **kw used)];
    a ``cls(...)`` call inside a class counts as a call of that class."""
    calls = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            # breadth-first, so a nested class overwrites its outer class
            cls_calls = {id(sub): node.name for node in ast.walk(tree)
                         if isinstance(node, ast.ClassDef) for sub in ast.walk(node)
                         if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                         and sub.func.id == "cls"}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                name = cls_calls.get(id(node), name)
                if name is None:
                    continue
                calls.setdefault(name, []).append((
                    sum(not isinstance(a, ast.Starred) for a in node.args),
                    any(isinstance(a, ast.Starred) for a in node.args),
                    {k.arg for k in node.keywords if k.arg is not None},
                    any(k.arg is None for k in node.keywords)))
    return calls


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    # a parameter that no call in src/, tests/ or bench/ ever passes is a
    # knob with one value in use: it belongs in a constant, not a signature;
    # constructors count, called by class name
    found = _defaulted_parameters()
    assert found, "no defaulted parameters found; is the source path right?"
    calls = _calls_by_name()

    def passed(func, param, index):
        for count, star, keywords, double_star in calls.get(func, []):
            if param in keywords or double_star:
                return True
            if index is not None and (count > index or star):
                return True
        return False

    unset = ["%s:%d %s(%s)" % (path, line, func, param)
             for path, line, func, param, index in found
             if not passed(func, param, index)]
    assert not unset, "no call sets:\n" + "\n".join(unset)


# Public names that no package code, bench script or tracer table reaches,
# kept because a test states a property of the package with them; an entry
# goes stale once no test names it.
EXEMPT = {
    "mobius_shift": "acceptance criterion 7 states Mobius invariance of rho with it",
    "Interval.mid": "acceptance criterion 7 checks certified tails at bracket midpoints",
    "ZeroSequence.materialize_count": "frozen acceptance criterion 8 calls it",
}


def _package_trees():
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _public_defs(trees):
    """(qualified name, owning class or None, node, file) of every public
    module-level function and class and every public method."""
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                found.append((node.name, None, node, path.name))
            if isinstance(node, ast.ClassDef):
                found += [("%s.%s" % (node.name, item.name), node.name, item, path.name)
                          for item in node.body if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("_")]
    return found


def _bound_classes(func, owner, classes, outer):
    """Local name -> package class, for the names a function binds to one
    class only: self or cls of a method, a parameter annotated with the class
    and never rebound, or a name whose one binding is ``name = Class(...)``."""
    args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    stores = Counter(n.id for n in ast.walk(func)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    bound = {k: v for k, v in outer.items() if k not in {a.arg for a in args}}
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in func.decorator_list)
    if owner and args and not static:
        bound[args[0].arg] = owner
    bound.update((a.arg, a.annotation.id) for a in args
                 if isinstance(a.annotation, ast.Name) and a.annotation.id in classes
                 and not stores[a.arg])
    bound.update((n.targets[0].id, n.value.func.id) for n in ast.walk(func)
                 if isinstance(n, ast.Assign) and len(n.targets) == 1
                 and isinstance(n.targets[0], ast.Name) and stores[n.targets[0].id] == 1
                 and isinstance(n.value, ast.Call) and isinstance(n.value.func, ast.Name)
                 and n.value.func.id in classes)
    return bound


def _references(trees, classes):
    """(name, is an attribute, receiver class or None when unknown, ids of
    the enclosing definitions) of every name and attribute in the trees."""
    refs = []

    def visit(node, owner, bound, enclosing):
        if isinstance(node, ast.ClassDef):
            owner, enclosing = node.name, enclosing | {id(node)}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound = _bound_classes(node, owner, classes, bound)
            owner, enclosing = None, enclosing | {id(node)}
        if isinstance(node, ast.Name):
            refs.append((node.id, False, None, enclosing))
        elif isinstance(node, ast.Attribute):
            base = node.value
            receiver = None
            if isinstance(base, ast.Name):
                receiver = base.id if base.id in classes else bound.get(base.id)
            refs.append((node.attr, True, receiver, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, bound, enclosing)

    for tree in trees.values():
        visit(tree, None, {}, frozenset())
    return refs


def test_every_public_name_is_reached():
    # a public name that no package code, bench script or tracer table
    # reaches is API that no command runs: delete it, or exempt it above
    trees = _package_trees()
    defs = _public_defs(trees)
    assert defs, "no public names found; is the source path right?"
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for tree in trees.values() for node in tree.body
             if isinstance(node, ast.ClassDef)}

    def ancestors(cls):
        return {cls}.union(*(ancestors(b) for b in bases.get(cls, ()) if b in bases))

    def related(cls, receiver):
        return receiver is None or cls in ancestors(receiver) or receiver in ancestors(cls)

    bench = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted((ROOT / "bench").rglob("*.py"))}
    refs = _references(trees, bases) + _references(bench, bases)
    tables = _tracer_tables()
    traced = {attr for _, _, attr in tables["FUNCTION_SPANS"] + tables["COUNTED"]}
    traced |= {"%s.%s" % (cls, meth) for _, _, cls, meth in tables["METHOD_SPANS"]}

    def reached(qualified, owner, node):
        # a method is reached by an attribute read on a receiver of a related
        # class, or of a class the test cannot tell
        return qualified in traced or any(
            name == node.name and id(node) not in enclosing
            and (owner is None or attribute and related(owner, receiver))
            for name, attribute, receiver, enclosing in refs)

    unreached = sorted("%s %s" % (path, q) for q, owner, node, path in defs
                       if not reached(q, owner, node) and q not in EXEMPT)
    stale = sorted(q for q, owner, node, _ in defs
                   if q in EXEMPT and reached(q, owner, node))
    stale += sorted(set(EXEMPT) - {q for q, _, _, _ in defs})
    named = {name for path in sorted((ROOT / "tests").glob("test_*.py"))
             if path.name != pathlib.Path(__file__).name
             for name, _, _, _ in _references(
                 {path: ast.parse(path.read_text(encoding="utf-8"))}, bases)}
    stale += sorted(q for q in EXEMPT if q.rsplit(".", 1)[-1] not in named)
    assert unreached == [], "no caller reaches:\n" + "\n".join(unreached)
    assert stale == [], "exempt, but reached, gone or named by no test: %s" % stale
