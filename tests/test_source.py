"""Rules on the engine's source text."""

import ast
from pathlib import Path

from test_readme import quick_start_code

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wds"


def test_no_assert_in_engine():
    """Runtime invariants raise real exceptions: an assert statement
    vanishes under python -O."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


# the names of the dense matrix path the sparse elimination replaced
DENSE_NAMES = {"rref", "rank", "kernel", "mat_vec", "transpose", "Mat",
               "_dense_form"}


def test_one_elimination_in_engine():
    """linalg._eliminate is the engine's one elimination and the sparse Vec
    its one vector and matrix format: no module of src/wds defines or
    references a name of the dense path, as a function, class, variable,
    argument, attribute or import.  The dense path lives on as the tests'
    oracle in tests/dense_oracle.py."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, attr, None)
                     for attr in ("id", "attr", "name", "arg", "asname")}
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in sorted(names & DENSE_NAMES)]
    assert found == []


def test_no_environment_reads_in_engine():
    """The command line is the one way to configure a run: no module of
    src/wds reads os.environ or os.getenv, as an attribute or an import."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name")}
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in sorted(names & {"environ", "getenv"})]
    assert found == []


def test_no_unused_imports_in_src():
    """Every name a module of src/wds imports is read in it; the package
    __init__ counts its __all__ as a use."""
    found = []
    for path in sorted((ROOT / "src" / "wds").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert found == []


def referenced(tree) -> set:
    """The names a module reads, plain or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def src_defs() -> tuple[list, set]:
    """(where, name) of every function, method and class defined in
    src/wds, and the names src/wds references."""
    defs, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs += [(f"{path.name}:{node.lineno}", node.name)
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        used |= referenced(tree)
    return defs, used


def test_no_unused_private_defs_in_src():
    """Every private function, method or class (`_name`, not a dunder)
    defined in src/wds is referenced somewhere in src/wds: a helper that
    only the tests call belongs in the tests."""
    defs, used = src_defs()
    private = [(where, name) for where, name in defs
               if name.startswith("_") and not name.endswith("__")]
    assert private
    assert [f"{where} {name}" for where, name in private
            if name not in used] == []


# public names of src/wds with no caller in src, demos or the README quick
# start, each with the reason it stays
UNCALLED_PUBLIC = {
    "rho_action": "the per-generator test oracle of is_in_w that the "
                  "README names",
    "functional_equal": "equality of local functionals, exported by the "
                        "package; the tests' involutivity oracle compares "
                        "integrals with it",
    "pi_inverse": "the lift of W to the coordinate ring, with which "
                  "test_acceptance samples the PVA axioms on W",
    "error": "cli._Parser's override of the ArgumentParser hook that "
             "argparse calls, so that its refusals are one line",
}


def test_public_defs_have_callers():
    """Every public function, method or class defined in src/wds is
    referenced in src/wds, in demos/ or in the README's library quick start,
    or is named in UNCALLED_PUBLIC with its reason: code that only the tests
    call belongs in the tests."""
    defs, used = src_defs()
    public = [(where, name) for where, name in defs if not name.startswith("_")]
    for path in sorted((ROOT / "demos").glob("*.py")):
        used |= referenced(ast.parse(path.read_text(), filename=str(path)))
    used |= referenced(ast.parse(quick_start_code()))
    assert public
    assert [f"{where} {name}" for where, name in public
            if name not in used and name not in UNCALLED_PUBLIC] == []
    # an allow-listed name that gained a caller, or left src, leaves the list
    assert sorted(n for n in UNCALLED_PUBLIC
                  if n in used or n not in {name for _, name in public}) == []


# module-level mutable displays of src/wds, by module.name, each with the
# reason it stays
MODULE_STATE_ALLOWED = {
    "__init__.__all__": "the package's export list, read by import *, "
                        "never mutated",
    "lie._ALLOWED": "the ad(x)-eigenvalues each nilpotent kind admits, a "
                    "constant table read by GradedSetup._grade",
    "pva.Bracket": "the parameter list of a Callable type alias: type "
                   "syntax, not state",
}

MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set,
                    ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_CALLS = {"dict", "list", "set", "defaultdict"}


def evaluated_at_import(stmt):
    """The nodes of a module-level statement that run when the module is
    imported: all of it but function bodies, whose decorators and default
    values still run."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += node.decorator_list + node.args.defaults
            stack += [d for d in node.args.kw_defaults if d is not None]
        elif isinstance(node, ast.Lambda):
            stack += node.args.defaults
        else:
            stack += ast.iter_child_nodes(node)


def test_no_module_level_caches():
    """No module of src/wds builds a dict, list or set when it is imported,
    as a display or through dict(), list(), set() or defaultdict(), at
    module level or in a class body: the engine keeps no mutable module
    state and no cache outside the objects that own it.  The exceptions
    are MODULE_STATE_ALLOWED, each with its reason."""
    found, seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            key = f"{path.stem}.{names[0]}" if names else None
            for node in evaluated_at_import(stmt):
                call = isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) in MUTABLE_CALLS
                    or getattr(node.func, "attr", None) in MUTABLE_CALLS)
                if isinstance(node, MUTABLE_DISPLAYS) or call:
                    if key in MODULE_STATE_ALLOWED:
                        seen.add(key)
                    else:
                        found.append(f"{path.name}:{node.lineno}")
    assert found == []
    # an allowed name that left src, or lost its display, leaves the list
    assert sorted(set(MODULE_STATE_ALLOWED) - seen) == []
