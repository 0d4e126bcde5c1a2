import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import satpmsm
from satpmsm.textio import MOTOR_KEYS


def test_exports_resolve_and_are_listed():
    # every listed name resolves, and every public name the package imports
    # is listed, so deleting API cannot leave a stale export behind
    exported = satpmsm.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(satpmsm, name)] == []
    tree = ast.parse(Path(satpmsm.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(n for n in imported if not n.startswith("_") and n not in exported) == []


def test_every_exception_is_one_exit_code_family():
    # every exception class the package defines is a refused input
    # (ValueError, exit 1) or a numerical failure (exit 2), so the CLI
    # reports each as one line, by its family alone
    src = Path(satpmsm.__file__).parent
    modules = [importlib.import_module(f"satpmsm.{path.stem}") for path in sorted(src.glob("*.py"))
               if path.stem != "__init__"]
    defined = [obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__]
    assert satpmsm.NumericalFailure in defined
    assert [cls.__name__ for cls in defined if not issubclass(cls, (ValueError, satpmsm.NumericalFailure))] == []


def test_readme_library_example_runs():
    # the README's python block runs as printed, so renaming a function, a
    # plan field or a model call it uses fails here, not only in the README
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_import_leaves_multiprocessing_out():
    # the console script's import does not pay for multiprocessing: it is
    # imported where the first worker starts (DECISIONS.md "Identification
    # in forked workers")
    src = str(Path(satpmsm.__file__).parents[1])
    code = "import sys, satpmsm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def _referenced(node):
    """The names a top-level statement refers to, its own name left out."""
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return names - {getattr(node, "name", None)}


def test_public_definitions_are_used():
    # every public top-level function and class in the package is exported
    # or referenced by name from another top-level statement of the package,
    # so API left without a caller fails here
    src = Path(satpmsm.__file__).parent
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
            used |= _referenced(node)
    dead = sorted(f"{module}:{name}" for name, module in defined.items()
                  if name not in satpmsm.__all__ and name not in used)
    assert dead == []


# exports that no module of the package calls, and why each stays
UNCALLED_EXPORTS = {
    "simulate": "the one-run entry point that acceptance criteria 2 and 5 call",
    "energy": "the model's definition, which criterion 4 checks the current map against",
    "estimate_L": "the paper's first-order split (DECISIONS.md): its inductance step",
    "estimate_saturation": "the paper's first-order split (DECISIONS.md), checked by criterion 7",
}


def test_uncalled_exports_are_listed():
    # an export that only tests call is listed above with its reason, so a
    # new one cannot slip in unexplained and a listed one that gains a
    # caller, or is deleted, leaves the list
    src = Path(satpmsm.__file__).parent
    used = set()
    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            for node in ast.parse(path.read_text()).body:
                used |= _referenced(node)
    assert sorted(n for n in satpmsm.__all__ if n not in used) == sorted(UNCALLED_EXPORTS)


def _name(expr):
    """The name a call expression refers to: f for f(...) and m.f(...)."""
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)


def _callee(call):
    """The called name and positional arguments of a call;
    `checked(where, factory, *args, **kwargs)` counts as a call of factory."""
    name, args = _name(call.func), call.args
    if name == "checked" and len(args) >= 2:
        return _name(args[1]), args[2:]
    return name, args


def _passed(paths):
    """By called name: the keywords some call passes, and the most positional
    arguments any call passes, `checked` unwrapped (`_callee`); a keyword of
    `dataclasses.replace` counts under the name "replace", for every
    dataclass field of that name."""
    passed = {}
    for path in paths:
        for call in (n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)):
            name, args = _callee(call)
            keywords, n_pos = passed.get(name, (set(), 0))
            passed[name] = (keywords | {k.arg for k in call.keywords if k.arg is not None},
                            max(n_pos, sum(not isinstance(a, ast.Starred) for a in args)))
    return passed


def _signatures(nodes):
    """(name, parameters or fields in positional order, {parameter or field:
    default expression}, whether a dataclass) of each function, method and
    dataclass among the nodes; a method's self or cls is left out, as its
    calls do not pass it."""
    for node in nodes:
        if isinstance(node, ast.FunctionDef):
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaults = dict(zip(positional[len(positional) - len(a.defaults):], a.defaults))
            defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
            yield node.name, [p for p in positional if p not in ("self", "cls")], defaults, False
        elif (isinstance(node, ast.ClassDef)
              and any("dataclass" in ast.unparse(d) for d in node.decorator_list)):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            yield (node.name, [f.target.id for f in fields],
                   {f.target.id: f.value for f in fields if f.value is not None}, True)


# options that the package's calls leave at their default and only the
# tests set, and why each stays
TEST_SET_OPTIONS = {}


def test_every_option_is_set_by_a_caller():
    # every defaulted parameter of a public function and every defaulted
    # field of a public dataclass is passed by some call in the package, or
    # by the tests where no package code calls it: an option no caller sets
    # keeps a code path that never runs. cli.main(argv) is the console
    # entry point
    src = Path(satpmsm.__file__).parent
    in_src = _passed(sorted(src.glob("*.py")))
    in_tests = _passed(sorted(Path(__file__).parent.glob("*.py")))
    # config.load_config passes MotorParams one keyword per field of
    # textio.MOTOR_KEYS, as a ** mapping that a call's keywords do not show
    keywords, n_pos = in_src["MotorParams"]
    in_src["MotorParams"] = (keywords | set(MOTOR_KEYS), n_pos)
    unset = []
    for path in sorted(src.glob("*.py")):
        for name, positional, defaults, is_dataclass in _signatures(ast.parse(path.read_text()).body):
            if name.startswith("_") or (path.stem, name) == ("cli", "main"):
                continue
            keywords, n_pos = in_src.get(name) or in_tests.get(name, (set(), 0))
            if is_dataclass:
                keywords = keywords | in_src.get("replace", (set(), 0))[0]
            given = keywords | set(positional[:n_pos])
            unset += [f"{path.stem}.{name}({p})" for p in defaults if p not in given]
    assert sorted(unset) == sorted(TEST_SET_OPTIONS)


def test_no_call_repeats_a_default():
    # no call in the package passes an expression that spells the callee's
    # default (any function, method or dataclass of the package of that
    # name): such an argument reads as a choice that differs from the
    # default, and it stops following the default when that changes
    src = Path(satpmsm.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    signatures = {}
    for tree in trees.values():
        for name, positional, defaults, _ in _signatures(ast.walk(tree)):
            signatures.setdefault(name, []).append((positional, defaults))
    repeated = []
    for module, tree in trees.items():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name, args = _callee(call)
            n_pos = next((k for k, a in enumerate(args) if isinstance(a, ast.Starred)), len(args))
            for positional, defaults in signatures.get(name, ()):
                passed = list(zip(positional, args[:n_pos])) + [(k.arg, k.value) for k in call.keywords]
                repeated += [f"{module}:{call.lineno} {name}({param})" for param, value in passed
                             if param in defaults and ast.dump(value) == ast.dump(defaults[param])]
    assert repeated == []
