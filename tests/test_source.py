"""Static checks on the package source.

Every function, class and method in src/pennantsim must be used by the
package itself. A definition referenced only by tests is a side copy: the
tests would pin it while the shipped code runs something else. No module
of the package imports scipy, at the top or inside a function: numpy is
the one runtime dependency, so importing the CLI loads neither
scipy.optimize nor scipy.special. Importing the CLI must not import the
process pool either, which only a fit with more than one worker starts.
And every function the benchmark's tracer wraps by name must exist where
it looks.
"""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pennantsim"
TRACING = ROOT / "perfbench" / "tracing.py"


def _referenced_names(node):
    """Names a subtree mentions, as bare names or attribute accesses."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_definitions(package=PACKAGE):
    """Qualified names of the non-dunder functions, classes and methods that
    nothing in the package mentions outside their own definition."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(Path(package).glob("*.py"))]
    everywhere = sum((_referenced_names(tree) for tree in trees),
                     collections.Counter())
    unused = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and everywhere[name] \
                        <= _referenced_names(child)[name]:
                    unused.append(prefix + name)
                visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    for tree in trees:
        visit(tree, "")
    return unused


def test_every_definition_is_used_by_the_package():
    assert unreferenced_definitions() == []


def _imported_by_cli(modules):
    """Which of the named modules `import pennantsim.cli` loads, in a fresh
    interpreter, so that no other test's imports count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    probe = ("import sys, pennantsim.cli; "
             f"print(sorted(set({sorted(modules)!r}) & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_package_never_imports_scipy():
    # every import statement, however deeply nested, so a lazy import inside
    # a function counts as much as one at the top of a module
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {module}"
                      for module in modules
                      if module.split(".")[0] == "scipy"]
    assert found == []


def test_cli_does_not_import_scipy_optimize():
    assert _imported_by_cli({"scipy.optimize"}) == "[]"


def test_cli_does_not_import_scipy_special():
    # outcomes are drawn with numpy alone; loading scipy would cost every
    # command its import time for nothing
    assert _imported_by_cli({"scipy.special"}) == "[]"


def test_cli_does_not_import_the_process_pool():
    # only a fit with more than one worker starts the chain pool; every
    # other command would pay multiprocessing's import time for nothing
    assert _imported_by_cli({"multiprocessing",
                             "concurrent.futures.process"}) == "[]"


def test_traced_functions_are_module_level_definitions():
    # perfbench/tracing.py wraps these by name; a rename would break
    # `perfbench/run.py --trace 1` without failing any other test. Read
    # without importing it, so the benchmark's code does not run here.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    [layer_functions] = [ast.literal_eval(node.value) for node in tree.body
                         if isinstance(node, ast.Assign)
                         and [t.id for t in node.targets
                              if isinstance(t, ast.Name)]
                         == ["LAYER_FUNCTIONS"]]
    missing = []
    for layer, names in layer_functions.items():
        module = ast.parse((PACKAGE / f"{layer}.py").read_text(
            encoding="utf-8"))
        defined = {node.name for node in module.body
                   if isinstance(node, ast.FunctionDef)}
        missing += [f"{layer}.{name}" for name in names
                    if name not in defined]
    assert missing == []
