"""Every name a homkit module imports is used somewhere in that module,
every parameter of a homkit function is read in its body, every private
module-level function is named outside its own definition, the oracle
imports none of the constructions it checks, only the tokenizer's module
imports ``re``, in the oracle only the bounded loop reads the instance
enumeration, and resource caps come only from ``core.Budget``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "homkit"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_flags_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        [(1, "os"), (2, "b")]


def test_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = {path.name: found for path in modules
              if (found := _unused_imports(path.read_text()))}
    assert unused == {}


def _package_imports(source: str) -> set:
    """The homkit modules a source file imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                module = "homkit" + (f".{module}" if module else "")
            names = [module] if module != "homkit" else \
                [f"homkit.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(n.split(".")[1] for n in names
                     if n.startswith("homkit."))
    return found


def test_package_import_detector():
    source = ("from __future__ import annotations\nimport os\n"
              "from .chase import a\nfrom . import ucq\n"
              "import homkit.duality\nfrom homkit import adjoint\n")
    assert _package_imports(source) == {"chase", "ucq", "duality", "adjoint"}


def test_oracle_imports_only_core_program_and_chase():
    # the oracle stays independent of the constructions it checks
    assert _package_imports((SRC / "oracle.py").read_text()) <= \
        {"core", "program", "chase"}


def _top_level_imports(source: str) -> set:
    """The top-level names of the absolute imports of a source file."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_top_level_import_detector():
    source = ("import re\nimport os.path\nfrom json import dumps\n"
              "from .re import x\ndef f():\n    import itertools\n")
    assert _top_level_imports(source) == {"re", "os", "json", "itertools"}


def test_only_syntax_imports_re():
    # one tokenizer: every text format is read through syntax._Tokens
    importers = {path.name for path in sorted(SRC.glob("*.py"))
                 if "re" in _top_level_imports(path.read_text())}
    assert importers == {"syntax.py"}


def _users(source: str, name: str) -> set:
    """The top-level statements of a source file that name ``name``, by
    their own name (``<module>`` for a statement without one)."""
    return {getattr(stmt, "name", "<module>")
            for stmt in ast.parse(source).body
            if any(getattr(n, "id", getattr(n, "attr", None)) == name
                   for n in ast.walk(stmt)
                   if isinstance(n, (ast.Name, ast.Attribute)))}


def test_user_detector():
    source = ("def f():\n    return g(1)\n"
              "def h():\n    return [m.g]\n"
              "def g():\n    return 0\n"
              "class K:\n    def k(self):\n        return g\n"
              "x = g()\n")
    assert _users(source, "g") == {"f", "h", "K", "<module>"}


def test_only_the_bounded_loop_reads_the_enumeration():
    # one loop for the bounded checks: every verdict reads its instances
    # from oracle._checked, so a hand-rolled fourth loop fails here
    source = (SRC / "oracle.py").read_text()
    assert _users(source, "_class_representatives") == {"_checked"}
    assert _users(source, "enumerate_instances") == \
        {"_class_representatives"}


def _unread_parameters(source: str) -> list:
    """(line, function, parameter) for each parameter its function's body
    never reads; a read inside a nested function counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + \
            [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, name, p.arg) for p in params
                  if p.arg not in read]
    return found


def test_unread_parameter_detector():
    source = ("def f(a, b, *c, d=1, **e):\n"
              "    b = 2\n"
              "    def g():\n"
              "        return a + d\n"
              "    return g, lambda x, y: y\n")
    assert _unread_parameters(source) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "e"), (5, "<lambda>", "x")]


def test_no_unread_parameters():
    unread = {path.name: found for path in sorted(SRC.glob("*.py"))
              if (found := _unread_parameters(path.read_text()))}
    assert unread == {}


def _dead_helpers(sources: dict) -> list:
    """(module, line, name) for each private module-level function that no
    code of the given modules names outside the function's own definition;
    an import of the name counts."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    found = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                continue
            inside = {id(n) for n in ast.walk(fn)}
            named = any(
                fn.name in (getattr(n, "id", None), getattr(n, "attr", None),
                            getattr(n, "name", None))
                for other in trees.values() for n in ast.walk(other)
                if id(n) not in inside
                and isinstance(n, (ast.Name, ast.Attribute, ast.alias)))
            if not named:
                found.append((module, fn.lineno, fn.name))
    return found


def test_dead_helper_detector():
    sources = {
        "a": ("def _used():\n    pass\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "def _imported():\n    pass\n"
              "def __getattr__(name):\n    pass\n"
              "class K:\n    def _method(self):\n        pass\n"),
        "b": ("from a import _imported\nimport a\n"
              "def public():\n    return a._used\n"
              "def _unused():\n    pass\n"),
    }
    assert _dead_helpers(sources) == [("a", 3, "_recursive"),
                                      ("b", 5, "_unused")]


def test_no_dead_helpers():
    sources = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert _dead_helpers(sources) == []


CAP_DEFAULTS = {10 ** 6, 2 ** 16}


def _cap_parameters(source: str) -> list:
    """(line, function) for each function with a parameter named ``cap``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            if "cap" in {a.arg for a in
                         args.posonlyargs + args.args + args.kwonlyargs}:
                found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return found


def _cap_defaults(source: str) -> list:
    """(top-level statement, spelling) for each expression spelling a
    default cap, as a power or as a literal."""
    found = []
    for stmt in ast.parse(source).body:
        for n in ast.walk(stmt):
            power = isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow) \
                and all(isinstance(x, ast.Constant)
                        for x in (n.left, n.right)) \
                and n.left.value ** n.right.value in CAP_DEFAULTS
            literal = isinstance(n, ast.Constant) and n.value in CAP_DEFAULTS
            if power or literal:
                found.append((getattr(stmt, "name", "<module>"),
                              ast.unparse(n)))
    return found


def test_cap_detectors():
    source = ("def f(a, cap=10 ** 6):\n    return a\n"
              "class K:\n    def g(self, *, cap):\n        return 2 ** 16\n"
              "x = lambda cap: 1000000 + 2 ** 3\n")
    assert _cap_parameters(source) == [(1, "f"), (4, "g"), (6, "<lambda>")]
    assert _cap_defaults(source) == [
        ("f", "10 ** 6"), ("K", "2 ** 16"), ("<module>", "1000000")]


def test_caps_come_only_from_the_budget():
    # one budget in core, read through the context, not passed as ``cap``
    found = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        params, defaults = _cap_parameters(source), _cap_defaults(source)
        if params or defaults:
            found[path.name] = (params, defaults)
    assert found == {"core.py": (
        [], [("Budget", "10 ** 6"), ("Budget", "2 ** 16")])}
