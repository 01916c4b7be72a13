"""Every public name in ``src/milfib`` has a caller in ``src/milfib``.

A function, class or method that only tests call belongs in
``tests/helpers.py``, not in the package.  Re-exports in ``__init__.py`` do
not count as a caller, and neither does the name's own ``def``/``class``
line.  Only code counts: a name that appears in a comment or a docstring is
not a caller.  A method counts as used only where it is read as an
attribute (``.name``), so a local variable or a keyword argument of the same
name does not keep it alive.  A method that overrides a method of a base
class from outside the package is exempt, because that base class calls
it.  The match is by name token, so this is a cheap guard, not a call graph.

Every name a module imports is read in that module, except where the
benchmark's traced run (perfbench/tracing.py ``SPANS``) wraps the name in
that module, which keeps the import alive though the module never calls it.
"""

import ast
import importlib
import importlib.util
import io
import os
import pathlib
import tokenize

import milfib

SRC = pathlib.Path(milfib.__file__).parent
TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")
MODULES = {path: path.read_text() for path in sorted(SRC.glob("*.py"))
           if path.name != "__init__.py"}


def _code_names(text):
    """(line, name, is attribute) for every name token, an attribute when the
    token before it is a '.'; comments and strings are other tokens.  Before
    Python 3.12 an f-string is one string token, so a name used only inside
    its braces is not counted there."""
    prev = None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            yield tok.start[0], tok.string, prev == "."
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            prev = tok.string


CODE_NAMES = {path: list(_code_names(text)) for path, text in MODULES.items()}


def _overrides_foreign_method(path, owner, name) -> bool:
    cls = getattr(importlib.import_module(f"milfib.{path.stem}"), owner)
    return any(hasattr(base, name) for base in cls.__mro__[1:]
               if not base.__module__.startswith("milfib"))


def _public_definitions():
    for path, text in MODULES.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield path, node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_") \
                            and not _overrides_foreign_method(path, node.name, sub.name):
                        yield path, sub, True


def _used_in_src(path, node, method) -> bool:
    return any(name == node.name and (attribute or not method)
               and not (other == path and line == node.lineno)
               for other, names in CODE_NAMES.items()
               for line, name, attribute in names)


def test_no_public_name_is_used_only_by_tests():
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, node, method in _public_definitions()
              if not _used_in_src(path, node, method)]
    assert not unused, unused


def _traced_names():
    """The (module, name) pairs the traced benchmark run wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(path, attr) for _metric, path, attr in tracing.SPANS}


def _unread_imports():
    for path, text in MODULES.items():
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        yield path.stem, name


def test_every_imported_name_is_read_or_traced():
    unread = set(_unread_imports()) - _traced_names()
    assert not unread, sorted(unread)
