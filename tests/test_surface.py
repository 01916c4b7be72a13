"""Every public name in ``src/milfib`` has a caller in ``src/milfib``.

A function, class or method that only tests call belongs in
``tests/helpers.py``, not in the package.  Re-exports in ``__init__.py`` do
not count as a caller, and neither does the name's own ``def``/``class``
line.  The match is by word, so this is a cheap guard, not a call graph.
"""

import ast
import pathlib
import re

import milfib

SRC = pathlib.Path(milfib.__file__).parent
MODULES = {path: path.read_text() for path in sorted(SRC.glob("*.py"))
           if path.name != "__init__.py"}


def _public_definitions():
    for path, text in MODULES.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield path, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield path, sub


def _used_in_src(path, node) -> bool:
    word = re.compile(rf"\b{re.escape(node.name)}\b")
    for other, text in MODULES.items():
        for number, line in enumerate(text.splitlines(), 1):
            if other == path and number == node.lineno:
                continue
            if word.search(line):
                return True
    return False


def test_no_public_name_is_used_only_by_tests():
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, node in _public_definitions() if not _used_in_src(path, node)]
    assert not unused, unused
