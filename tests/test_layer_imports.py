"""The calculus layer does not depend on the operator layer.

``bqspin.fields`` reads plane-wave symbols with its own exact reader, so it
has no use for ``bqspin.linops``; this test keeps that dependency from
coming back.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _imported_names(path):
    """The module and imported names of every import statement in a file."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
    return names


def test_fields_does_not_import_linops():
    names = _imported_names(os.path.join(ROOT, "src", "bqspin", "fields.py"))
    assert names, "no import found: the parser read the wrong file"
    offenders = [n for n in names if "linops" in n.split(".")]
    assert offenders == []
