"""Every import of a library module is used."""

import ast
from pathlib import Path

import qrank

SRC = Path(qrank.__file__).parent


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds and the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom math import gcd, lcm\nlcm(os.sep)\n") == [(2, "gcd")]


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is exempt
    unused = ["%s:%d %s" % (path.name, line, name)
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for line, name in _unused_imports(path.read_text())]
    assert not unused, unused
