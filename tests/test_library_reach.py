"""Every function and method of the library is reached from the library or
is public API: none is kept alive by the tests alone."""

import ast
import re
from pathlib import Path

import qrank

SRC = Path(qrank.__file__).parent
README = SRC.parents[1] / "README.md"


def _unreached(sources: dict[str, str], public, readme: str) -> list[str]:
    """`file:line qualified.name` of each non-dunder function or method of
    `sources` ({file: source}) that no code of theirs references outside its
    own body, that is not in `public` and that `readme` names in no
    backtick span.  A reference is any name or attribute of that name, so
    methods of one name in two classes reach each other's callers."""
    named = {w for span in re.findall(r"`([^`]*)`", readme)
             for w in re.findall(r"[A-Za-z_]\w*", span)}

    def names(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr

    refs, defs = {}, []
    for path, source in sources.items():
        tree = ast.parse(source)
        for name in names(tree):
            refs[name] = refs.get(name, 0) + 1

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((path, child, scope + child.name))
                    walk(child, scope + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, scope + child.name + ".")
                else:
                    walk(child, scope)
        walk(tree, "")
    out = []
    for path, node, qualified in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__") or name in public or name in named:
            continue
        if refs.get(name, 0) == sum(n == name for n in names(node)):
            out.append("%s:%d %s" % (path, node.lineno, qualified))
    return out


def test_the_check_sees_what_only_tests_call():
    source = ("class A:\n"
              "    def used(self):\n        return self.dead_alone()\n"
              "    def recursive(self, n):\n        return self.recursive(n - 1)\n"
              "    def kept(self):\n        pass\n"
              "    def public(self):\n        pass\n"
              "    def __repr__(self):\n        pass\n"
              "def dead_alone():\n    pass\n"
              "def caller():\n    return A().used()\n")
    got = _unreached({"m.py": source}, {"public"}, "call `A.kept()` to ...")
    assert got == ["m.py:4 A.recursive", "m.py:14 caller"]


def test_every_function_is_reached_or_public():
    # a function the library never references, outside qrank.__all__ and
    # not named in README, is code only the tests call: delete it, or
    # document it as API
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unreached = _unreached(sources, set(qrank.__all__), README.read_text())
    assert not unreached, unreached
