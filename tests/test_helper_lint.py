"""Every helper in src/chainlab is used.

A private function or method, named _name (not a dunder), is referenced, as a
name or an attribute, somewhere in the package's code, so a merge cannot
leave a dead helper behind.  A public function, class or method (a module- or
class-level name without a leading underscore) is referenced by the
package's code other than __init__.py's re-exports, or by perfbench/, as a
name, an attribute or a span path of perfbench/tracer.py's SPANS, so no
public code is left that only the tests call.  TEST_ONLY lists the public
names that only tests call; it may only shrink."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chainlab"
PERFBENCH = ROOT / "perfbench"

# "file:qualified name" of the public code that only tests call
TEST_ONLY = [
    "algebras.py:Bimodule.left_basis",
    "algebras.py:Bimodule.right_basis",
    "algebras.py:Bimodule.trivial",
    "algebras.py:quotient",
    "complexes.py:HomologyReport.betti_tuple",
    "complexes.py:homotopy_fiber",
    "cyclic.py:hoch_complex",
    "cyclic.py:unit_homotopy",
    "lie.py:triangular_lie",
    "tangent.py:nilpotent_exp",
]


def orphaned_helpers(sources):
    """Sorted "file:name" of the private functions no code in sources refers to,
    for sources {file name: source text}."""
    defined, used = [], set()
    for fname, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((fname, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{fname}:{name}" for fname, name in defined if name not in used)


def _references(source) -> set:
    """The names and attributes source refers to, with the names along every
    span path of a SPANS list it assigns."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]:
            used.update(name for span in node.value.elts for name in span.elts[1].value.split("."))
    return used


def unreferenced_public(sources, readers):
    """Sorted "file:qualified name" of the public functions, classes and
    methods of sources that no code in readers refers to; both are
    {file name: source text}."""
    used = set().union(*map(_references, readers.values()))
    out = []
    for fname, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            names = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                names += [(f"{node.name}.{item.name}", item.name) for item in node.body
                          if isinstance(item, ast.FunctionDef)]
            out += [f"{fname}:{qual}" for qual, name in names
                    if not name.startswith("_") and name not in used]
    return sorted(out)


def test_the_lint_finds_an_unreferenced_helper():
    sources = {"a.py": "def _used():\n    pass\n\ndef _dead():\n    return _used()\n",
               "b.py": "from .a import _imported\n\nclass C:\n    def _m(self):\n        pass\n"
                       "\n    def __init__(self):\n        pass\n",
               "c.py": "def _imported():\n    pass\n"}
    assert orphaned_helpers(sources) == ["a.py:_dead", "b.py:_m"]


def test_every_private_helper_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert orphaned_helpers(sources) == []


def test_the_lint_finds_an_unreferenced_public_name():
    sources = {"a.py": "def used():\n    pass\n\ndef new():\n    return used()\n\n"
                       "class C:\n    def spanned(self):\n        pass\n\n    def called(self):\n"
                       "        pass\n\n    def dead(self):\n        pass\n\n    def _private(self):\n"
                       "        pass\n\n    def __init__(self):\n        pass\n"}
    readers = {**sources, "run.py": "from chainlab.a import C\n\nC().called()\n",
               "tracer.py": 'SPANS = [("a", "C.spanned", "a.spanned")]\n'}
    assert unreferenced_public(sources, readers) == ["a.py:C.dead", "a.py:new"]
    # an import alone, as __init__.py re-exports, is no reference
    assert "a.py:new" in unreferenced_public(sources, {**readers, "init.py": "from .a import new\n"})


def _sources(paths) -> dict:
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}


def test_every_public_name_is_referenced_outside_the_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = _sources(p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py")
    readers.update(_sources(sorted(PERFBENCH.glob("*.py"))))
    found = unreferenced_public(sources, readers)
    assert [name for name in found if name not in TEST_ONLY] == []
    # the list only shrinks: a name that gained a reference, or is gone, leaves it
    assert sorted(TEST_ONLY) == [name for name in found if name in TEST_ONLY]
