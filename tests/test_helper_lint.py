"""Every private helper in src/chainlab is used: a function or method named
_name (not a dunder) is referenced, as a name or an attribute, somewhere in
the package's code, so a merge cannot leave a dead helper behind."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chainlab"


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


def test_the_lint_finds_an_unreferenced_helper():
    sources = {"a.py": "def _used():\n    pass\n\ndef _dead():\n    return _used()\n",
               "b.py": "from .a import _imported\n\nclass C:\n    def _m(self):\n        pass\n"
                       "\n    def __init__(self):\n        pass\n",
               "c.py": "def _imported():\n    pass\n"}
    assert orphaned_helpers(sources) == ["a.py:_dead", "b.py:_m"]


def test_every_private_helper_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert orphaned_helpers(sources) == []
