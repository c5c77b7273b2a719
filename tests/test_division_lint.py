"""Every '/' in src/chainlab must be Fraction-safe.

Integral scalars are plain ints, and int / int is float division, which
would silently end exactness.  A division passes this lint only when one
operand is a Fraction(...) call, or a name assigned from a Fraction(...)
call in the same function.  Anything else must be listed in ALLOWLIST with
a one-line reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "chainlab"

# (file name, function name) -> one-line reason the division cannot see an
# int / int.  Empty: every division in the package is written Fraction(a, b).
ALLOWLIST = {}

SCOPES = (ast.FunctionDef, ast.Lambda)


def _is_fraction_call(node):
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "Fraction") or (
        isinstance(f, ast.Attribute) and f.attr == "Fraction"
    )


def _scope_nodes(scope):
    """Nodes of one scope, not descending into nested functions or lambdas."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _fraction_names(scope):
    names = set()
    for node in _scope_nodes(scope):
        if isinstance(node, ast.Assign) and _is_fraction_call(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _safe(operand, names):
    return _is_fraction_call(operand) or (isinstance(operand, ast.Name) and operand.id in names)


def unsafe_divisions(source):
    """[(function name, line), ...] of the divisions that are not Fraction-safe."""
    out = []
    scopes = [("<module>", ast.parse(source))]
    while scopes:
        name, scope = scopes.pop()
        names = _fraction_names(scope)
        for node in _scope_nodes(scope):
            if isinstance(node, SCOPES):
                scopes.append((getattr(node, "name", "<lambda>"), node))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if not (_safe(node.left, names) or _safe(node.right, names)):
                    out.append((name, node.lineno))
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                if not (_safe(node.target, names) or _safe(node.value, names)):
                    out.append((name, node.lineno))
    return sorted(out, key=lambda x: x[1])


@pytest.mark.parametrize("source, flagged", [
    ("def f(a, b):\n    return a / b\n", ["f"]),
    ("def f(a, b):\n    return Fraction(a) / b\n", []),
    ("def f(a, b):\n    return a / fractions.Fraction(b)\n", []),
    ("def f(a, b):\n    q = Fraction(a)\n    return q / b\n", []),
    ("def f(a, b):\n    return a // b\n", []),
    ("def f(a, b):\n    a /= b\n    return a\n", ["f"]),
    ("def g(a):\n    q = Fraction(a)\n\ndef f(q, b):\n    return q / b\n", ["f"]),
    ("def f(a):\n    q = Fraction(a)\n    return lambda b: q / b\n", ["<lambda>"]),
    ("x = 1 / 3\n", ["<module>"]),
])
def test_checker_on_samples(source, flagged):
    assert [name for name, _ in unsafe_divisions(source)] == flagged


def test_no_bare_division_in_package():
    found = set()
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for func, line in unsafe_divisions(path.read_text(encoding="utf-8")):
            key = (path.name, func)
            found.add(key)
            if key not in ALLOWLIST:
                offenders.append(f"{path.name}:{line} in {func}")
    assert not offenders, "bare '/' on possibly-int operands: " + ", ".join(offenders)
    assert not set(ALLOWLIST) - found, "stale allowlist entries"
