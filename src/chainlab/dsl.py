"""Line-oriented text format for structure-constant algebras.

Grammar (one declaration per line, '#' comments, 1-based indices):

    algebra <name> dim <d>
    basis <l1> <l2> ...
    mul <i> <j> = <coeff>*<k> [+ <coeff>*<k> ...]     # omitted products are 0
    unit = <coeff>*<k> [+ ...]
    augmentation = <basis index>
    preset <preset-name>[:params]

Coefficients are integers or p/q rationals.  A 'preset' line stands alone.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebras import Algebra
from .cyclic import size_guard
from .errors import ParseError
from .presets import guarded_preset

_TERM = re.compile(r"^([+-]?\d+(?:/\d+)?)\*(\d+)$")


def _parse_terms(text, line_no, dim):
    """'c*k + c*k - c*k' -> sparse vector over 0-based indices."""
    norm = text.replace("-", "+-").replace("++-", "+-")
    out = {}
    for chunk in norm.split("+"):
        chunk = chunk.replace(" ", "")
        if not chunk:
            continue
        m = _TERM.match(chunk)
        if m is None:
            raise ParseError(f"bad term '{chunk.strip()}' (expected coeff*index)", line=line_no)
        try:
            coeff = Fraction(m.group(1))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in '{chunk}'", line=line_no) from None
        k = int(m.group(2))
        if not 1 <= k <= dim:
            raise ParseError(f"basis index {k} out of range 1..{dim}", line=line_no)
        s = out.get(k - 1, 0) + coeff
        if s:
            out[k - 1] = s
        else:
            out.pop(k - 1, None)
    return out


def parse_algebra(text: str, size_limit=None) -> Algebra:
    """The algebra text declares; a preset or algebra line is size-guarded
    before anything of that dimension is built."""
    name = None
    dim = None
    labels = None
    mul = {}
    declared = set()  # (i, j) of every mul line, zero products too
    unit = None
    augmentation = None
    saw_table_line = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].lower()

        if head == "preset":
            if saw_table_line:
                raise ParseError("preset line cannot be mixed with table lines", line=line_no)
            if len(tokens) < 2:
                raise ParseError("preset needs a name", line=line_no)
            spec = tokens[1] if len(tokens) == 2 else tokens[1] + ":" + ",".join(tokens[2:])
            try:
                return guarded_preset(spec, size_limit)
            except ParseError as exc:
                raise ParseError(str(exc), line=line_no) from None

        saw_table_line = True
        if head in ("basis", "mul", "unit", "augmentation") and dim is None:
            raise ParseError(f"{head} line before algebra line", line=line_no)
        if {"algebra": dim, "basis": labels, "unit": unit,
                "augmentation": augmentation}.get(head) is not None:  # set by an earlier line
            raise ParseError(f"second {head} line", line=line_no)
        if head == "algebra":
            if len(tokens) != 4 or tokens[2].lower() != "dim":
                raise ParseError("expected: algebra <name> dim <d>", line=line_no)
            name = tokens[1]
            try:
                dim = int(tokens[3])
            except ValueError:
                raise ParseError(f"bad dimension '{tokens[3]}'", line=line_no) from None
            if dim < 0:
                raise ParseError("dimension must be >= 0", line=line_no)
            size_guard(dim, size_limit, f"algebra '{name}'")
        elif head == "basis":
            labels = tokens[1:]
            if len(labels) != dim:
                raise ParseError(f"expected {dim} basis labels, got {len(labels)}", line=line_no)
        elif head == "mul":
            m = re.match(r"^mul\s+(\d+)\s+(\d+)\s*=\s*(.+)$", line, re.IGNORECASE)
            if m is None:
                raise ParseError("expected: mul <i> <j> = <coeff>*<k> [+ ...]", line=line_no)
            i, j = int(m.group(1)), int(m.group(2))
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ParseError(f"mul indices ({i},{j}) out of range 1..{dim}", line=line_no)
            vec = _parse_terms(m.group(3), line_no, dim)
            if (i, j) in declared:
                raise ParseError(f"duplicate mul {i} {j}", line=line_no)
            declared.add((i, j))
            if vec:
                mul[(i - 1, j - 1)] = vec
        elif head == "unit":
            m = re.match(r"^unit\s*=\s*(.+)$", line, re.IGNORECASE)
            if m is None:
                raise ParseError("expected: unit = <coeff>*<k> [+ ...]", line=line_no)
            unit = _parse_terms(m.group(1), line_no, dim)
        elif head == "augmentation":
            m = re.match(r"^augmentation\s*=\s*(\d+)$", line, re.IGNORECASE)
            if m is None:
                raise ParseError("expected: augmentation = <basis index>", line=line_no)
            k = int(m.group(1))
            if not 1 <= k <= dim:
                raise ParseError(f"basis index {k} out of range 1..{dim}", line=line_no)
            augmentation = {k - 1: 1}
        else:
            raise ParseError(f"unknown directive '{tokens[0]}'", line=line_no)

    if dim is None:
        raise ParseError("no algebra declaration found", line=1)
    return Algebra(dim, labels or None, mul, unit=unit, augmentation=augmentation, name=name)


def parse_algebra_file(path, size_limit=None) -> Algebra:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 at byte offset {exc.start}") from None
    return parse_algebra(text, size_limit)
