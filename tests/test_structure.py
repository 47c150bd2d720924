"""Structure bounds on the source tree.

No class under ``src/`` is longer than 600 lines.  The classes already
over the bound are listed with their size as a ceiling: they may shrink,
never grow, and a class that drops under 600 lines leaves the list.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
MAX_CLASS_LINES = 600
#: ``path:class`` -> the most lines it may have
CEILINGS = {
    "net/codec.py:Codec": 785,
    "agreement/replica.py:AgreementReplica": 743,
}


def class_sizes():
    """``path:class`` -> lines from its ``class`` line to its last line."""
    sizes = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                name = f"{path.relative_to(SRC).as_posix()}:{node.name}"
                sizes[name] = node.end_lineno - node.lineno + 1
    return sizes


def test_no_class_is_longer_than_600_lines():
    sizes = class_sizes()
    over = {name: size for name, size in sizes.items()
            if size > CEILINGS.get(name, MAX_CLASS_LINES)}
    assert over == {}
    # A listed class that shrank under the bound no longer needs a ceiling.
    assert all(sizes.get(name, 0) > MAX_CLASS_LINES for name in CEILINGS)
