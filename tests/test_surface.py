"""The program carries no names that only tests reach.

Every module-level function and class in ``src/oclopt``, and every
non-dunder method of such a class, must be named somewhere in ``src/``
outside its own definition (decorators and body included). Mentions in
strings and comments do not count.
"""

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "oclopt"

# name -> why it stays although nothing in src/ names it
ALLOWED = {
    "load_optimizer": "reads checkpoint.npz back; a run-state file that runs can "
                      "resume from will replace it (ROADMAP item 4)",
}


def definitions(tree):
    """Module-level functions and classes, and the non-dunder methods of the
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def unused_names() -> set:
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    uses = defaultdict(list)   # name -> [(path, line)] of every NAME token
    for path, text in sources.items():
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                uses[tok.string].append((path, tok.start[0]))
    unused = set()
    for path, text in sources.items():
        for node in definitions(ast.parse(text)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if all(p == path and first <= line <= node.end_lineno
                   for p, line in uses[node.name]):
                unused.add(node.name)
    return unused


def test_every_src_name_is_used_in_src():
    assert unused_names() == set(ALLOWED)
