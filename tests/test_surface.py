"""The program carries no names that only tests reach, the benchmark's
tracer names what the program has, and every mutant still applies.

Every module-level function and class in ``src/oclopt``, and every
non-dunder method of such a class, must be named somewhere in ``src/``
outside its own definition (decorators and body included). Mentions in
strings and comments do not count.

``perfbench/worker.py`` wraps program attributes by name and skips those
that are gone, so a rename would silently empty a per-layer metric. Its
names are read from its source, not imported, and every one that no longer
resolves must be listed in ``STALE``.

``tests/mutants.py`` rewrites one exact snippet per mutant; a snippet that
no longer occurs exactly once in its file, or a test path that no longer
exists, shows up here rather than only when the runner runs.
"""

import ast
import importlib.util
import io
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "oclopt"


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
    assert unused_names() == set()


WORKER = ROOT / "perfbench" / "worker.py"

# owner.attr -> why perfbench/worker.py traces it although the program has it no more
STALE = {
    "harness.ema_step": "EMA is AMA with delta=1 and adaptation off, taken by ama_step",
    "harness.malr_update": "a rate schedule is a schedule.Plateau the run observes",
    "harness.rwp_update": "a rate schedule is a schedule.Plateau the run observes",
    "metrics.eval_batch": "forward transfer reads stream.eval_window",
    "stream.next_batch": "a step takes its row of the block stream.training_block serves",
    "datapool.DataPool.checkpoint": "a step that raises ends the run: no pool is rolled back",
    "datapool.DataPool.restore": "a step that raises ends the run: no pool is rolled back",
    "datapool.DataPool.offer": "datapool.advance writes the slots a step overwrites",
    "harness.loss_and_grad": "training computes the gradient alone (model.gradient)",
}


def traced_names() -> list:
    """(owner expression, attribute) of every name the tracer wraps: each of
    ``HARNESS_NAMES`` on ``harness``, and each tuple ``install_tracer``
    adds to ``targets``. Owners are modules of oclopt and their attributes."""
    names = []
    for node in ast.walk(ast.parse(WORKER.read_text())):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "HARNESS_NAMES" for t in node.targets):
            names += [("harness", attr) for attr, _ in ast.literal_eval(node.value)]
        elif isinstance(node, ast.AugAssign) and getattr(node.target, "id", None) == "targets":
            names += [(ast.unparse(owner), ast.literal_eval(attr))
                      for owner, attr, *_ in (t.elts for t in node.value.elts)]
    return names


def resolve(owner: str):
    module, *path = owner.split(".")
    obj = importlib.import_module(f"oclopt.{module}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_every_name_the_tracer_wraps_resolves_or_is_listed_stale():
    names = traced_names()
    assert ("harness", "run_protocol_step") in names and ("datapool", "update") in names
    owners = {owner: resolve(owner) for owner, _ in names}   # every owner resolves
    assert {f"{owner}.{attr}" for owner, attr in names
            if not hasattr(owners[owner], attr)} == set(STALE)


def test_every_mutant_applies_to_one_snippet_and_names_tests_that_exist():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for name, (path, snippet, replacement, tests) in mutants.MUTANTS.items():
        assert (ROOT / path).read_text().count(snippet) == 1, name
        assert snippet != replacement, name
        for test in tests:
            file, *owner = test.split("::")
            assert (ROOT / file).is_file(), (name, test)
            if owner:   # a class, and maybe one of its tests
                classes = {node.name: {getattr(item, "name", None) for item in node.body}
                           for node in ast.parse((ROOT / file).read_text()).body
                           if isinstance(node, ast.ClassDef)}
                assert owner[0] in classes and set(owner[1:]) <= classes[owner[0]], (name, test)
