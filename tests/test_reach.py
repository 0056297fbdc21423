"""Reach or remove: every library name has a caller in the library.

The gate parses ``src/conjquot/*.py`` with :mod:`ast` and collects every
module-level function and class, and every method and property that is
not a dunder.  A definition counts as reached when some module in
``src/`` loads its name: a module-level one as a bare name or as an
attribute, a method or property as an attribute.  Imports and
``__all__`` do not count: an export is not a use.  Tests, perfbench and
scripts do not count either, so code that only its own tests call fails
here.  A name that something outside ``src/`` needs on purpose goes into
:data:`KEPT` with its reason.  The test references in ``tests/oracles.py``
pass the same gate against ``tests/``: an oracle no test loads is deleted.

The check matches names, not bindings.  A same-named local hides a
module-level miss, and a same-named attribute of any object hides a
miss: ``record`` is loaded all over ``src/``, so an unreached ``record``
method passes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "conjquot"

# Reached only from outside src/, kept on purpose: (module, qualname) -> why.
KEPT = {
    ("constructions", "quotient_Y_minus"): "acceptance criterion 7: the other quotient of a v- or u-curve",
    ("domains", "real_part_X"): "acceptance criterion 4: the components of the real part",
    ("propagation", "replay_fact"): "the fact checker: perfbench's sextic-sweep replays every fact (ROADMAP item 3)",
    ("propagation", "Certificate.replay"): "the certificate checker: perfbench's derive-search replays each one (item 3)",
    ("schemes", "iter_forests"): "the forest universe that ROADMAP items 2 and 10 enumerate",
    ("moves", "inverse_move"): "move reversibility, which the split type rule and the move graph (item 2) rely on",
    ("moves", "Classification.inverse"): "the class of a reversed move, for the move graph (item 2)",
    ("tracer", "circle"): "perfbench's trace-grid inputs are products of circles",
    ("fourman", "FourManifoldWord.b1"): "a word's first Betti number, next to the b2 and sigma it completes",
    ("fourman", "FourManifoldWord.b2plus"): "acceptance criterion 7 compares a word's b2+ with the double plane's",
    ("fourman", "FourManifoldWord.b2minus"): "acceptance criterion 7 compares a word's b2- with the double plane's",
    ("fourman", "FourManifoldWord.chi"): "a word's Euler characteristic, next to the b2 and sigma it completes",
    ("fourman", "FourManifoldWord.sigma"): "acceptance criterion 5 compares a word's signature with the quotient's",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """Qualnames of the non-dunder module-level functions and classes, and
    of the non-dunder methods and properties of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or _is_dunder(node.name):
            continue
        yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}"


def _scan_src():
    """Every (module, qualname) defined in src/, and the names src/ loads
    as bare names and as attributes."""
    defined, names, attrs = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.stem, qualname) for qualname in _definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return defined, names, attrs


def _reached(qualname: str, names: set[str], attrs: set[str]) -> bool:
    owner, _, name = qualname.rpartition(".")
    return name in attrs or (not owner and name in names)


def test_every_definition_is_reached_from_src():
    defined, names, attrs = _scan_src()
    unreached = [
        f"{module}.{qualname}"
        for module, qualname in defined
        if not _reached(qualname, names, attrs) and (module, qualname) not in KEPT
    ]
    assert unreached == [], "delete these, or name a reason in KEPT: " + ", ".join(unreached)


def test_every_kept_name_exists_and_is_unreached():
    defined, names, attrs = _scan_src()
    assert set(KEPT) <= set(defined), sorted(set(KEPT) - set(defined))
    reached = sorted(key for key in KEPT if _reached(key[1], names, attrs))
    assert reached == [], f"these have a caller in src/ now; drop them from KEPT: {reached}"


def test_every_oracle_is_loaded_in_tests():
    # Reach or remove for the test references: each module-level function of
    # tests/oracles.py is loaded by name in tests/, outside its own definition.
    tests = Path(__file__).resolve().parent
    oracles = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    functions = {node.name for node in oracles.body if isinstance(node, ast.FunctionDef)}
    loaded = set()
    for path in sorted(tests.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            loaded |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            } - {getattr(top, "name", None)}
    unloaded = sorted(functions - loaded)
    assert unloaded == [], "delete these, or call them from a test: " + ", ".join(unloaded)
