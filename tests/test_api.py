"""Every public function and class of the library, and every public method
and property of its classes, is called or read by the library's own code,
or kept on purpose for a stated reason (ROADMAP, "Kept on purpose")."""

import ast
import inspect
from pathlib import Path

import liefourier

SRC = Path(liefourier.__file__).resolve().parent

# public names that no library code uses, each kept for its reason
KEPT = {
    "apply_difference",  # the only public form of the difference operator
    "identity",  # with multiply: the group-law oracles
    "multiply",
    "q1_weight",  # the pointwise oracle of grid_q1_weight
    "inverse_evaluate",  # the pointwise inverse, the grid transforms' oracle
    "su2_matrix",  # the fundamental representation at a point
    # the per-irrep block view that tests and users build coefficients from
    "FourierCoefficients.from_blocks",
    "FourierCoefficients.blocks",
}


def _uses(tree: ast.AST) -> set[str]:
    """Every name the code of ``tree`` reads outside the definition of that
    name.  An attribute reached from numpy (``np.multiply``, ``numpy.multiply``,
    ``np.linalg.svd``) names numpy's, so it is no use of a library name
    spelled the same."""
    names, attributes = _reads(tree)
    return names | attributes


def _reads(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The names and the attributes that :func:`_uses` counts, apart: a
    method or property is reached as an attribute only, so a local variable
    spelled like it is no use of it."""
    names, attributes = set(), set()

    class Uses(ast.NodeVisitor):
        def __init__(self):
            self.inside = []

        def visit_FunctionDef(self, node):
            self.inside.append(node.name)
            self.generic_visit(node)
            self.inside.pop()

        visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

        def visit_Name(self, node):
            if isinstance(node.ctx, ast.Load) and node.id not in self.inside:
                names.add(node.id)

        def visit_Attribute(self, node):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            of_numpy = isinstance(base, ast.Name) and base.id in ("np", "numpy")
            if not of_numpy and node.attr not in self.inside:
                attributes.add(node.attr)
            self.generic_visit(node)

    Uses().visit(tree)
    return names, attributes


def _public(nodes) -> list:
    return [node for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _definitions_and_unused() -> tuple[set[str], set[str]]:
    """The public module-level functions and classes of the library's modules
    and the public methods and properties of those classes, spelled
    ``Class.member``, and the unused ones among them: a function or class is
    used if any code reads its name (:func:`_uses`), a member if any code
    reads it as an attribute.  ``__init__.py`` only re-exports, so it counts
    for neither."""
    defined, members, names, attributes = set(), {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in _public(tree.body):
            defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                members |= {f"{node.name}.{member.name}": member.name for member in _public(node.body)}
        read_names, read_attributes = _reads(tree)
        names |= read_names
        attributes |= read_attributes
    unused = {name for name in defined if name not in names | attributes}
    unused |= {qualified for qualified, member in members.items() if member not in attributes}
    return defined, unused


def test_numpy_attributes_are_no_uses():
    # np.multiply is numpy's, so it must not hide that nothing calls groups.multiply
    assert "multiply" not in _uses(ast.parse("np.multiply(a, b, out=c)\nnumpy.multiply(a, b)"))
    assert "multiply" in _uses(ast.parse("groups.multiply(group, x, y)"))
    assert "multiply" in _uses(ast.parse("multiply(group, x, y)"))
    assert _uses(ast.parse("np.linalg.svd(a)")) == {"np", "a"}
    assert "svd" in _uses(ast.parse("np.asarray(a).svd()"))
    # a local variable is no use of a method or property spelled the same
    assert _reads(ast.parse("blocks = f(x)\ng(blocks)")) == ({"f", "x", "g", "blocks"}, set())
    assert _reads(ast.parse("c.blocks")) == ({"c"}, {"blocks"})


def test_public_api_is_used_or_kept():
    defined, unused = _definitions_and_unused()
    exported = [getattr(liefourier, name) for name in liefourier.__all__]
    assert {obj.__name__ for obj in exported if inspect.isfunction(obj) or inspect.isclass(obj)} <= defined
    assert sorted(unused - KEPT) == [], "public API that nothing in the library calls"
    assert sorted(KEPT - unused) == [], "kept names that the library now uses leave KEPT"


def _wide_cache_keys(tree: ast.AST) -> list[str]:
    """The functions of ``tree`` that ``functools.cache`` or ``lru_cache``
    decorates and that take a parameter not annotated ``int`` or ``bool``."""
    offenders = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        targets = [dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list]
        names = {target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None) for target in targets}
        if not names & {"cache", "lru_cache"}:
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, [args.vararg, args.kwarg])]
        if any(not (isinstance(a.annotation, ast.Name) and a.annotation.id in ("int", "bool")) for a in params):
            offenders.append(node.name)
    return offenders


def test_process_wide_caches_take_only_ints_and_bools():
    # a functools cache holds its keys and values for the life of the process;
    # grids, plans and anything keyed by a slice are held by the slice instead
    # (transform.slice_grid), so they are freed with it
    assert _wide_cache_keys(ast.parse("@functools.lru_cache(maxsize=24)\ndef f(group: G, b: float): pass")) == ["f"]
    assert _wide_cache_keys(ast.parse("@cache\ndef f(k: int, up: bool): pass")) == []
    offenders = [name for path in sorted(SRC.glob("*.py")) for name in _wide_cache_keys(ast.parse(path.read_text()))]
    assert offenders == [], "a process-wide cache keyed by more than ints and bools"
