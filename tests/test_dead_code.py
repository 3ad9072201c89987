"""Every function and method of the package is called by the package, or kept for a reason."""

import ast
import glob
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "embalign", "*.py")))

#: functions no package code calls, each kept for the reason given
KEEP = {
    # the metric oracles of tests/test_acceptance.py test these directly
    "ident_eval.rank_k_accuracy", "ident_eval.mean_average_precision", "ident_eval.cmc_curve",
    "verif_eval.auc", "verif_eval.eer", "verif_eval.tmr_at_fmr",
    # the reader of the map files `fit` writes
    "align.load_map",
    # the per-seed fit diagnostics planned in ROADMAP.md report the training residual
    "align.training_residual",
    # the chunked-evaluation tests compare each seed's metrics against it
    "ident_eval._metrics_from_scores",
    # the serial reference of one side's metrics, which the evaluation tests compare against
    "ident_eval._metrics_from_rows",
    # README's quick start reads the baseline summary of a report
    "reports.AlignedBaselineReport.baseline_summary",
    # the clustering oracles of tests/test_acceptance.py read each merge's leaves
    "analysis.Dendrogram.leaves_of",
}


def _walk_in_defs(tree):
    """Each node of ``tree`` with the names of the functions it lies in, itself included."""
    stack = [(tree, ())]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, ast.FunctionDef):
            inside += (node.name,)
        yield node, inside
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))


def uncalled_functions(sources: dict) -> list:
    """``module.function`` of each module-level function no other node of the package names.

    ``sources`` maps module names to their source.  A function counts as
    called when some module other than ``__init__`` reads its name, as a
    plain name or as an attribute of a sibling module (``align.fit_map``
    after ``from . import align``).  Its definition, a field or variable
    of the same name being set, an attribute of any other object
    (``report.auc``) and a read inside its own definition (recursion) are
    not reads.
    """
    defined, read = [], set()
    for module, source in sources.items():
        if module == "__init__":  # it imports names only to re-export them
            continue
        tree = ast.parse(source)
        defined += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, ast.FunctionDef)]
        siblings = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                    for alias in node.names}
        for node, inside in _walk_in_defs(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings):
                name = node.attr
            else:
                continue
            if name not in inside:
                read.add(name)
    return sorted(name for name in defined if name.split(".")[1] not in read)


def uncalled_methods(sources: dict) -> list:
    """``module.Class.method`` of each method or property of a module-level class no code reads.

    A method counts as called when some module other than ``__init__``
    reads an attribute of its name, of any object (``self.fit``,
    ``report.to_dict``), outside a definition of that name (recursion).
    Dunder methods are called by Python itself.
    """
    defined, read = [], set()
    for module, source in sources.items():
        if module == "__init__":
            continue
        tree = ast.parse(source)
        defined += [f"{module}.{cls.name}.{node.name}" for cls in tree.body
                    if isinstance(cls, ast.ClassDef) for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and not (node.name.startswith("__") and node.name.endswith("__"))]
        read |= {node.attr for node, inside in _walk_in_defs(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and node.attr not in inside}
    return sorted(name for name in defined if name.rsplit(".", 1)[1] not in read)


def traced_layers(monkeypatch) -> set:
    """The ``module.function`` names the benchmark's traced runs wrap (``bench/spans.py``)."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    return {f"{m}.{f}" for m, f, _ in importlib.import_module("spans").LAYERS}


def test_every_uncalled_function_is_a_traced_layer_or_kept(monkeypatch):
    sources = {}
    for path in SOURCES:
        with open(path, encoding="utf-8") as f:
            sources[os.path.basename(path)[:-3]] = f.read()
    uncalled = uncalled_functions(sources) + uncalled_methods(sources)
    dead = set(uncalled) - traced_layers(monkeypatch) - KEEP
    assert not dead, f"no package code calls {sorted(dead)}"
    assert KEEP <= set(uncalled), f"kept but called: {sorted(KEEP - set(uncalled))}"


def test_the_scan_sees_called_and_uncalled_functions():
    sources = {
        "__init__": "from .a import f, g, h, m\n",
        "a": "def f():\n    return g()\n\ndef g():\n    return 1\n\ndef h():\n    pass\n\n"
             "def m():\n    pass\n\ndef d(n):\n    return d(n - 1) if n else 0\n",
        "b": "from . import a\n\ndef k(r):\n    h = r.h\n    return a.f(), r.m\n",
    }
    assert uncalled_functions(sources) == ["a.d", "a.h", "a.m", "b.k"]


def test_the_scan_sees_called_and_uncalled_methods():
    sources = {
        "__init__": "from .a import A\n",
        "a": "class A:\n    def __init__(self):\n        self.g = 1\n\n"
             "    def f(self):\n        return self.p\n\n"
             "    @property\n    def p(self):\n        return 1\n\n"
             "    def g(self):\n        pass\n\n    def h(self):\n        pass\n\n"
             "    def t(self, n):\n        return self.t(n - 1) if n else 0\n",
        "b": "def k(r):\n    return r.f()\n",
    }
    assert uncalled_methods(sources) == ["a.A.g", "a.A.h", "a.A.t"]
