import ast
import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import hamorient
from hamorient.workbench import SUITES


def test_public_names_resolve_once():
    names = hamorient.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hamorient, name) is not None, name


def test_no_wall_clock_deadline_parameters():
    """Exact searches are bounded by work budgets, never by seconds."""
    public = [getattr(hamorient, name) for name in hamorient.__all__]
    for fn in public + list(SUITES.values()):
        if not callable(fn) or isinstance(fn, type) and issubclass(fn, Exception):
            continue             # exception classes carry no signature
        params = inspect.signature(fn).parameters
        assert not [p for p in params if "deadline" in p], fn


def test_no_tuning_parameters():
    """Search sizes are fixed module constants, not optional caller
    arguments (embed_hamilton_orientation's required partition is its sp)."""
    tuning = {"budget", "restarts", "near_miss_cap", "samples_per_decile",
              "k_cap", "sp"}
    public = [getattr(hamorient, name) for name in hamorient.__all__]
    for fn in public + list(SUITES.values()):
        if not callable(fn) or isinstance(fn, type) and issubclass(fn, Exception):
            continue
        params = inspect.signature(fn).parameters.values()
        optional = {p.name for p in params if p.default is not p.empty}
        assert not tuning & optional, fn
    for gone in ("CutSearchBudget", "embed_path_between", "switch_count",
                 "directed_run_decomposition_case1b",
                 "longest_directed_segment", "reverse_digraph",
                 "has_directed_window", "ExpansionParams", "CapabilityError",
                 "partition_case2", "SegmentPlan", "BlockPlan"):
        assert gone not in hamorient.__all__ and not hasattr(hamorient, gone)


def test_cut_search_is_not_seeded():
    """Cut search depends only on the host, alpha and the hints, and
    sampled certification probes fixed vertex orders: neither draws
    random sets, so nothing on their paths takes a seed."""
    for fn in (hamorient.find_sparse_cut, hamorient.decompose,
               hamorient.sparse_or_expander,
               hamorient.expansion._sampled_verdict):
        assert "seed" not in inspect.signature(fn).parameters, fn
    params = inspect.signature(hamorient.certify_expander).parameters
    assert list(params) == ["g", "nu", "tau", "exact_threshold"]
    assert params["exact_threshold"].default \
        == hamorient.expansion.EXACT_SWEEP_CAP
    for gone in ("_RESTARTS", "random", "_sampled_candidates",
                 "_SAMPLES_PER_DECILE", "_ROW_CHUNK", "_in_counts"):
        assert not hasattr(hamorient.expansion, gone), gone


def test_derived_parameters_are_not_settable():
    """tau and nu derive from alpha and zeta, and a partition is verified
    at its own parameters."""
    fields = [f.name for f in dataclasses.fields(hamorient.DecompositionParams)]
    assert fields == ["k", "zeta", "alpha", "exact_threshold"]
    p = hamorient.DecompositionParams(k=3, zeta=0.2, alpha=0.002)
    assert (p.tau, p.nu) == (0.002 / 10, 0.002 * p.tau * 0.2 / 16)
    assert list(inspect.signature(hamorient.verify_partition).parameters) \
        == ["g", "sp"]


def test_every_suite_parameter_is_annotated():
    """Experiment configs are type-checked against these annotations."""
    for name, fn in SUITES.items():
        for p in inspect.signature(fn).parameters.values():
            assert p.annotation is not p.empty, (name, p.name)


def test_sampled_certification_does_not_load_numpy_random():
    """Sampled certification draws nothing random; importing numpy.random
    would only add memory."""
    src = str(Path(hamorient.__file__).resolve().parent.parent)
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "import hamorient",
        "g = hamorient.gen_blowup_tt([15, 15], 0.95, 0.001, 1)",
        "v = hamorient.certify_expander(g, 0.05, 0.2, exact_threshold=0)",
        "assert v.mode == 'sampled'",
        "assert 'numpy.random' not in sys.modules",
    ])
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; a package's __all__
    counts as reading the names it re-exports."""
    tree = ast.parse(path.read_text())
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return sorted(imported - used)


def test_no_unused_imports():
    root = Path(__file__).resolve().parent.parent
    found = {str(path.relative_to(root)): names
             for top in ("src", "tests", "perfbench")
             for path in sorted((root / top).rglob("*.py"))
             if (names := _unused_imports(path))}
    assert found == {}


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def test_no_dead_private_code():
    """Each module-level private name in src/ is read by its own module or
    imported by another module of src/."""
    paths = sorted(Path(hamorient.__file__).resolve().parent.rglob("*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    imported = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.setdefault(node.module.rsplit(".", 1)[-1], set()) \
                    .update(a.name for a in node.names)
    dead = {}
    for module, tree in trees.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= imported.get(module, set())
        if names := sorted(_private_definitions(tree) - read):
            dead[module] = names
    assert dead == {}
