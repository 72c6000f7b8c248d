"""Repo-tooling guards that keep the test/benchmark layout collectable.

``tests/`` and ``benchmarks/`` are collected in one pytest run without
package ``__init__`` files, so two test modules sharing a basename break
collection with an import-file-mismatch error.  This guard makes the
clash a loud, attributable failure instead of a confusing one.  The
import guards do the same for a deleted name that a module, an example
or a benchmark still imports.
"""

import ast
import importlib
import pathlib
import pkgutil

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_no_test_basename_clash_between_tests_and_benchmarks():
    test_names = {path.name for path in (REPO / "tests").glob("test_*.py")}
    bench_names = {path.name
                   for path in (REPO / "benchmarks").glob("test_*.py")}
    clashes = sorted(test_names & bench_names)
    assert not clashes, (
        f"test module basenames duplicated across tests/ and benchmarks/ "
        f"break pytest collection: {clashes}; rename one side "
        f"(see tests/test_tenancy_subsystem.py vs benchmarks/test_tenancy.py)")


def test_all_test_basenames_unique_repo_wide():
    seen = {}
    for directory in ("tests", "benchmarks"):
        for path in sorted((REPO / directory).glob("test_*.py")):
            assert path.name not in seen, (
                f"{path} duplicates {seen[path.name]}")
            seen[path.name] = path


def test_ci_workflow_runs_tier1_and_bench_smoke():
    workflow = REPO / ".github" / "workflows" / "ci.yml"
    text = workflow.read_text(encoding="utf-8")
    assert "pytest" in text
    assert "REPRO_BENCH_SCALE=tiny" in text, (
        "CI lost the benchmark smoke job; the perf harness can rot "
        "silently without it")


def _repro_imports(path):
    """Yield ``(lineno, module, name)`` for every absolute import of a
    ``repro`` module in ``path``; ``name`` is None for ``import repro.x``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level \
                and node.module and node.module.split(".")[0] == "repro":
            for alias in node.names:
                yield node.lineno, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield node.lineno, alias.name, None


def test_every_repro_module_imports():
    """A deletion that strands an import anywhere in the package fails
    here, not in whichever command next happens to load that module."""
    import repro

    failures = []
    for info in pkgutil.walk_packages(repro.__path__, "repro.",
                                      onerror=failures.append):
        try:
            importlib.import_module(info.name)
        except Exception as exc:   # report every module, not the first
            failures.append(f"{info.name}: {exc!r}")
    assert not failures, failures


def test_scripts_import_only_names_repro_has():
    """``examples/``, ``benchmarks/`` and ``bench/`` sit outside the lint
    step, so check each of their ``from repro... import name`` statements
    resolves — by importing the repro module, never the script."""
    stale = []
    for directory in ("examples", "benchmarks", "bench"):
        for path in sorted((REPO / directory).rglob("*.py")):
            for lineno, module_name, name in _repro_imports(path):
                where = f"{path.relative_to(REPO)}:{lineno}"
                try:
                    module = importlib.import_module(module_name)
                except ImportError as exc:
                    stale.append(f"{where}: {module_name} ({exc})")
                    continue
                if name is None or name == "*" or hasattr(module, name):
                    continue
                try:   # ``from package import submodule``
                    importlib.import_module(f"{module_name}.{name}")
                except ImportError:
                    stale.append(f"{where}: {module_name} has no {name}")
    assert not stale, "stale repro imports:\n" + "\n".join(stale)
