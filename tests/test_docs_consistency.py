"""Documentation/code consistency guards.

Keeps DESIGN.md's experiment index, the registry, the benchmark modules
and the CLI honest with one another — documentation that drifts from the
code is worse than none.
"""

import pathlib
import re

import pytest

from repro.experiments import EXPERIMENTS
from repro.core import policy_names

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestExperimentIndex:
    def test_every_registry_entry_has_a_bench_or_shares_one(self):
        """Each experiment id is runnable and at least one benchmark module
        references its figure family."""
        bench_sources = "\n".join(
            path.read_text(encoding="utf-8")
            for path in (REPO / "benchmarks").glob("test_*.py"))
        for experiment_id in EXPERIMENTS:
            token = f'"{experiment_id}"'
            assert token in bench_sources or \
                experiment_id.startswith("fig") and \
                experiment_id[:4] in bench_sources, \
                f"no benchmark references experiment {experiment_id!r}"

    def test_design_md_mentions_every_figure(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for figure in ("Table 1", "Fig 4", "Fig 5a", "Fig 5b", "Fig 5c",
                       "Fig 5d", "Fig 6a", "Fig 6c", "Fig 6d", "Fig 7",
                       "Fig 8a", "Fig 8b", "Fig 8c", "Fig 9a", "Fig 9b",
                       "Fig 9c"):
            assert figure in design, f"DESIGN.md lost {figure}"

    def test_design_md_module_references_exist(self):
        """Every `repro.x.y` dotted module named in DESIGN.md is importable."""
        import importlib
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        modules = set(re.findall(r"`(repro(?:\.[a-z_]+)+)`", design))
        assert modules, "DESIGN.md no longer names any modules"
        for dotted in modules:
            # strip attribute-style tails like repro.cache.metrics.Occupancy
            parts = dotted.split(".")
            for depth in range(len(parts), 1, -1):
                candidate = ".".join(parts[:depth])
                try:
                    importlib.import_module(candidate)
                    break
                except ModuleNotFoundError:
                    continue
            else:
                pytest.fail(f"DESIGN.md references missing module {dotted}")

    def test_experiments_md_covers_every_registry_figure(self):
        text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for artifact in ("Table 1", "Fig 4", "Fig 5a", "Fig 5b", "Fig 5c",
                         "Fig 5d", "Fig 7", "Fig 8a", "Fig 8c", "Fig 9a"):
            assert artifact in text, f"EXPERIMENTS.md lost {artifact}"

    def test_readme_examples_exist(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for match in re.findall(r"examples/(\w+\.py)", readme):
            assert (REPO / "examples" / match).exists(), \
                f"README references missing example {match}"

    def test_readme_policy_claims_match_registry(self):
        """The registry holds exactly the policies a figure, ablation or
        workload uses, and README's `repro.core` row names each of them."""
        assert sorted(policy_names()) == [
            "camp", "camp-sharded", "gd-wheel", "gds", "gdsf",
            "greedy-dual", "lru", "pooled-lru"]
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        row = next(line for line in readme.splitlines()
                   if line.startswith("| `repro.core` |"))
        for shown in ("CAMP", "sharded", "LRU", "GDS", "Greedy Dual",
                      "GDSF", "GD-Wheel", "Pooled LRU"):
            assert shown in row, f"README's repro.core row lost {shown}"

    def test_all_example_scripts_have_main_and_docstring(self):
        for path in (REPO / "examples").glob("*.py"):
            source = path.read_text(encoding="utf-8")
            assert '"""' in source.split("\n", 2)[2][:400] or \
                source.lstrip().startswith(('#!/usr/bin/env python3', '"""')), \
                f"{path.name} lacks a docstring header"
            assert 'if __name__ == "__main__":' in source, \
                f"{path.name} is not runnable"
