"""Shared benchmark plumbing.

Each benchmark module regenerates one paper table/figure at the scale in
``REPRO_BENCH_SCALE`` (default ``default``; set ``tiny`` for a smoke run or
``full`` for paper-scale traces).  Regenerated tables are printed to the
terminal and written under ``benchmarks/out/`` (ignored by git); the
tracked ``benchmarks/results/`` copies are an archive refreshed on
purpose (EXPERIMENTS.md says how), never as a side effect of a test run.
"""

import os
import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "default")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def save_tables():
    """Callable(name, tables): print an experiment's tables and write
    them to ``benchmarks/out/<name>.txt``."""
    OUT_DIR.mkdir(exist_ok=True)

    def _save(name, tables):
        text = "\n".join(table.to_ascii() for table in tables)
        print("\n" + text)
        (OUT_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
        return tables

    return _save


def run_once(benchmark, fn):
    """Time a single full run of ``fn`` (experiments are too slow for
    multi-round calibration) and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
