"""Ablation — heap arity (8-ary vs 2-ary implicit heap).

Reproduces the design decision the paper took from Larkin/Sen/Tarjan: the
8-ary implicit heap is a solid default for both GDS and CAMP.  The key
structural check: CAMP's visit counts are a small fraction of GDS's under
either arity — the savings come from the algorithm, not the heap.  The
pairing and Fibonacci rows of the four-backend run are archived in
EXPERIMENTS.md.
"""

from conftest import run_once

from repro.experiments import run_experiment


def test_heap_ablation(benchmark, scale, save_tables):
    tables = run_once(benchmark,
                      lambda: run_experiment("ablation-heap", scale))
    save_tables("ablation_heap", tables)
    table = tables[0]
    visits = {(row[0], row[1]): row[2] for row in table.rows}
    for backend in ("dary-8", "dary-2"):
        assert visits[("camp", backend)] < visits[("gds", backend)]
    # identical eviction decisions across arities -> identical quality
    costs = {(row[0], row[1]): row[4] for row in table.rows}
    reference = costs[("gds", "dary-8")]
    assert abs(costs[("gds", "dary-2")] - reference) < 1e-12
