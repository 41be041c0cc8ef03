"""The names the benchmark under ``perfbench/`` calls, and the package exports.

``perfbench/selftest.py`` lies outside the tier-1 run, so this guard keeps
a deletion in the library from breaking the benchmark unnoticed.
"""

import inspect

import circshell
from circshell import checkers, complexes, graphs, homology, kernels, suites

# every attribute the benchmark reads at run time, by module
BENCHMARK_NAMES = {
    checkers: ("shelling", "vertex_decomposition", "ShellingCertificate"),
    complexes: ("independence_complex", "Complex.from_facets"),
    graphs: ("Graph.from_edges", "CirculantSpec.parse", "circulant"),
    homology: ("is_cohen_macaulay", "BudgetError"),
    kernels: ("alpha", "alpha_product_failures", "backend", "HAVE_NUMBA"),
    suites: ("_certified", "RunConfig", "run_suite", "SuiteReport"),
}


def test_the_names_the_benchmark_calls_resolve():
    for module, names in BENCHMARK_NAMES.items():
        for name in names:
            owner = module
            for part in name.split("."):
                assert hasattr(owner, part), f"{module.__name__}.{name}"
                owner = getattr(owner, part)
    for budgeted in (checkers.shelling, checkers.vertex_decomposition,
                     homology.is_cohen_macaulay):
        assert "budget_s" in inspect.signature(budgeted).parameters, budgeted
    assert suites.RunConfig(timeout_s=0.5).timeout_s == 0.5
    missing = [name for name in circshell.__all__ if not hasattr(circshell, name)]
    assert missing == []
