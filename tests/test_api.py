"""Snapshot of the public API: module ``__all__`` lists, the package's
exports, and the call signature of every public class and function.

A refactor that drops or renames a public name or parameter fails here.
An intended API change edits the literals below and says why.
"""

import importlib
import inspect
import pkgutil

import swapmc

MODULE_ALL = {
    "chain": [
        "ChainConfig",
        "StepOutcome",
        "ChainStats",
        "SampleResult",
        "step_bipartite",
        "step_directed",
        "sample",
        "derive_chain_seeds",
    ],
    "cli": ["main"],
    "conditions": [
        "ConditionReport",
        "ERWindowReport",
        "bipartite_spread_condition",
        "directed_spread_condition",
        "erdos_renyi_window",
        "greenhill_sfragara_directed",
    ],
    "degrees": [
        "BipartiteDegreeSequence",
        "DirectedDegreeBiSequence",
        "DegreeBounds",
        "is_bipartite_graphic",
        "is_directed_graphic",
        "bounds_of",
        "kleitman_wang_arcs",
    ],
    "errors": None,
    "io": [
        "parse_sequence",
        "load_sequence",
        "format_sequence",
        "parse_realization",
        "load_realization",
        "format_realization",
        "realization_to_json",
    ],
    "oracle": [
        "POSITION_BUDGET",
        "STATE_BUDGET",
        "StateSpace",
        "enumerate_realizations",
        "count_realizations",
        "ExactKernel",
        "exact_transition_matrix",
        "swap_graph_connected",
        "tv_curve",
    ],
    "paths": [
        "Cycle",
        "CycleDecomposition",
        "AuxiliaryMatrix",
        "SweepResult",
        "PathSegment",
        "CanonicalPath",
        "BadPositionReport",
        "RepairResult",
        "RepairReport",
        "decompose",
        "milestones",
        "cornerstone",
        "sweep",
        "auxiliary_matrix",
        "build_canonical_path",
        "verify_bad_positions",
        "repair_to_realization",
        "verify_repairs",
    ],
    "realization": [
        "SwapMove",
        "BipartiteRealization",
        "DirectedRealization",
        "construct_bipartite",
        "construct_directed",
        "to_bipartite_representation",
        "from_bipartite_representation",
        "try_c4_swap",
        "try_c6_swap",
        "hamming_distance",
        "canonical_forbidden",
        "partner_arrays",
        "apply_switch",
    ],
}

PACKAGE_EXPORTS = [
    "AuxiliaryMatrix", "BadPositionReport", "BipartiteDegreeSequence",
    "BipartiteRealization", "BudgetExceededError", "CanonicalPath", "ChainConfig",
    "ChainStats", "ConditionReport", "Cycle", "CycleDecomposition", "DegreeBounds",
    "DirectedDegreeBiSequence", "DirectedRealization", "ERWindowReport", "ExactKernel",
    "FormatError", "IllegalMoveError", "InfeasibleSequenceError", "RepairError",
    "RepairReport", "RepairResult", "SampleResult", "StepOutcome", "SwapMCError",
    "SwapMove", "auxiliary_matrix", "bipartite_spread_condition", "bounds_of",
    "build_canonical_path", "construct_bipartite", "construct_directed", "cornerstone",
    "count_realizations", "decompose", "derive_chain_seeds", "directed_spread_condition",
    "enumerate_realizations", "erdos_renyi_window", "exact_transition_matrix",
    "format_realization", "format_sequence", "from_bipartite_representation",
    "hamming_distance", "is_bipartite_graphic", "is_directed_graphic",
    "kleitman_wang_arcs", "load_realization", "load_sequence", "milestones",
    "parse_realization", "parse_sequence", "realization_to_json", "repair_to_realization",
    "sample", "step_bipartite", "step_directed", "swap_graph_connected", "sweep",
    "to_bipartite_representation", "try_c4_swap", "try_c6_swap", "tv_curve",
    "tv_from_kernel", "verify_bad_positions", "verify_repairs",
]  # fmt: skip

# Exceptions have no inspectable signature; their bases are pinned instead.
SIGNATURES = {
    "chain.ChainConfig": "(seed: 'int', samples: 'int', burn_in: 'int | None' = None, "
    "thinning: 'int' = 1, chain_kind: 'str' = 'bipartite', lazy: 'bool' = True) -> None",
    "chain.ChainStats": "(steps: 'int' = 0, lazy: 'int' = 0, illegal: 'int' = 0, "
    "applied_c4: 'int' = 0, applied_c6: 'int' = 0) -> None",
    "chain.SampleResult": "(realizations: 'list' = <factory>, "
    "stats: 'ChainStats' = <factory>) -> None",
    "chain.StepOutcome": "(moved: 'bool', move: 'SwapMove | None', reason: 'str') -> None",
    "chain.derive_chain_seeds": "(seed: 'int', count: 'int') -> 'list[int]'",
    "chain.sample": "(seq, forbidden=(), config: 'ChainConfig | None' = None, rng=None) "
    "-> 'SampleResult'",
    "chain.step_bipartite": "(r: 'BipartiteRealization', rng, *, lazy: 'bool' = True, "
    "inplace: 'bool' = False) -> 'tuple[BipartiteRealization, StepOutcome]'",
    "chain.step_directed": "(r: 'BipartiteRealization', rng, *, lazy: 'bool' = True, "
    "inplace: 'bool' = False) -> 'tuple[BipartiteRealization, StepOutcome]'",
    "cli.main": "(argv=None) -> 'int'",
    "conditions.ConditionReport": "(name: 'str', bounds: 'DegreeBounds', "
    "applicable: 'bool', holds: 'bool | None', lhs: 'int', rhs: 'int | None', "
    "lhs_factors: 'tuple[int, int]', rhs_candidates: 'tuple[int, int] | None', "
    "active_branch: 'int | None', reason: 'str' = '') -> None",
    "conditions.ERWindowReport": "(kind: 'str', n: 'int', m: 'int', p: 'float', "
    "windows: 'tuple[tuple[float, float], ...]', inside: 'tuple[bool, ...]') -> None",
    "conditions.bipartite_spread_condition": "(b: 'DegreeBounds') -> 'ConditionReport'",
    "conditions.directed_spread_condition": "(b: 'DegreeBounds') -> 'ConditionReport'",
    "conditions.erdos_renyi_window": "(kind: 'str', n: 'int', p: 'float', "
    "m: 'int | None' = None) -> 'ERWindowReport'",
    "conditions.greenhill_sfragara_directed": "(seq: 'DirectedDegreeBiSequence') "
    "-> 'ConditionReport'",
    "degrees.BipartiteDegreeSequence": "(u_degrees: 'tuple[int, ...]', "
    "v_degrees: 'tuple[int, ...]') -> None",
    "degrees.DegreeBounds": "(c1: 'int', c2: 'int', d1: 'int', d2: 'int', n: 'int', "
    "m: 'int') -> None",
    "degrees.DirectedDegreeBiSequence": "(out_degrees: 'tuple[int, ...]', "
    "in_degrees: 'tuple[int, ...]') -> None",
    "degrees.bounds_of": "(seq) -> 'DegreeBounds'",
    "degrees.is_bipartite_graphic": "(seq: 'BipartiteDegreeSequence') -> 'bool'",
    "degrees.is_directed_graphic": "(seq: 'DirectedDegreeBiSequence') -> 'bool'",
    "degrees.kleitman_wang_arcs": "(seq: 'DirectedDegreeBiSequence') "
    "-> 'list[tuple[int, int]] | None'",
    "errors.BudgetExceededError": "bases (SwapMCError, RuntimeError)",
    "errors.FormatError": "bases (SwapMCError, ValueError)",
    "errors.IllegalMoveError": "bases (SwapMCError, ValueError)",
    "errors.InfeasibleSequenceError": "bases (SwapMCError, ValueError)",
    "errors.RepairError": "bases (SwapMCError, RuntimeError)",
    "errors.SwapMCError": "bases (Exception)",
    "io.format_realization": "(real, fmt: 'str' = 'edges') -> 'str'",
    "io.format_sequence": "(seq) -> 'str'",
    "io.load_realization": "(path) -> 'BipartiteRealization | DirectedRealization'",
    "io.load_sequence": "(path) -> 'BipartiteDegreeSequence | DirectedDegreeBiSequence'",
    "io.parse_realization": "(text: 'str') -> 'BipartiteRealization | DirectedRealization'",
    "io.parse_sequence": "(text: 'str') "
    "-> 'BipartiteDegreeSequence | DirectedDegreeBiSequence'",
    "io.realization_to_json": "(real) -> 'dict'",
    "oracle.ExactKernel": "(space: 'StateSpace', chain_kind: 'str', p_c4: 'Fraction', "
    "p_c6: 'Fraction', c4_pairs: 'tuple[np.ndarray, np.ndarray]', "
    "c6_pairs: 'tuple[np.ndarray, np.ndarray]') -> None",
    "oracle.StateSpace": "(seq, forbidden=(), *, position_budget: 'int' = 36)",
    "oracle.count_realizations": "(seq: 'BipartiteDegreeSequence | DirectedDegreeBiSequence', "
    "forbidden=(), *, position_budget: 'int' = 36) -> 'int'",
    "oracle.enumerate_realizations": "(seq: 'BipartiteDegreeSequence | DirectedDegreeBiSequence', "
    "forbidden=(), *, position_budget: 'int' = 36) -> 'list[BipartiteRealization]'",
    "oracle.exact_transition_matrix": "(seq: 'BipartiteDegreeSequence | DirectedDegreeBiSequence', "
    "forbidden=(), chain_kind: 'str' = 'bipartite', *, state_budget: 'int' = 5000, "
    "position_budget: 'int' = 36) -> 'ExactKernel'",
    "oracle.swap_graph_connected": "(seq: 'BipartiteDegreeSequence | DirectedDegreeBiSequence', "
    "forbidden=(), moves: 'str' = 'c4', *, position_budget: 'int' = 36) "
    "-> 'tuple[bool, int]'",
    "oracle.tv_curve": "(seq: 'BipartiteDegreeSequence | DirectedDegreeBiSequence', "
    "forbidden=(), chain_kind: 'str' = 'bipartite', horizon: 'int' = 50, *, "
    "state_budget: 'int' = 5000) -> 'list[float]'",
    "oracle.tv_from_kernel": "(kernel: 'ExactKernel', horizon: 'int') -> 'list[float]'",
    "paths.AuxiliaryMatrix": "(seq, matrix, forbidden=(), *, validate=True)",
    "paths.BadPositionReport": "(max_twos_direct: 'int' = 0, "
    "max_minus_ones_direct: 'int' = 0, max_twos_intermediate: 'int' = 0, "
    "max_minus_ones_intermediate: 'int' = 0, violations: 'list[int]' = <factory>) -> None",
    "paths.CanonicalPath": "(states: 'list[BipartiteRealization]', "
    "moves: 'list[SwapMove]', intermediate: 'list[bool]', "
    "segments: 'list[PathSegment]') -> None",
    "paths.Cycle": "(us: 'tuple[int, ...]', vs: 'tuple[int, ...]', first_is_x: 'bool') "
    "-> None",
    "paths.CycleDecomposition": "(cycles: 'tuple[Cycle, ...]') -> None",
    "paths.PathSegment": "(cycle: 'Cycle', corner: 'int', norm_us: 'tuple[int, ...]', "
    "norm_vs: 'tuple[int, ...]', first_state: 'int', last_state: 'int') -> None",
    "paths.RepairReport": "(max_switches: 'int' = 0, max_distance_direct: 'int' = 0, "
    "max_distance_intermediate: 'int' = 0, failures: 'list[int]' = <factory>) -> None",
    "paths.RepairResult": "(realization: 'BipartiteRealization', "
    "switches: 'list[SwapMove]', distance: 'int') -> None",
    "paths.SweepResult": "(moves: 'list[SwapMove]', states: 'list[BipartiteRealization]', "
    "intermediate: 'list[bool]', norm_us: 'tuple[int, ...]', "
    "norm_vs: 'tuple[int, ...]') -> None",
    "paths.auxiliary_matrix": "(x: 'BipartiteRealization', y: 'BipartiteRealization', "
    "z: 'BipartiteRealization') -> 'AuxiliaryMatrix'",
    "paths.build_canonical_path": "(x: 'BipartiteRealization', "
    "y: 'BipartiteRealization') -> 'CanonicalPath'",
    "paths.cornerstone": "(state, cycle: 'Cycle') -> 'int'",
    "paths.decompose": "(x: 'BipartiteRealization', y: 'BipartiteRealization') "
    "-> 'CycleDecomposition'",
    "paths.milestones": "(x: 'BipartiteRealization', y: 'BipartiteRealization', "
    "dec: 'CycleDecomposition') -> 'list[BipartiteRealization]'",
    "paths.repair_to_realization": "(aux: 'AuxiliaryMatrix', cycle_rows=(), "
    "cycle_cols=(), corner: 'int | None' = None, bounds=None) -> 'RepairResult'",
    "paths.sweep": "(g: 'BipartiteRealization', g_next: 'BipartiteRealization', "
    "cycle: 'Cycle', corner: 'int | None' = None) -> 'SweepResult'",
    "paths.verify_bad_positions": "(path: 'CanonicalPath', x: 'BipartiteRealization', "
    "y: 'BipartiteRealization') -> 'BadPositionReport'",
    "paths.verify_repairs": "(path: 'CanonicalPath', x: 'BipartiteRealization', "
    "y: 'BipartiteRealization', bounds=None) -> 'RepairReport'",
    "realization.BipartiteRealization": "(seq, matrix, forbidden=(), *, validate=True)",
    "realization.DirectedRealization": "(seq: 'DirectedDegreeBiSequence', matrix, *, "
    "validate=True)",
    "realization.SwapMove": "(kind: 'str', us: 'tuple[int, ...]', vs: 'tuple[int, ...]', "
    "sign: 'int' = 1) -> None",
    "realization.apply_switch": "(M: 'np.ndarray', mv: 'SwapMove') -> 'None'",
    "realization.canonical_forbidden": "(forbidden, n: 'int', m: 'int') "
    "-> 'tuple[tuple[int, int], ...]'",
    "realization.construct_bipartite": "(seq: 'BipartiteDegreeSequence', forbidden=()) "
    "-> 'BipartiteRealization'",
    "realization.construct_directed": "(seq: 'DirectedDegreeBiSequence') "
    "-> 'DirectedRealization'",
    "realization.from_bipartite_representation": "(b: 'BipartiteRealization') "
    "-> 'DirectedRealization'",
    "realization.hamming_distance": "(a, b) -> 'int'",
    "realization.partner_arrays": "(forbidden: 'tuple[tuple[int, int], ...]', n: 'int', "
    "m: 'int') -> 'tuple[tuple[int, ...], tuple[int, ...]]'",
    "realization.to_bipartite_representation": "(d: 'DirectedRealization') "
    "-> 'BipartiteRealization'",
    "realization.try_c4_swap": "(r: 'BipartiteRealization', i, i2, j, j2) "
    "-> 'SwapMove | None'",
    "realization.try_c6_swap": "(r: 'BipartiteRealization', us, vs) -> 'SwapMove | None'",
}


def _modules():
    names = sorted(info.name for info in pkgutil.iter_modules(swapmc.__path__))
    return {name: importlib.import_module(f"swapmc.{name}") for name in names}


def _public(mod):
    """``__all__``, or the public names a module without one defines itself."""
    names = getattr(mod, "__all__", None)
    if names is not None:
        return names
    return [k for k, v in vars(mod).items() if getattr(v, "__module__", None) == mod.__name__]


def _describe(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except ValueError:  # a builtin-derived class such as an exception
        return "bases (" + ", ".join(b.__name__ for b in obj.__bases__) + ")"


def test_module_all_lists():
    assert {name: getattr(mod, "__all__", None) for name, mod in _modules().items()} == (
        MODULE_ALL
    )


def test_package_exports():
    exports = sorted(
        name
        for name, value in vars(swapmc).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exports == PACKAGE_EXPORTS


def test_signatures_of_public_classes_and_functions():
    found = {}
    for name, mod in _modules().items():
        for attr in _public(mod):
            obj = getattr(mod, attr)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                found[f"{name}.{attr}"] = _describe(obj)
    for attr in PACKAGE_EXPORTS:
        obj = getattr(swapmc, attr)
        found[f"{obj.__module__.rsplit('.', 1)[-1]}.{attr}"] = _describe(obj)
    assert found == SIGNATURES
