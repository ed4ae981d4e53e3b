"""Canonical paths between realizations, audited move by move.

Any two realizations of the same degrees differ by a set of alternating
cycles.  Toggling the cycles one at a time gives milestone realizations,
and a deterministic sweep converts each milestone into the next by legal
swaps: exactly ell-1 of them per 2*ell-chord cycle when nothing is
forbidden, at most 2*ell with a forbidden matching (where c6-swaps and
two-swap double-steps appear).  Along the way the auxiliary matrix
M_X + M_Y - M_Z stays within the bad-entry budget (<= two 2s, <= one -1),
and a short switch sequence repairs it back to a realization within
Hamming distance 16 (20 through a double-step).  All of that is checked
here on random instances.
"""

import numpy as np

from swapmc import (
    BipartiteDegreeSequence,
    auxiliary_matrix,
    bounds_of,
    build_canonical_path,
    construct_bipartite,
    decompose,
    milestones,
    step_bipartite,
    step_directed,
    verify_bad_positions,
    verify_repairs,
)

def randomized_pair(seq, forbidden=(), seed=42, steps=250):
    rng = np.random.default_rng(seed)
    step = step_directed if forbidden else step_bipartite
    x = construct_bipartite(seq, forbidden)
    for _ in range(steps):
        x, _ = step(x, rng, inplace=True)
    y = x.copy()
    for _ in range(steps):
        y, _ = step(y, rng, inplace=True)
    return x, y


print("=== unforbidden 6+6 instance ===")
seq = BipartiteDegreeSequence((3, 2, 3, 3, 2, 3), (3, 3, 2, 3, 2, 3))
x, y = randomized_pair(seq)
dec = decompose(x, y)
chords = sum(2 * cyc.ell for cyc in dec.cycles)
print(f"symmetric difference: {chords} chords in {len(dec.cycles)} cycles")
for k, cyc in enumerate(dec.cycles, start=1):
    print(f"  cycle {k}: ell={cyc.ell}")

miles = milestones(x, y, dec)
print(f"milestones: {len(miles)} realizations (first = X, last = Y)")

path = build_canonical_path(x, y)
print(f"canonical path: {len(path.moves)} moves")
for seg in path.segments:
    print(f"  cycle ell={seg.ell}: {seg.move_count} moves (= ell-1)")

bad = verify_bad_positions(path, x, y)
print(
    f"bad entries along the path: max #2s={bad.max_twos_direct}, "
    f"max #-1s={bad.max_minus_ones_direct}, violations={bad.violations}"
)
rep = verify_repairs(path, x, y, bounds_of(seq))
print(
    f"switch repair: max switches={rep.max_switches}, "
    f"max distance={rep.max_distance_direct} (bound 16), failures={rep.failures}"
)

print("\n=== diagonal-forbidden (digraph) 6-vertex instance ===")
seq = BipartiteDegreeSequence((2, 3, 2, 3, 2, 2), (2, 3, 2, 3, 2, 2))
diag = tuple((i, i) for i in range(6))
x, y = randomized_pair(seq, diag, seed=94)  # this pair needs a c6 and a double-step
path = build_canonical_path(x, y)
kinds = [m.kind for m in path.moves]
print(
    f"path: {len(path.moves)} moves "
    f"({kinds.count('c4')} c4, {kinds.count('c6')} c6, "
    f"{sum(path.intermediate)} double-step intermediates)"
)
for seg in path.segments:
    print(f"  cycle ell={seg.ell}: {seg.move_count} moves (bound {2 * seg.ell})")

bad = verify_bad_positions(path, x, y)
print(
    f"bad entries: direct max ({bad.max_twos_direct}, {bad.max_minus_ones_direct}), "
    f"intermediates up to ({bad.max_twos_intermediate}, "
    f"{bad.max_minus_ones_intermediate}), violations={bad.violations}"
)
rep = verify_repairs(path, x, y, bounds_of(seq))
print(
    f"switch repair: max switches={rep.max_switches}, direct distance "
    f"<= {rep.max_distance_direct} (bound 16), through intermediates "
    f"<= {rep.max_distance_intermediate} (bound 20), failures={rep.failures}"
)

# peek at one auxiliary matrix mid-path (stars mark the forbidden diagonal)
mid = len(path.states) // 2
print(f"\nauxiliary matrix at state {mid}:")
print(auxiliary_matrix(x, y, path.states[mid]).render())
