"""Why digraph sampling needs the triple swap: the directed triangle.

The two orientations of a 3-cycle share the degree bi-sequence
((1,1,1); (1,1,1)) but differ in all six arcs.  In the bipartite
representation (row = out-endpoint, column = in-endpoint, diagonal
forbidden) no c4-swap can move between them, so the plain swap walk is
stuck; adding the c6-swap restores irreducibility.  This script shows the
disconnection, the exact restricted kernel, and a sampling run.
"""

from swapmc import (
    ChainConfig,
    DirectedDegreeBiSequence,
    construct_directed,
    exact_transition_matrix,
    from_bipartite_representation,
    sample,
    swap_graph_connected,
    to_bipartite_representation,
    tv_curve,
)

bi = DirectedDegreeBiSequence(out_degrees=(1, 1, 1), in_degrees=(1, 1, 1))
d = construct_directed(bi)
print("a realization:", [(i + 1, j + 1) for i, j in d.arcs()])

rep = to_bipartite_representation(d)
print("bipartite representation (diagonal forbidden):")
print(rep.matrix)

ok4, comp4 = swap_graph_connected(bi, moves="c4")
ok6, comp6 = swap_graph_connected(bi, moves="c4+c6")
print(f"\nc4 moves only:  connected={ok4} (components={comp4})")
print(f"c4 + c6 moves:  connected={ok6} (components={comp6})")

kernel = exact_transition_matrix(bi, chain_kind="directed")
print("\nexact restricted kernel over the two orientations:")
print(kernel.matrix)
print("per-neighbour probabilities: c4 =", kernel.p_c4, " c6 =", kernel.p_c6)

print("\nworst-case TV distance to uniform (halves every step):")
for t, tv in enumerate(tv_curve(bi, (), "directed", horizon=8)):
    print(f"  step {t}: {tv:.6f}")

cfg = ChainConfig(seed=5, samples=6, burn_in=50, thinning=5, chain_kind="directed")
result = sample(bi, (), cfg)
print("\nsampled orientations (arcs, 1-based):")
for k, state in enumerate(result.realizations, start=1):
    arcs = from_bipartite_representation(state).arcs()
    print(f"  sample {k}: {[(i + 1, j + 1) for i, j in arcs]}")
print("statistics:", result.stats.as_dict())
