"""Gadget signatures, replacement tables, and end-to-end kernelization.

A boundaried gadget's signature tabulates the cheapest interior completion per
boundary state, normalized by its minimum.  Equal signatures mean the gadgets
are interchangeable inside any host graph up to an integer shift of the
parameter; the table keeps one minimum-size representative per signature, and
the kernelizer swaps every large low-width flap for its representative.
"""

from twkern import (
    BoundariedGraph,
    build_replacement_table,
    compute_signature,
    equivalence_constant,
    kernelize,
    opt_fast,
    path_graph,
)
from twkern.harness import gen_corpus, verify_kernel_soundness
from twkern.problems import CATALOG

vc = CATALOG["vertex-cover"]


def pendant(edges: int) -> BoundariedGraph:
    return BoundariedGraph(path_graph(edges + 1), {0: 1})


print("vertex-cover signatures of pendant paths (boundary = the anchor)")
for k in range(1, 6):
    sig = compute_signature(vc, pendant(k))
    print(f"  path of {k} edges: entries={sig.entries} offset={sig.offset}")

print("\nequivalence: paths of the same parity swap at a constant shift")
print(f"  2-path vs 4-path: c = {equivalence_constant(vc, pendant(2), pendant(4))}")
print(f"  1-path vs 2-path: c = {equivalence_constant(vc, pendant(1), pendant(2))}  (distinct classes)")

print("\nbuilding the boundary-1 replacement table (certified on small contexts)")
table = build_replacement_table(vc, 1, 6, certify="light")
print(f"  {len(table)} signature classes; largest representative: {table.max_rep_size} vertices")

print("\nkernelizing grids with 15-vertex pendant trees")
corpus = gen_corpus("grid+pendants", {"count": 3, "t": 4, "tree_size": 15, "pendants": 3}, seed=5)
for i, g in enumerate(corpus):
    k = opt_fast(vc, g)[0]
    inst = kernelize(vc, g, k, table)
    print(
        f"  instance {i}: n {g.n} -> {inst.graph.n}, k {k} -> {inst.k}, "
        f"{len(inst.trace)} replacements"
    )
    before = opt_fast(vc, g)[0] <= k
    after = opt_fast(vc, inst.graph)[0] <= inst.k
    assert before == after

print("\nsoundness sweep on random planar instances (k = OPT-1, OPT, OPT+1)")
corpus = gen_corpus("random-planar", {"count": 20, "n_min": 8, "n_max": 18}, seed=6)
report = verify_kernel_soundness(vc, corpus, table, k_window=1)
print(f"  {len(report.rows)} (instance, k) pairs checked, {len(report.violations)} violations")
