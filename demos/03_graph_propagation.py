"""The bipartite graph path: adjacency normalization and propagation.

Shows the block structure of the stacked user+item adjacency, the
1/sqrt(deg_i * deg_j) edge weights, and how k propagation layers mix
neighborhood information into every node embedding.
"""

import numpy as np

from mrgsrec import autodiff as ad
from mrgsrec import graph as gr
from mrgsrec.embeddings import build_batch, init_tables

# three users, four items; user 0 and user 1 share item 1
train = [[0, 1], [1, 2], [3]]
M, N = 3, 4
adjacency = gr.build_adjacency(train, M, N)
dense = adjacency.adj.toarray()

print("node order: 3 users then 4 items; nonzeros live off-diagonal only")
print(np.round(dense, 3))
print("degrees:", adjacency.degrees.tolist())
# the user0-item1 edge weight is 1/sqrt(deg(u0) * deg(i1)) = 1/sqrt(2*2)
assert abs(dense[0, M + 1] - 0.5) < 1e-12
# exact symmetry, entry for entry
assert (adjacency.adj != adjacency.adj.T).nnz == 0

# --- propagation -----------------------------------------------------------
tables = init_tables(M, N, c=2, d=4, seed=0)
nodes0 = np.concatenate([tables.user.data, tables.item.data[:N]])
one_hop = gr.propagate(ad.Tensor(nodes0), adjacency).data
print("\nuser 2 only touched item 3, so one hop copies item 3's embedding:")
print("user2 after 1 hop:", np.round(one_hop[2], 4))
print("item3 before     :", np.round(nodes0[M + 3], 4))

# --- gathering per-batch representations ------------------------------------
batch = build_batch([0, 1], [[0, 1], [2]], c=2, pad_value=tables.padding_id)
nodes = gr.propagated_embeddings(tables, adjacency, k=2)
e_g, E_g = gr.gather_batch(nodes, batch, M, N)
print("\ngathered shapes:", e_g.shape, E_g.shape)
print("padding slots gather zeros:",
      bool((E_g.data[1, 0] == 0).all()))  # user 1's window is left-padded

# zero-degree nodes stay zero after propagation (0^{-1/2} := 0)
lonely = gr.build_adjacency([[0], []], 2, 2)
out = gr.propagate(ad.Tensor(np.ones((4, 3))), lonely).data
print("isolated user row after propagation:", out[1].tolist())
