"""Fused sequential + graph-convolutional next-item recommender.

Submodules (import them directly; this package root stays import-light so
the CLI can cap math threads before numpy loads):

- ``mrgsrec.data``: ingestion, min-count filtering, leave-one-out splits,
  the snapshot format
- ``mrgsrec.autodiff``: reverse-mode gradients over float64 numpy arrays
- ``mrgsrec.embeddings``: user/item/positional tables and window assembly
- ``mrgsrec.seqenc``: transformer encoder over the user-prefixed window
- ``mrgsrec.graph``: normalized bipartite adjacency and propagation
- ``mrgsrec.fusion``: the local/global fusion block
- ``mrgsrec.losses``: the four objectives and their weighted total
- ``mrgsrec.model``: parameters, forward passes, the ranking scores, the
  checkpoint format
- ``mrgsrec.training``: negative sampling, Adam, the fit loop
- ``mrgsrec.evaluation``: full-catalog HR@n / NDCG@n
- ``mrgsrec.synthetic``: clustered-Markov data generator
- ``mrgsrec.verification``: gradient / graph / metric self-checks and the
  paper's ablation
- ``mrgsrec.cli``: prepare, train, eval, ablate, verify subcommands
"""

__version__ = "0.1.0"

# The BLAS/OpenMP thread caps, read when numpy first loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
