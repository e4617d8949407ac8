#!/usr/bin/env python3
"""Print the bit-identity record of the program as one JSON object.

Run it from anywhere, with no flags:

    python3 tools/identity.py

Two trees whose records are equal train, evaluate and verify bit for bit
alike on this host. For each benchmark workload (loaded through
``perfbench/workload.py``, seed 1) it trains ``STEPS`` steps as the
benchmark does and records the sha256 of the per-step losses, of every
parameter block, of the Adam moments, of the training generator's state
and of the validation ``MetricsReport``, and the sha256 of the normalized
adjacency's ``data``, ``indices`` and ``indptr``. It adds the sha256 of
``verification.run_all(quick=True)``'s text and the gradient instance's
four component losses as reprs. BLAS runs on one thread, as in the
benchmark; OpenBLAS picks its kernels per CPU, so compare records made on
the same host: ``host`` names the CPU model, numpy's BLAS build and the
numpy and scipy versions.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = {"catalog_wide": 6, "graph_many_users": 25}
SEED = 1


def digest(arrays) -> str:
    """sha256 over each array's dtype, shape and C-order bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def text_digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def workload_record(name: str, n_steps: int) -> dict[str, str]:
    import numpy as np
    from mrgsrec.evaluation import evaluate
    from mrgsrec.training import train_step
    from workload import BatchStream, load_workload, set_up, train_rng

    workload = load_workload(name)
    hyper = workload.hyper
    setup, _ = set_up(workload, SEED)
    rng = train_rng(hyper)
    batches = BatchStream(setup.examples, hyper.batch_size, rng)
    losses = [train_step(batches.next(), setup.params, setup.adjacency, hyper,
                         setup.optimizer, rng) for _ in range(n_steps)]
    report = evaluate(setup.params, setup.dataset, "validation", hyper,
                      adjacency=setup.adjacency,
                      fingerprint=workload.fingerprint)
    adj = setup.adjacency.adj
    return {
        "adj": digest([adj.data, adj.indices, adj.indptr]),
        "losses": digest([np.array([[step[k] for k in sorted(step)]
                                    for step in losses])]),
        "params": digest([p.data for p in setup.params.parameters()]),
        "moments": digest(setup.optimizer.m + setup.optimizer.v),
        "generator": text_digest(rng.bit_generator.state),
        "report": text_digest(repr(report)),
    }


def cpu_model() -> str:
    """The first ``model name`` of ``/proc/cpuinfo``, else ``platform``'s
    processor or machine name."""
    try:
        found = re.search(r"^model name\s*:\s*(.*)$",
                          Path("/proc/cpuinfo").read_text(), re.MULTILINE)
    except OSError:
        found = None
    return found.group(1) if found else (platform.processor()
                                         or platform.machine())


def host() -> dict:
    """The CPU model, the BLAS numpy was built against, and the numpy and
    scipy versions (sparse products sum in an order scipy chooses)."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"cpu": cpu_model(), "blas": blas, "numpy": np.__version__,
            "scipy": scipy.__version__}


def record() -> dict:
    from mrgsrec.verification import (component_loss_fn,
                                      make_gradient_instance, run_all)

    instance = make_gradient_instance()
    _, verify_text = run_all(quick=True)
    return {
        "host": host(),
        "workloads": {name: workload_record(name, n)
                      for name, n in STEPS.items()},
        "verify_quick": hashlib.sha256(verify_text.encode()).hexdigest(),
        "reference_losses": {
            name: repr(float(component_loss_fn(name, *instance)().data))
            for name in ("local", "global", "fused", "contrastive")},
    }


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import mrgsrec  # the package root loads no numpy

    # BLAS reads its thread cap when numpy first loads.
    for var in mrgsrec.THREAD_VARS:
        os.environ[var] = "1"
    print(json.dumps(record(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
