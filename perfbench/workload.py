"""Workload specs, set-up, batching and output checks shared by both runs.

A workload is a seeded ``generate_clustered_markov`` dataset plus a fully
pinned run config, both recorded in ``workloads.json``. The benchmark seed
only reaches the data generator; the program sees the generated
``SplitDataset`` and the config, whose fingerprint is checked on load so a
changed default cannot silently change the workload.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from mrgsrec import config as cfg
from mrgsrec.data import SplitDataset
from mrgsrec.embeddings import build_batch
from mrgsrec.evaluation import rank_target
from mrgsrec.graph import NormalizedAdjacency, build_adjacency
from mrgsrec.model import ModelParams, forward_states, init_model, score_batch
from mrgsrec.synthetic import generate_clustered_markov
from mrgsrec.training import Adam, Hyperparams, TrainExample, build_examples
from mrgsrec.verification import (component_loss_fn, make_gradient_instance,
                                  metric_oracle_rank)

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text("utf-8"))
SETUP_REPEATS = 3   # fewest set-ups per benchmark run; setup_s is their median
SETUP_BUDGET_S = 2.0  # cheap set-ups repeat until this much wall time is spent
ORACLE_USERS = 16   # evenly spaced users whose ranks the sort oracle re-derives


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


@dataclass
class Workload:
    name: str
    generator: dict
    config: dict
    fingerprint: str
    hyper: Hyperparams
    nominal: dict[str, float]   # op wall times on the reference host


def load_workload(name: str) -> Workload:
    entry = SPEC["workloads"][name]
    resolved = cfg.resolve_config(entry["config"])
    fingerprint = cfg.fingerprint(resolved)
    if fingerprint != entry["fingerprint"]:
        raise CheckFailed(
            f"{name}: config fingerprint {fingerprint} != recorded "
            f"{entry['fingerprint']}; the pinned workload has changed")
    return Workload(name, entry["generator"], resolved, fingerprint,
                    cfg.to_hyperparams(resolved), entry["nominal"])


@dataclass
class Setup:
    dataset: SplitDataset
    adjacency: NormalizedAdjacency
    params: ModelParams
    examples: list[TrainExample]
    optimizer: Adam


SETUP_STAGES = ("synthetic.generate_s", "graph.build_adjacency_s",
                "model.init_model_s", "training.build_examples_s",
                "training.adam_init_s")


def set_up(workload: Workload, seed: int) -> tuple[Setup, dict[str, float]]:
    """What ``fit`` does before its first step; returns seconds per stage.

    Every workload trains the graph path, so the adjacency is always built.
    """
    hyper = workload.hyper
    marks = [time.perf_counter()]
    dataset = generate_clustered_markov(**workload.generator, seed=seed)
    marks.append(time.perf_counter())
    adjacency = build_adjacency(dataset.train, dataset.n_users, dataset.n_items)
    marks.append(time.perf_counter())
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), hyper.seed)
    marks.append(time.perf_counter())
    examples = build_examples(dataset)
    marks.append(time.perf_counter())
    optimizer = Adam(params.parameters(), lr=hyper.learning_rate,
                     beta1=hyper.beta1, beta2=hyper.beta2, eps=hyper.epsilon)
    marks.append(time.perf_counter())
    seconds = {stage: marks[i + 1] - marks[i]
               for i, stage in enumerate(SETUP_STAGES)}
    seconds["setup_s"] = marks[-1] - marks[0]
    return Setup(dataset, adjacency, params, examples, optimizer), seconds


class HostSpeed:
    """Measures how much slower than the reference the host runs right now.

    The shared host this benchmark was built on swings between full and
    about half speed in periods of tens of seconds, which no within-run
    median removes. A fixed reference kernel with the kinds of work a step
    does (BLAS, a sparse-dense product, large elementwise work on fresh
    pages, an interpreter loop) is timed between the measured units of a
    run, at most every SAMPLE_EVERY_S. A phase's slowdown is the median
    kernel time over the reference kernel time across the samples that
    bracket its units, about 1 on a quiet host; each phase (set-up, training,
    evaluation) is scaled by its own, since the host's speed changes within
    a run. Scaled metrics divide times (and multiply rates) by it.
    """

    SAMPLE_EVERY_S = 0.5

    def __init__(self):
        self.reference_s = SPEC["host_speed"]["kernel_s"]
        rng = np.random.Generator(np.random.PCG64(0))
        self.a = rng.normal(size=(4096, 64))
        self.w = rng.normal(size=(64, 64))
        self.e = rng.normal(size=250_000)
        n, per_row = 5_000, 10
        self.sparse = sp.csr_matrix(
            (rng.normal(size=n * per_row), rng.integers(0, n, size=n * per_row),
             np.arange(0, n * per_row + 1, per_row)), shape=(n, n))
        self.dense = rng.normal(size=(n, 64))
        self.samples: list[float] = []
        self.last = -np.inf

    def sample(self, force: bool = True) -> None:
        if not force and time.perf_counter() - self.last < self.SAMPLE_EVERY_S:
            return
        start = time.perf_counter()
        for _ in range(4):
            (self.a @ self.w).sum()
            (self.sparse @ self.dense).sum()
            np.exp(self.e).sum()
            np.ones(500_000).sum()
        total = 0
        for i in range(30_000):
            total += i
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def begin(self) -> int:
        """Sample now; returns the index that opens a phase of units."""
        self.sample()
        return len(self.samples) - 1

    def slowdown(self, start: int, stop: int | None = None) -> float:
        """Median kernel time over the reference for the samples from index
        ``start`` through ``stop`` (the sample that opens the next phase)."""
        window = self.samples[start:None if stop is None else stop + 1]
        return statistics.median(window) / self.reference_s


def repeated_set_up(workload: Workload, seed: int, speed: HostSpeed
                    ) -> tuple[Setup, dict[str, float], int]:
    """Set up at least SETUP_REPEATS times and until SETUP_BUDGET_S is spent,
    sampling host speed around each; keep the last set-up and the median
    wall time per stage."""
    runs: list[dict[str, float]] = []
    speed.begin()
    while (len(runs) < SETUP_REPEATS
           or sum(r["setup_s"] for r in runs) < SETUP_BUDGET_S):
        setup, seconds = set_up(workload, seed)
        speed.sample()
        runs.append(seconds)
    medians = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    return setup, medians, len(runs)


def train_rng(hyper: Hyperparams) -> np.random.Generator:
    """The single generator ``fit`` draws shuffles, negatives and dropout from."""
    return np.random.Generator(np.random.PCG64(hyper.seed))


class BatchStream:
    """Full batches in shuffled epoch order, reshuffled from the training
    generator whenever fewer than a batch remain, so every step does the
    same amount of work."""

    def __init__(self, examples: list[TrainExample], size: int,
                 rng: np.random.Generator):
        if len(examples) < size:
            raise ValueError("workload has fewer examples than one batch")
        self.examples = examples
        self.size = size
        self.rng = rng
        self.order = np.empty(0, dtype=np.int64)
        self.pos = 0

    def next(self) -> list[TrainExample]:
        if self.pos + self.size > self.order.size:
            self.order = self.rng.permutation(len(self.examples))
            self.pos = 0
        chunk = self.order[self.pos:self.pos + self.size]
        self.pos += self.size
        return [self.examples[i] for i in chunk]


def check_losses(scalars: dict[str, float]) -> None:
    bad = {name: value for name, value in scalars.items()
           if not np.isfinite(value)}
    if bad:
        raise CheckFailed(f"non-finite losses {bad}")


def check_reference_instance() -> None:
    """The four component losses on the fixed gradient instance must match
    the recorded values (a speed-up that moves them is a regression)."""
    reference = SPEC["reference_instance"]
    instance = make_gradient_instance()
    for name, want in reference["losses"].items():
        got = float(component_loss_fn(name, *instance)().data)
        if not abs(got - want) <= reference["tolerance"]:
            raise CheckFailed(f"reference {name} loss {got!r} != {want!r}")


def eval_paths(head: str) -> dict[str, bool]:
    """The encoder paths ``evaluation.evaluate`` runs for a scoring head."""
    return {"need_seq": head in ("fused", "sequential"),
            "need_graph": head in ("fused", "graph"),
            "need_fused": head == "fused"}


def check_oracle_ranks(setup: Setup, hyper: Hyperparams) -> None:
    """Validation ranks of a fixed user sample agree with the sort oracle."""
    dataset, params = setup.dataset, setup.params
    users = np.linspace(0, dataset.n_users - 1, ORACLE_USERS).astype(int).tolist()
    batch = build_batch(users, [dataset.train[u] for u in users], hyper.c,
                        params.tables.padding_id)
    states = forward_states(params, batch, setup.adjacency, hyper.k,
                            layer_mean=hyper.layer_mean, train_mode=False,
                            **eval_paths(hyper.scoring_head))
    scores = score_batch(params, states, hyper.scoring_head).data
    for u, row in zip(users, scores):
        target = dataset.val[u]
        seen = set(dataset.train[u]) - {target} if hyper.exclude_seen else set()
        got = rank_target(row, target, seen)
        want = metric_oracle_rank(row, target, seen)
        if got != want:
            raise CheckFailed(f"user {u}: rank_target {got} != oracle {want}")


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
