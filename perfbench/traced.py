"""Traced run: per-layer spans, isolated backward replays, faithfulness checks.

The traced step makes the same public calls, in the same order, as
``training.train_step``, with a span around each layer call; the traced
evaluation loop does the same for ``evaluation.evaluate``. Each traced step
is checked bit for bit against a real ``train_step`` started from a copy of
the same parameters, Adam state and generator state, and the traced
evaluation against a real ``evaluate``, so the per-layer numbers describe
the code the end-to-end run times.

``loss.backward()`` is one opaque call, so per-layer backward time comes
from isolated replays: after the full backward every layer output holds its
gradient; the layer is rebuilt from detached copies of its inputs (same
parameter values, inputs and dropout masks), seeded with that gradient
through ``tsum(out * g)``, and its ``backward()`` is timed. Replays work on
copies and a cloned generator, so the real parameters, gradients, Adam
state and random stream are never touched.

A layer that a workload does not run still gets its (empty) span, so its
time reads as the cost of an empty slot, a few microseconds.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from mrgsrec import autodiff as ad
from mrgsrec.embeddings import EmbeddingTables, build_batch, embed_sequence
from mrgsrec.evaluation import (EVAL_BATCH, MetricsReport, evaluate, hr_at_k,
                                ndcg_at_k, rank_target)
from mrgsrec.fusion import FusionParams, fuse
from mrgsrec.graph import gather_batch, propagated_embeddings
from mrgsrec.losses import (contrastive_loss, fused_loss, global_loss,
                            local_loss, total_loss)
from mrgsrec.model import ModelParams, forward_states, score_batch
from mrgsrec.seqenc import SeqEncoderParams, seq_encode
from mrgsrec.training import Adam, Hyperparams, sample_negatives, train_step

from workload import (BatchStream, CheckFailed, HostSpeed, Setup, Workload,
                      check_losses,
                      check_oracle_ranks, check_reference_instance, eval_paths,
                      repeated_set_up, train_rng)

TRACE_DIR = Path(__file__).with_name("traces")
TRACE_SHARE = 0.6   # share of --seconds spent on traced steps; the rest evaluates
# Layers with a backward, in forward order; each gets a replayed backward span.
REPLAYED = ("embeddings.embed_sequence", "seqenc.seq_encode",
            "graph.propagated_embeddings", "graph.gather_batch", "fusion.fuse",
            "losses.local_loss", "losses.global_loss", "losses.fused_loss",
            "losses.contrastive_loss")
PEAK_ALLOC_LAYERS = ("seqenc.seq_encode", "losses.local_loss")
# Sum of replayed backward times over the whole tape's backward time. Replays
# cover every layer of the tape but not its glue (the ``item_rows`` slices,
# ``initial_nodes`` concat, the BPR lookups and the loss weighting), which
# pulls the ratio below 1; each replay also repeats the first-write gradient
# copies its inputs get and adds its seed product, which pushes it above 1.
# Outside this band a replay is timing a different graph from the real step.
COVERAGE_BAND = (0.6, 1.6)


class Tracer:
    """Spans kept in memory and written out when the run ends.

    A span is (name, start, end, parent index, group); the group names the
    train step or eval pass the span belongs to.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.group = ""

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.group)

    def seconds(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return end - start

    def totals(self, group: str) -> dict[str, float]:
        """Seconds per span name within one group."""
        out: dict[str, float] = {}
        for name, start, end, _, span_group in self.spans:
            if span_group == group:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def count(self, group: str, name: str) -> int:
        return sum(1 for s in self.spans if s[4] == group and s[0] == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, group in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "group": group}) + "\n")


@dataclass
class _Detached:
    """An input tensor's value, turned into a fresh leaf on replay."""
    data: np.ndarray


@dataclass
class _RngAt:
    """A generator's state just before a layer call, for identical dropout."""
    state: dict


def _freeze(value):
    if isinstance(value, ad.Tensor):
        return _Detached(value.data)
    if isinstance(value, np.random.Generator):
        return _RngAt(value.bit_generator.state)
    return value


def _thaw(value):
    """Rebuild an argument from copies; real parameters are never reused."""
    if isinstance(value, _Detached):
        return ad.parameter(value.data)
    if isinstance(value, _RngAt):
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = value.state
        return rng
    if isinstance(value, EmbeddingTables):
        return replace(value, user=ad.parameter(value.user.data),
                       item=ad.parameter(value.item.data),
                       positional=ad.parameter(value.positional.data))
    if isinstance(value, SeqEncoderParams):
        return SeqEncoderParams([{key: ad.parameter(t.data) for key, t in layer.items()}
                                 for layer in value.layers])
    if isinstance(value, FusionParams):
        return FusionParams(ad.parameter(value.w1.data), ad.parameter(value.w2.data))
    return value


def _as_tuple(out) -> tuple:
    return out if isinstance(out, tuple) else (out,)


@dataclass
class Replay:
    """One layer call: its function, frozen arguments, outputs and output grads."""
    fn: Callable
    args: tuple
    kwargs: dict
    outputs: tuple
    grads: tuple = ()

    def seed(self) -> ad.Tensor:
        """Rebuild the layer and return ``sum(out * g)`` over its outputs."""
        outs = _as_tuple(self.fn(*map(_thaw, self.args),
                                 **{k: _thaw(v) for k, v in self.kwargs.items()}))
        for new, old in zip(outs, self.outputs):
            if not np.array_equal(new.data, old.data):
                raise CheckFailed(f"replay of {self.fn.__name__} differs in forward")
        terms = [ad.tsum(ad.mul(o, g)) for o, g in zip(outs, self.grads)
                 if g is not None]
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return total


class Layers:
    """Runs layer calls inside spans and keeps what a replay needs.

    Only arrays and parameter containers are kept, never intermediate
    tensors, so the step's graph is freed once the step returns.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.calls: dict[str, Replay] = {}

    def call(self, name: str, fn: Callable, *args, **kwargs):
        replay = Replay(fn, tuple(map(_freeze, args)),
                        {k: _freeze(v) for k, v in kwargs.items()}, ())
        with self.tracer.span(name):
            out = fn(*args, **kwargs)
        replay.outputs = _as_tuple(out)
        self.calls[name] = replay
        return out

    def skip(self, *names: str) -> None:
        for name in names:
            with self.tracer.span(name):
                pass

    def finish(self) -> dict[str, Replay]:
        """After the full backward: swap output tensors for values and grads."""
        for replay in self.calls.values():
            replay.grads = tuple(o.grad for o in replay.outputs)
            replay.outputs = tuple(_Detached(o.data) for o in replay.outputs)
        return self.calls


def train_paths(hyper: Hyperparams) -> tuple[bool, bool, bool]:
    """The encoder paths ``training.train_step`` runs (need_seq, need_graph, need_fused)."""
    w = hyper.weights
    need_fused = w.gamma > 0 or hyper.scoring_head == "fused"
    need_seq = (w.alpha > 0 or w.delta > 0 or need_fused
                or hyper.scoring_head == "sequential")
    need_graph = (w.beta > 0 or w.delta > 0 or need_fused
                  or hyper.scoring_head == "graph")
    return need_seq, need_graph, need_fused


def _forward_backward(chunk, params: ModelParams, adjacency, hyper: Hyperparams,
                      rng: np.random.Generator, tracer: Tracer):
    """``train_step`` up to and including the backward, one span per layer."""
    w = hyper.weights
    need_seq, need_graph, need_fused = train_paths(hyper)
    tables = params.tables
    pad = tables.padding_id
    layers = Layers(tracer)
    users = [ex.user for ex in chunk]
    with tracer.span("embeddings.build_batch"):
        batch = build_batch(users, [ex.inputs for ex in chunk], hyper.c, pad)
        targets = build_batch(users, [ex.step_targets for ex in chunk],
                              hyper.c, 0).item_windows
    with tracer.span("training.sample_negatives"):
        negatives = np.stack([
            sample_negatives(ex.forbidden, tables.n_items, hyper.n_negatives, rng)
            for ex in chunk])
    e_l = E_l = e_g = E_g = e_f = nodes = initial = None
    if need_seq or need_fused:
        e_u, E_u = layers.call("embeddings.embed_sequence", embed_sequence,
                               batch, tables)
        e_l, E_l = layers.call("seqenc.seq_encode", seq_encode, e_u, E_u,
                               params.encoder, params.seq_config,
                               batch.valid_lengths, train_mode=True, rng=rng)
    else:
        layers.skip("embeddings.embed_sequence", "seqenc.seq_encode")
    if need_graph or need_fused:
        initial = ad.concat([tables.user, tables.item_rows()], axis=0)
        nodes = layers.call("graph.propagated_embeddings", propagated_embeddings,
                            tables, adjacency, hyper.k,
                            layer_mean=hyper.layer_mean, initial=initial)
        e_g, E_g = layers.call("graph.gather_batch", gather_batch, nodes, batch,
                               tables.n_users, tables.n_items)
    else:
        layers.skip("graph.propagated_embeddings", "graph.gather_batch")
    if need_fused:
        e_f = layers.call("fusion.fuse", fuse, e_l, e_g, params.fusion)
    else:
        layers.skip("fusion.fuse")

    mask = batch.valid_mask()
    positives = np.asarray([ex.positive for ex in chunk], dtype=np.int64)
    components = {"local": None, "global": None, "fused": None, "contrastive": None}
    if w.alpha > 0:
        components["local"] = layers.call("losses.local_loss", local_loss, E_l,
                                          targets, tables.item_rows(), mask)
    else:
        layers.skip("losses.local_loss")
    if w.beta > 0:
        n_users = tables.n_users
        pos_emb = ad.lookup(nodes, n_users + positives)
        neg_emb = ad.lookup(nodes, n_users + negatives[:, 0])
        ego_ids = np.concatenate([np.asarray(users, dtype=np.int64),
                                  n_users + positives, n_users + negatives[:, 0]])
        ego_rows = ad.lookup(initial, ego_ids)
        components["global"] = layers.call("losses.global_loss", global_loss,
                                           e_g, pos_emb, neg_emb, ego_rows,
                                           w.lambda_reg)
    else:
        layers.skip("losses.global_loss")
    if w.gamma > 0:
        components["fused"] = layers.call("losses.fused_loss", fused_loss, e_f,
                                          positives, negatives, tables.item_rows())
    else:
        layers.skip("losses.fused_loss")
    if w.delta > 0:
        components["contrastive"] = layers.call("losses.contrastive_loss",
                                                contrastive_loss, E_l, E_g, mask)
    else:
        layers.skip("losses.contrastive_loss")
    with tracer.span("losses.total_loss"):
        loss = total_loss(components, w)
    if not np.isfinite(loss.data):
        raise CheckFailed("total loss is not finite")
    params.zero_grad()
    with tracer.span("autodiff.backward"):
        loss.backward()
    if tables.item.grad is not None:
        tables.item.grad[pad, :] = 0.0
    scalars = {name: (float(t.data) if t is not None else 0.0)
               for name, t in components.items()}
    scalars["total"] = float(loss.data)
    used = (hyper.n_negatives if w.gamma > 0 else 1 if w.beta > 0 else 0)
    counts = {
        "training.negatives_drawn": negatives.size,
        "training.negatives_used_ratio": used / hyper.n_negatives,
        "losses.local_loss.logit_bytes":
            mask.size * tables.n_items * 8 if w.alpha > 0 else 0,
        "graph.propagate_flops":
            2 * adjacency.adj.nnz * tables.d * hyper.k if nodes is not None else 0,
    }
    return scalars, layers.finish(), counts


def _peak_alloc_mb(fn: Callable[[], object]) -> float:
    """Peak bytes newly allocated while ``fn`` runs, in MB (numpy included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _replay_all(replays: dict[str, Replay], tracer: Tracer,
                measure_alloc: bool) -> dict[str, float]:
    peaks = {}
    for name in REPLAYED:
        replay = replays.get(name)
        seed = replay.seed() if replay is not None else None
        with tracer.span(name + ".backward"):
            if seed is not None:
                seed.backward()
        del seed
        if measure_alloc and name in PEAK_ALLOC_LAYERS:
            peaks[name + ".peak_alloc_mb"] = (
                _peak_alloc_mb(lambda: replay.seed().backward())
                if replay is not None else 0.0)
    return peaks


def traced_step(chunk, params, adjacency, hyper, optimizer, rng, tracer,
                measure_alloc: bool):
    """One step as ``train_step`` makes it, plus replays before the update.

    Returns (loss values, step seconds without the replays, counts, peaks).
    """
    with tracer.span("training.train_step") as step:
        scalars, replays, counts = _forward_backward(
            chunk, params, adjacency, hyper, rng, tracer)
        with tracer.span("trace.replays") as replay_span:
            peaks = _replay_all(replays, tracer, measure_alloc)
            del replays
        with tracer.span("training.adam_step"):
            optimizer.step()
    return (scalars, tracer.seconds(step) - tracer.seconds(replay_span),
            counts, peaks)


def _clone(params: ModelParams, optimizer: Adam, rng: np.random.Generator):
    """Independent copies of the parameters, Adam state and generator."""
    params_copy = params.copy()
    opt_copy = Adam(params_copy.parameters(), lr=optimizer.lr,
                    beta1=optimizer.beta1, beta2=optimizer.beta2,
                    eps=optimizer.eps)
    opt_copy.step_count = optimizer.step_count
    opt_copy.m = [m.copy() for m in optimizer.m]
    opt_copy.v = [v.copy() for v in optimizer.v]
    rng_copy = np.random.Generator(np.random.PCG64())
    rng_copy.bit_generator.state = rng.bit_generator.state
    return params_copy, opt_copy, rng_copy


def _restore(params: ModelParams, optimizer: Adam, rng: np.random.Generator,
             source: tuple) -> None:
    """Write a clone's parameters, Adam state and generator state back."""
    src_params, src_opt, src_rng = source
    for name, tensor in params.named().items():
        tensor.data[...] = src_params.named()[name].data
    optimizer.step_count = src_opt.step_count
    optimizer.m, optimizer.v = src_opt.m, src_opt.v
    rng.bit_generator.state = src_rng.bit_generator.state


def faithful_step(chunk, setup: Setup, hyper: Hyperparams,
                  rng: np.random.Generator, tracer: Tracer, index: int) -> dict:
    """A traced step and a real ``train_step`` from clones of the same state;
    they must agree bit for bit on losses, updated parameters and generator
    state. The traced clone's result then becomes the run's state.

    Both work on equally fresh copies and run in alternating order, so
    neither always runs on warmer memory.
    """
    ref = _clone(setup.params, setup.optimizer, rng)
    mine = _clone(setup.params, setup.optimizer, rng)

    def reference():
        start = time.perf_counter()
        out = train_step(chunk, ref[0], setup.adjacency, hyper, ref[1], ref[2])
        return out, time.perf_counter() - start

    def traced():
        return traced_step(chunk, mine[0], setup.adjacency, hyper, mine[1],
                           mine[2], tracer, measure_alloc=index == 0)

    if index % 2 == 0:
        (ref_scalars, untraced_s), traced_out = reference(), traced()
    else:
        traced_out, (ref_scalars, untraced_s) = traced(), reference()
    scalars, traced_s, counts, peaks = traced_out
    check_losses(scalars)
    if scalars != ref_scalars:
        raise CheckFailed(f"traced losses {scalars} != train_step {ref_scalars}")
    for name, tensor in mine[0].named().items():
        if not np.array_equal(tensor.data, ref[0].named()[name].data):
            raise CheckFailed(f"traced update of {name} differs from train_step")
    if mine[2].bit_generator.state != ref[2].bit_generator.state:
        raise CheckFailed("traced step drew a different random stream")
    _restore(setup.params, setup.optimizer, rng, mine)
    return {"traced_s": traced_s, "untraced_s": untraced_s,
            "counts": counts, "peaks": peaks}


def _eval_chunk(params, dataset, split, hyper, adjacency, chunk, tracer,
                totals) -> None:
    """One chunk of ``evaluation.evaluate``'s loop, with spans."""
    head = hyper.scoring_head
    sequences, targets, exclusions = [], [], []
    for u in chunk:
        if split == "validation":
            seq, target = dataset.train[u], dataset.val[u]
            seen = set(dataset.train[u])
        else:
            seq = dataset.train[u] + [dataset.val[u]]
            target = dataset.test[u]
            seen = set(dataset.train[u]) | {dataset.val[u]}
        seen.discard(target)
        sequences.append(seq)
        targets.append(target)
        exclusions.append(seen if hyper.exclude_seen else set())
    with tracer.span("embeddings.build_batch"):
        batch = build_batch(chunk, sequences, hyper.c, params.tables.padding_id)
    with tracer.span("model.forward_states"):
        states = forward_states(params, batch, adjacency, hyper.k,
                                layer_mean=hyper.layer_mean, train_mode=False,
                                **eval_paths(head))
    with tracer.span("model.score_batch"):
        scores = score_batch(params, states, head).data
    for row, target, seen in zip(scores, targets, exclusions):
        with tracer.span("evaluation.rank_target"):
            rank = rank_target(row, target, seen)
        totals["hr5"] += hr_at_k(rank, 5)
        totals["hr10"] += hr_at_k(rank, 10)
        totals["ndcg5"] += ndcg_at_k(rank, 5)
        totals["ndcg10"] += ndcg_at_k(rank, 10)


def traced_evaluate(params, dataset, split, hyper, adjacency, fingerprint,
                    tracer) -> MetricsReport:
    """``evaluation.evaluate`` re-composed from its calls, with spans."""
    users = list(range(dataset.n_users))
    totals = {"hr5": 0.0, "hr10": 0.0, "ndcg5": 0.0, "ndcg10": 0.0}
    with tracer.span("evaluation.evaluate"):
        for start in range(0, len(users), EVAL_BATCH):
            with tracer.span("evaluation.chunk"):
                _eval_chunk(params, dataset, split, hyper, adjacency,
                            users[start:start + EVAL_BATCH], tracer, totals)
    n = len(users)
    report = MetricsReport(
        split=split, hr5=totals["hr5"] / n, hr10=totals["hr10"] / n,
        ndcg5=totals["ndcg5"] / n, ndcg10=totals["ndcg10"] / n,
        n_users=n, fingerprint=fingerprint)
    report.validate()
    return report


def faithful_eval(setup: Setup, workload: Workload, tracer: Tracer) -> float:
    """The traced loop must reproduce ``evaluate``'s report exactly; returns
    the peak allocation of one evaluation chunk in MB."""
    hyper = workload.hyper
    reference = evaluate(setup.params, setup.dataset, "validation", hyper,
                         adjacency=setup.adjacency, fingerprint=workload.fingerprint)
    reference.validate()
    report = traced_evaluate(setup.params, setup.dataset, "validation", hyper,
                             setup.adjacency, workload.fingerprint, tracer)
    if report != reference:
        raise CheckFailed(f"traced evaluation {report} != evaluate {reference}")
    unused_totals = {"hr5": 0.0, "hr10": 0.0, "ndcg5": 0.0, "ndcg10": 0.0}
    chunk = list(range(min(EVAL_BATCH, setup.dataset.n_users)))
    peak = _peak_alloc_mb(lambda: _eval_chunk(
        setup.params, setup.dataset, "validation", hyper, setup.adjacency,
        chunk, Tracer(), unused_totals))
    return peak


def run_traced(workload: Workload, seed: int, seconds: float, ops
               ) -> tuple[dict, dict]:
    """Per-layer metrics for one workload; returns (values, notes)."""
    hyper = workload.hyper
    setup, setup_s, _ = repeated_set_up(workload, seed, HostSpeed())
    ops.run("reference instance", check_reference_instance)
    rng = train_rng(hyper)
    batches = BatchStream(setup.examples, hyper.batch_size, rng)

    def warm_up():
        check_losses(train_step(batches.next(), setup.params, setup.adjacency,
                                hyper, setup.optimizer, rng))

    step_peak = _peak_alloc_mb(lambda: ops.run("warm-up step", warm_up))
    tracer = Tracer()
    steps = []
    started = time.perf_counter()
    while not steps or time.perf_counter() - started < TRACE_SHARE * seconds:
        tracer.group = f"train-{len(steps)}"
        chunk = batches.next()
        record = ops.run(f"traced step {len(steps)}", faithful_step, chunk,
                         setup, hyper, rng, tracer, len(steps))
        if record is None:
            break
        steps.append((tracer.group, record))
    tracer.group = "eval-0"
    chunk_peak = ops.run("traced eval", faithful_eval, setup, workload, tracer)
    ops.run("oracle ranks", check_oracle_ranks, setup, hyper)
    tracer.write(TRACE_DIR / f"{workload.name}-seed{seed}.jsonl")
    if not steps or chunk_peak is None:
        return {}, {}

    per_step = [tracer.totals(group) for group, _ in steps]

    def step_ms(name: str) -> float:
        return 1000.0 * statistics.median(t[name] for t in per_step)

    values: dict[str, float] = {}
    for name in REPLAYED + ("training.sample_negatives", "training.adam_step",
                            "autodiff.backward"):
        values[name + "_ms"] = step_ms(name)
    for name in REPLAYED:
        values[name + ".backward_ms"] = step_ms(name + ".backward")
    coverage = statistics.median(
        sum(t[name + ".backward"] for name in REPLAYED) / t["autodiff.backward"]
        for t in per_step)
    values["autodiff.replay_coverage"] = coverage
    first = steps[0][1]
    values.update(first["counts"])
    values.update(first["peaks"])
    values["training.step.peak_alloc_mb"] = step_peak
    values["trace.overhead_share"] = (
        statistics.median(r["traced_s"] for _, r in steps)
        / statistics.median(r["untraced_s"] for _, r in steps) - 1.0)
    eval_totals = tracer.totals("eval-0")
    for name in ("model.forward_states", "model.score_batch",
                 "evaluation.rank_target"):
        values[name + "_ms"] = 1000.0 * eval_totals[name]
    values["evaluation.rank_target_calls"] = tracer.count(
        "eval-0", "evaluation.rank_target")
    values["evaluation.propagations_per_eval"] = (
        tracer.count("eval-0", "model.forward_states")
        if eval_paths(hyper.scoring_head)["need_graph"] else 0)
    values["evaluation.chunk.peak_alloc_mb"] = chunk_peak
    for stage, value in setup_s.items():
        if stage != "setup_s":
            values[stage] = value
    ops.run("replay coverage", _check_coverage, coverage)
    n = len(steps)
    notes = {name: f"per step, median of {n}" for name in values
             if name.endswith("_ms") and not name.startswith(("model.", "evaluation."))}
    notes.update({
        "graph.propagate_flops": "computed 2*nnz*d*k, per step",
        "losses.local_loss.logit_bytes": "computed B*c*N*8, per step",
        "training.negatives_drawn": "per step",
        "autodiff.replay_coverage": f"replayed / whole backward, band {COVERAGE_BAND}",
        "trace.overhead_share": f"traced / untraced step time - 1, n={n}",
        "model.forward_states_ms": "per eval",
        "model.score_batch_ms": "per eval",
        "evaluation.rank_target_ms": "per eval",
    })
    return values, notes


def _check_coverage(coverage: float) -> None:
    lo, hi = COVERAGE_BAND
    if not lo <= coverage <= hi:
        raise CheckFailed(f"replay coverage {coverage:.3f} outside [{lo}, {hi}]")
