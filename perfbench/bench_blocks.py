"""Forward and backward time of each public block on one fixed batch.

The batch is the first 32 training messages of a small `default` corpus
(seed 7), whatever the workload and seed, so these numbers compare
across runs and commits. Each block's inputs are fresh leaf tensors, so
its backward pass stops at the block boundary. The backward time also
covers three cheap nodes that reduce the block's outputs to a scalar.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from loggate import autodiff as ad
from loggate import corpus, fusion, optim, semantic, synth

BATCH = 32
REPEATS = 7
_PER_LABEL = 16
_SEED = 7
_D_MODEL, _LATENT, _M_FIXED, _EPSILON = 64, 16, 16, 0.2

BLOCKS = ("encode", "project_info", "gate", "global_attention", "classify",
          "cross_entropy")
ADAM_METRIC = "layer.adam_step_ms"
METRICS = [f"layer.{b}.{d}_ms" for b in BLOCKS for d in ("fwd", "bwd")] + [ADAM_METRIC]


def _leaf(tensor):
    return ad.parameter(tensor.values)


def _reduce(outputs):
    """Scalar that depends on every output entry with a fixed weight."""
    rng = np.random.Generator(np.random.PCG64(0))
    stacked = ad.concat_rows(outputs)
    return ad.total(stacked * ad.Tensor(rng.standard_normal(stacked.shape)))


def _time_block(params, make_inputs, run, reduce, repeats):
    """Median forward and backward milliseconds over `repeats` passes."""
    fwd, bwd = [], []
    for _ in range(repeats):
        for p in params:
            p.zero_grad()
        inputs = make_inputs()
        started = time.perf_counter()
        outputs = run(inputs)
        middle = time.perf_counter()
        loss = reduce(outputs)
        before = time.perf_counter()
        loss.backward()
        done = time.perf_counter()
        fwd.append((middle - started) * 1e3)
        bwd.append((done - before) * 1e3)
    return statistics.median(fwd), statistics.median(bwd)


def _fixed_batch(work_dir):
    path = work_dir / "blocks.tsv"
    synth.generate_synthetic(synth.make_default_spec(_PER_LABEL), _SEED, path)
    dataset = corpus.load_dataset(path)
    records = dataset.split_records("train")[:BATCH]
    rng = np.random.Generator(np.random.PCG64(_SEED))
    model = fusion.build_model(corpus.FIRST_WORD_ID + len(dataset.vocab),
                               dataset.label_vocab.size, _D_MODEL, _LATENT,
                               _M_FIXED, _EPSILON, "full", rng)
    ids = [dataset.token_ids(r.tokens) for r in records]
    stat_rows = rng.standard_normal((len(records), _LATENT))
    labels = np.array([r.label_id for r in records], dtype=np.int64)
    return model, ids, stat_rows, labels


def block_timings(work_dir, repeats: int = REPEATS):
    """Median forward/backward milliseconds of every block, by metric name.

    The functions are called as the per-message forward pass calls them
    today; a block whose interface changed raises here, and the caller
    then reports every block metric as absent.
    """
    model, ids, stat_rows, labels = _fixed_batch(work_dir)
    m = model.m_fixed
    # One untimed full forward pass gives every block its inputs.
    encoded = [semantic.encode_message(model.encoder, i, m) for i in ids]
    feats = [f for f, _ in encoded]
    masks = [k for _, k in encoded]
    info = [semantic.project_info(model.info, f) for f in feats]
    stat_info = [fusion.project_stats(model.stats, row) for row in stat_rows]
    fused = [fusion.ada_sem_gate(i, c, s, model.epsilon)
             for (i, c), s in zip(info, stat_info)]
    attended = [fusion.global_attention(f, x, k)
                for f, x, k in zip(fused, feats, masks)]
    logits = [fusion.classify(model.head, a, k) for a, k in zip(attended, masks)]

    def encode(_):
        return [semantic.encode_message(model.encoder, i, m)[0] for i in ids]

    def project(inputs):
        return [t for f in inputs for t in semantic.project_info(model.info, f)]

    def gate(inputs):
        return [fusion.ada_sem_gate(i, c, s, model.epsilon) for i, c, s in inputs]

    def attend(inputs):
        return [fusion.global_attention(f, x, k) for f, x, k in inputs]

    def classify(inputs):
        return [fusion.classify(model.head, a, k) for a, k in inputs]

    def cross_entropy(inputs):
        return ad.cross_entropy(inputs, labels)

    plans = {
        "encode": (lambda: None, encode, _reduce),
        "project_info": (lambda: [_leaf(f) for f in feats], project, _reduce),
        "gate": (lambda: [(_leaf(i), _leaf(c), _leaf(s))
                          for (i, c), s in zip(info, stat_info)], gate, _reduce),
        "global_attention": (lambda: [(_leaf(f), _leaf(x), k) for f, x, k
                                      in zip(fused, feats, masks)], attend, _reduce),
        "classify": (lambda: [(_leaf(a), k) for a, k in zip(attended, masks)],
                     classify, _reduce),
        "cross_entropy": (lambda: _leaf(ad.concat_rows(logits)), cross_entropy,
                          lambda loss: loss),
    }
    params = model.parameters()
    out = {}
    for name, (make_inputs, run, reduce) in plans.items():
        fwd, bwd = _time_block(params.values(), make_inputs, run, reduce, repeats)
        out[f"layer.{name}.fwd_ms"] = {"value": fwd, "unit": "ms"}
        out[f"layer.{name}.bwd_ms"] = {"value": bwd, "unit": "ms"}

    # The Adam step after one full-batch backward pass.
    optimizer = optim.Adam(params)
    optimizer.zero_grad()
    _reduce(logits).backward()
    steps = []
    for _ in range(repeats):
        started = time.perf_counter()
        optimizer.step()
        steps.append((time.perf_counter() - started) * 1e3)
    out[ADAM_METRIC] = {"value": statistics.median(steps), "unit": "ms"}
    return out
