"""In-memory span tracing around loggate's public functions.

Each wrapper is installed on the name the caller looks up at call time
(for example `pipeline.message_stats`, bound by a `from` import, rather
than `wordstats.message_stats`), so every call site in the program goes
through it. A wrapper records one span (name, start, end, parent) per
call; the spans stay in memory until the traced run ends, when they are
written out and per-layer self times are derived from them. A function
that is missing, or whose parameter names differ from the ones listed
here, is not wrapped: the metrics that depend on it are reported as
absent and the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from loggate import autodiff, corpus, fusion, optim, pipeline, statvae, wordstats


def _file_size(path) -> int:
    return Path(path).stat().st_size


# Hooks run after a traced call returns, get its arguments by parameter
# name, and add to Tracer.counts.
def _count_messages(arguments, result):
    return {"collect_logits_msgs": len(arguments["records"])}


def _count_pretrain_steps(arguments, result):
    return {"pretrain_steps": len(result[1])}


def _count_saved_bytes(arguments, result):
    return {"save_table_bytes": _file_size(arguments["path"])}


def _count_loaded_bytes(arguments, result):
    return {"load_table_bytes": _file_size(arguments["path"])}


# span name -> (bindings as (module, attribute path), parameter names,
#               node bucket, hook)
# A node bucket names the phase that graph nodes created inside the span
# belong to; the innermost enclosing bucketed span wins.
SPANS = {
    "pipeline.train": ([(pipeline, "train")], ["config", "out_dir"], "train", None),
    "pipeline.preprocess": ([(pipeline, "preprocess")], ["config", "out_dir"],
                            "preprocess", None),
    "pipeline.collect_logits": ([(pipeline, "collect_logits")],
                                ["model", "dataset", "records", "embeddings"],
                                "diagnose", _count_messages),
    "corpus.load_dataset": ([(pipeline, "load_dataset")],
                            ["path", "split_spec", "known_labels"], None, None),
    "corpus.split_records": ([(corpus, "LogDataset.split_records")],
                             ["self", "split"], None, None),
    "corpus.train_split_hash": ([(pipeline, "train_split_hash"),
                                 (wordstats, "train_split_hash")],
                                ["dataset"], None, None),
    "wordstats.build_stat_dictionary": ([(pipeline, "build_stat_dictionary")],
                                        ["dataset"], None, None),
    "wordstats.message_stats": ([(pipeline, "message_stats")],
                                ["stats", "record", "m_fixed"], None, None),
    "wordstats.load_stat_dictionary": ([(pipeline, "load_stat_dictionary")],
                                       ["path"], None, None),
    "statvae.pretrain": ([(statvae, "pretrain")], ["vectors", "config"],
                         None, _count_pretrain_steps),
    "statvae.embed_statistics": ([(statvae, "embed_statistics")], ["vae", "x"],
                                 None, None),
    "statvae.load_embedding_cache": ([(statvae, "load_embedding_cache")], ["path"],
                                     None, None),
    "serialize.save_table": ([(statvae, "save_table"), (fusion, "save_table")],
                             ["path", "arrays", "meta"], None, _count_saved_bytes),
    "serialize.load_table": ([(statvae, "load_table"), (fusion, "load_table")],
                             ["path"], None, _count_loaded_bytes),
    "autodiff.backward": ([(autodiff, "Tensor.backward")], ["self"], None, None),
    "optim.adam_step": ([(optim, "Adam.step")], ["self"], None, None),
    "semantic.encode_message": ([(fusion, "encode_message")],
                                ["encoder", "token_ids", "m_fixed"], None, None),
    "semantic.project_info": ([(fusion, "project_info")], ["proj", "feats"],
                              None, None),
    "fusion.forward": ([(fusion, "forward")],
                       ["model", "token_ids", "stat_embedding"], None, None),
    "fusion.project_stats": ([(fusion, "project_stats")],
                             ["proj", "stat_embedding"], None, None),
    "fusion.ada_sem_gate": ([(fusion, "ada_sem_gate")],
                            ["info_map", "confidence", "stat_info", "epsilon"],
                            None, None),
    "fusion.global_attention": ([(fusion, "global_attention")],
                                ["fused", "feats", "mask"], None, None),
    "fusion.classify": ([(fusion, "classify")], ["head", "attended", "mask"],
                        None, None),
}
ADAM_STEP = "optim.adam_step"

# Graph nodes are counted where the engine records them, with no span.
NODE_COUNTER = "autodiff.graph_nodes"
_NODE_BINDING = (autodiff, "Tensor._result")
_NODE_PARAMS = ["values", "parents", "backward"]

# per-layer metric -> (unit, kind, span name, count key). Kinds: summed
# self time, call count, a hook's count, and graph nodes per classifier
# step (Adam steps taken in the "train" bucket) or per diagnosed message.
TRACED_METRICS = {
    "pipeline.preprocess_s": ("s", "self_s", "pipeline.preprocess", None),
    "pipeline.collect_logits_s": ("s", "self_s", "pipeline.collect_logits", None),
    "pipeline.collect_logits_msgs": ("count", "count", "pipeline.collect_logits",
                                     "collect_logits_msgs"),
    "pipeline.train.self_s": ("s", "self_s", "pipeline.train", None),
    "corpus.load_dataset_s": ("s", "self_s", "corpus.load_dataset", None),
    "corpus.load_dataset_calls": ("count", "calls", "corpus.load_dataset", None),
    "corpus.split_records_calls": ("count", "calls", "corpus.split_records", None),
    "corpus.train_split_hash_s": ("s", "self_s", "corpus.train_split_hash", None),
    "wordstats.build_stat_dictionary_s": ("s", "self_s",
                                          "wordstats.build_stat_dictionary", None),
    "wordstats.message_stats_s": ("s", "self_s", "wordstats.message_stats", None),
    "wordstats.message_stats_calls": ("count", "calls", "wordstats.message_stats",
                                      None),
    "wordstats.load_stat_dictionary_s": ("s", "self_s",
                                         "wordstats.load_stat_dictionary", None),
    "statvae.pretrain_s": ("s", "self_s", "statvae.pretrain", None),
    "statvae.pretrain_steps": ("count", "count", "statvae.pretrain",
                               "pretrain_steps"),
    "statvae.embed_statistics_s": ("s", "self_s", "statvae.embed_statistics", None),
    "statvae.load_embedding_cache_s": ("s", "self_s", "statvae.load_embedding_cache",
                                       None),
    "serialize.save_table_s": ("s", "self_s", "serialize.save_table", None),
    "serialize.save_table_bytes": ("bytes", "count", "serialize.save_table",
                                   "save_table_bytes"),
    "serialize.load_table_s": ("s", "self_s", "serialize.load_table", None),
    "serialize.load_table_bytes": ("bytes", "count", "serialize.load_table",
                                   "load_table_bytes"),
    "autodiff.backward_s": ("s", "self_s", "autodiff.backward", None),
    "autodiff.backward_calls": ("count", "calls", "autodiff.backward", None),
    "autodiff.nodes_per_train_step": ("count", "nodes_per_step", "pipeline.train",
                                      "train"),
    "autodiff.nodes_per_diagnosed_msg": ("count", "nodes_per_msg",
                                         "pipeline.collect_logits", "diagnose"),
    "optim.adam_step_s": ("s", "self_s", ADAM_STEP, None),
    "optim.adam_steps": ("count", "calls", ADAM_STEP, None),
    "semantic.encode_message_s": ("s", "self_s", "semantic.encode_message", None),
    "semantic.encode_message_calls": ("count", "calls", "semantic.encode_message",
                                      None),
    "semantic.project_info_s": ("s", "self_s", "semantic.project_info", None),
    "fusion.forward_s": ("s", "self_s", "fusion.forward", None),
    "fusion.forward_calls": ("count", "calls", "fusion.forward", None),
    "fusion.project_stats_s": ("s", "self_s", "fusion.project_stats", None),
    "fusion.ada_sem_gate_s": ("s", "self_s", "fusion.ada_sem_gate", None),
    "fusion.global_attention_s": ("s", "self_s", "fusion.global_attention", None),
    "fusion.classify_s": ("s", "self_s", "fusion.classify", None),
}

# Spans a kind needs besides its own: node ratios need the node counter,
# and the per-step ratio also needs the spans that set or count buckets.
_ALSO_NEEDED = {
    "nodes_per_step": [NODE_COUNTER, "pipeline.preprocess",
                       "pipeline.collect_logits", ADAM_STEP],
    "nodes_per_msg": [NODE_COUNTER, "pipeline.train", "pipeline.preprocess"],
}


def parameter_names(func) -> list[str] | None:
    try:
        return list(inspect.signature(func).parameters)
    except (TypeError, ValueError):
        return None


def _resolve(module, path: str):
    """(owner, attribute) for a dotted path under `module`, or None."""
    owner = module
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    return None if owner is None else (owner, attr)


def _matches(module, path: str, params: list[str]) -> bool:
    found = _resolve(module, path)
    return found is not None and \
        parameter_names(getattr(*found, None)) == params


class Tracer:
    """Installs span wrappers for the length of one traced round.

    `attached()` wraps every binding that still has the expected
    parameters and restores the originals on exit; spans and counts
    accumulate across rounds.
    """

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, round]
        self.counts: Counter = Counter()
        self.node_counts: Counter = Counter()
        self.bucket_steps: Counter = Counter()
        self.rounds = 0
        self._stack: list[int] = []
        self._bucket: str | None = None
        self.absent = {name for name, (bindings, params, _, _) in SPANS.items()
                       if not all(_matches(m, p, params) for m, p in bindings)}
        if not _matches(*_NODE_BINDING, _NODE_PARAMS):
            self.absent.add(NODE_COUNTER)

    def _span_wrapper(self, name, original, bucket, hook):
        spans, stack = self.spans, self._stack
        counts_steps = name == ADAM_STEP
        signature = inspect.signature(original) if hook is not None else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rounds]
            stack.append(len(spans))
            spans.append(record)
            previous_bucket = self._bucket
            if bucket is not None:
                self._bucket = bucket
            if counts_steps:
                self.bucket_steps[self._bucket] += 1
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                self._bucket = previous_bucket
            if hook is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                self.counts.update(hook(arguments, result))
            return result

        return traced

    def _node_wrapper(self, original):
        node_counts = self.node_counts

        def counted(values, parents, backward):
            out = original(values, parents, backward)
            if out._backward is not None:
                node_counts[self._bucket] += 1
            return out

        return staticmethod(counted)

    @contextlib.contextmanager
    def attached(self):
        """Wrap every resolvable binding for the duration of the block."""
        installed = []

        def install(module, path, make_wrapper):
            owner, attr = _resolve(module, path)
            original = inspect.getattr_static(owner, attr)
            setattr(owner, attr, make_wrapper(getattr(owner, attr)))
            installed.append((owner, attr, original))

        try:
            for name, (bindings, _, bucket, hook) in SPANS.items():
                if name not in self.absent:
                    for module, path in bindings:
                        install(module, path, lambda f: self._span_wrapper(
                            name, f, bucket, hook))
            if NODE_COUNTER not in self.absent:
                install(*_NODE_BINDING, self._node_wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)
            self.rounds += 1

    def write_spans(self, path: Path) -> None:
        """One span per line: index, round, parent index, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("index\tround\tparent\tname\tstart_s\tend_s\n")
            for index, (name, start, end, parent, round_id) in enumerate(self.spans):
                out.write(f"{index}\t{round_id}\t{parent}\t{name}\t"
                          f"{start!r}\t{end!r}\n")

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Summed self time and call count per span name.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on this single thread.
        """
        if not self.spans:
            return {}, Counter()
        names = [s[0] for s in self.spans]
        duration = np.array([s[2] - s[1] for s in self.spans])
        parent = np.array([s[3] for s in self.spans])
        child = np.zeros(len(self.spans))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        totals: dict[str, float] = defaultdict(float)
        for name, value in zip(names, duration - child):
            totals[name] += float(value)
        return dict(totals), Counter(names)

    def metrics(self) -> tuple[dict[str, dict], list[str]]:
        """Per-round averages of every traced metric, plus the absent names."""
        rounds = max(self.rounds, 1)
        totals, calls = self.self_times()
        per_unit = {"nodes_per_step": self.bucket_steps["train"],
                    "nodes_per_msg": self.counts["collect_logits_msgs"]}
        out, absent = {}, []
        for metric, (unit, kind, span, key) in TRACED_METRICS.items():
            if span in self.absent or any(
                    name in self.absent for name in _ALSO_NEEDED.get(kind, ())):
                absent.append(metric)
                continue
            if kind == "self_s":
                value = totals.get(span, 0.0) / rounds
            elif kind == "calls":
                value = calls[span] / rounds
            elif kind == "count":
                value = self.counts[key] / rounds
            else:
                units = per_unit[kind]
                value = self.node_counts[key] / units if units else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out, absent
