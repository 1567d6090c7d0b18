"""Which library functions the traced run wraps, and the per-layer metrics.

Every wrapped name is the one the caller looks up at call time: model.py
imports khop_neighborhood, recent_posts and adam_step into its own
namespace, Tensor operators call the autograd module's functions, and the
benchmark itself calls the loaders, forward, train and gbdt.fit through
their modules.
"""

import numpy as np

from socialstance import autograd, corpus, embed, gbdt, model, socialgraph
from socialstance.autograd import Tensor
from socialstance.embed import PrecomputedStore
from socialstance.gbdt import RegressionTree
from socialstance.socialgraph import SocialGraph

AUTOGRAD_OPS = ("add", "mul", "div", "matmul", "getitem", "concat",
                "segment_sum", "relu", "leaky_relu", "exp", "log", "clip_min",
                "tsum", "reshape")

# name -> unit, in BENCHMARK.json order.
PER_LAYER = {
    "corpus.load_posts_s": "s",
    "corpus.recent_posts_s": "s",
    "corpus.recent_posts_calls": "count",
    "socialgraph.build_s": "s",
    "socialgraph.khop_s": "s",
    "socialgraph.khop_calls": "count",
    "socialgraph.ball_nodes_mean": "nodes",
    "socialgraph.neighbors_calls": "count",
    "embed.load_store_s": "s",
    "embed.embed_post_s": "s",
    "embed.embed_post_calls": "count",
    "embed.lookups_per_post": "calls/post",
    "model.forward_self_s": "s",
    "model.forward_p50_ms": "ms",
    "model.forward_p99_ms": "ms",
    "model.train_self_s": "s",
    "model.adam_step_s": "s",
    "model.adam_step_calls": "count",
    "model.checkpoint_load_s": "s",
    "model.train_final_loss": "nats",
    "autograd.ops_s": "s",
    "autograd.op_calls": "count",
    "autograd.segment_sum_s": "s",
    "autograd.getitem_s": "s",
    "autograd.matmul_s": "s",
    "autograd.concat_s": "s",
    "autograd.backward_s": "s",
    "autograd.backward_calls": "count",
    "autograd.tensors": "count",
    "autograd.tensors_per_sample": "tensors/sample",
    "gbdt.load_csv_s": "s",
    "gbdt.fit_s": "s",
    "gbdt.grow_self_s": "s",
    "gbdt.tree_predict_s": "s",
    "gbdt.tree_predict_calls": "count",
    "gbdt.tree_nodes": "count",
    "gbdt.test_log_loss": "nats",
}


def instrument(tracer, embedded: set) -> None:
    """Patch every layer boundary; tracer.close() undoes it.

    The ids of every post embedded are added to `embedded`.
    """
    tracer.wrap(corpus, "load_posts", "corpus.load_posts")
    tracer.wrap(model, "recent_posts", "corpus.recent_posts")
    tracer.wrap(socialgraph, "load_interactions", "socialgraph.load_interactions")
    tracer.wrap(socialgraph, "build_social_graph", "socialgraph.build_social_graph")
    tracer.wrap(model, "khop_neighborhood", "socialgraph.khop",
                on_result=lambda ball: tracer.add("socialgraph.ball_nodes", len(ball)))
    tracer.wrap_count(SocialGraph, "neighbors", "socialgraph.neighbors")
    tracer.wrap(embed, "load_embedding_store", "embed.load_store")
    tracer.wrap(PrecomputedStore, "embed_post", "embed.embed_post",
                on_call=lambda store, post: embedded.add(post.id))
    tracer.wrap(model, "load_checkpoint", "model.load_checkpoint")
    tracer.wrap(model, "forward", "model.forward")
    tracer.wrap(model, "train", "model.train")
    tracer.wrap(model, "adam_step", "model.adam_step")
    for op in AUTOGRAD_OPS:
        tracer.wrap(autograd, op, f"autograd.{op}")
    tracer.wrap(Tensor, "backward", "autograd.backward")
    tracer.wrap_count(Tensor, "__init__", "autograd.tensors")
    tracer.wrap(gbdt, "load_training_csv", "gbdt.load_training_csv")
    tracer.wrap(gbdt, "fit", "gbdt.fit")
    tracer.wrap(RegressionTree, "predict", "gbdt.tree_predict")


def per_layer_metrics(tracer, embedded: set, samples: int, extra: dict) -> dict:
    """Every PER_LAYER metric from one traced run; 0 where a layer never ran.

    samples is the engine work of the headline phase (train samples x
    epochs, or posts classified); extra carries values the workload
    computed itself (tree node count, guard losses).
    """
    spans = tracer.summary()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def per_call(name):
        return total(name) / calls(name) if calls(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    forward_ms = tracer.durations_s("model.forward") * 1e3
    p50, p99 = (np.percentile(forward_ms, [50, 99]) if forward_ms.size
                else (0.0, 0.0))
    builds = calls("socialgraph.build_social_graph")
    ops = [f"autograd.{op}" for op in AUTOGRAD_OPS]
    tensors = tracer.counts.get("autograd.tensors", 0)
    values = {
        "corpus.load_posts_s": per_call("corpus.load_posts"),
        "corpus.recent_posts_s": total("corpus.recent_posts"),
        "corpus.recent_posts_calls": calls("corpus.recent_posts"),
        "socialgraph.build_s": ratio(total("socialgraph.load_interactions")
                                     + total("socialgraph.build_social_graph"),
                                     builds),
        "socialgraph.khop_s": total("socialgraph.khop"),
        "socialgraph.khop_calls": calls("socialgraph.khop"),
        "socialgraph.ball_nodes_mean": ratio(
            tracer.sums.get("socialgraph.ball_nodes", 0.0), calls("socialgraph.khop")),
        "socialgraph.neighbors_calls": tracer.counts.get("socialgraph.neighbors", 0),
        "embed.load_store_s": per_call("embed.load_store"),
        "embed.embed_post_s": total("embed.embed_post"),
        "embed.embed_post_calls": calls("embed.embed_post"),
        "embed.lookups_per_post": ratio(calls("embed.embed_post"),
                                        len(embedded)),
        "model.forward_self_s": own("model.forward"),
        "model.forward_p50_ms": float(p50),
        "model.forward_p99_ms": float(p99),
        "model.train_self_s": own("model.train"),
        "model.adam_step_s": total("model.adam_step"),
        "model.adam_step_calls": calls("model.adam_step"),
        "model.checkpoint_load_s": per_call("model.load_checkpoint"),
        "model.train_final_loss": extra.get("train_final_loss", 0.0),
        "autograd.ops_s": sum(total(n) for n in ops),
        "autograd.op_calls": sum(calls(n) for n in ops),
        "autograd.segment_sum_s": total("autograd.segment_sum"),
        "autograd.getitem_s": total("autograd.getitem"),
        "autograd.matmul_s": total("autograd.matmul"),
        "autograd.concat_s": total("autograd.concat"),
        "autograd.backward_s": total("autograd.backward"),
        "autograd.backward_calls": calls("autograd.backward"),
        "autograd.tensors": tensors,
        "autograd.tensors_per_sample": ratio(tensors, samples),
        "gbdt.load_csv_s": per_call("gbdt.load_training_csv"),
        "gbdt.fit_s": total("gbdt.fit"),
        "gbdt.grow_self_s": own("gbdt.fit"),
        "gbdt.tree_predict_s": total("gbdt.tree_predict"),
        "gbdt.tree_predict_calls": calls("gbdt.tree_predict"),
        "gbdt.tree_nodes": extra.get("tree_nodes", 0),
        "gbdt.test_log_loss": extra.get("test_log_loss", 0.0),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}
