"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each proxgap layer at every module
that holds them: the defining module, every module that imported them by
name, and the benchmark's own modules.  A call is therefore recorded whichever
module makes it.  Spans stay in memory as ``(name, start, end, parent)``
tuples until the run ends; ``Tensor`` constructions are counted, not spanned,
because there are hundreds of thousands of them per pass.
"""

from __future__ import annotations

import collections
import functools
import os
import sys
import time

# layer -> module -> public functions that get a span
LAYERS = {
    "diffcore": {
        "proxgap.diffcore.network": ("forward_graph", "forward", "input_grad_batch",
                                     "input_grad_columns", "init_network"),
        "proxgap.diffcore.optim": ("adam_step",),
    },
    "objectives": {
        "proxgap.objectives": ("value_and_grad_d", "value_and_grad_g", "value_graph",
                               "eval_objective", "enforce_constraint"),
    },
    "gapmetrics": {
        "proxgap.gapmetrics": ("duality_gap", "estimate_v_dw", "estimate_v_gw_lambda",
                               "estimate_v_gw_plain", "lambda_sweep"),
    },
    "oracles": {
        "proxgap.oracles": ("grid_dg", "grid_dg_lambda", "numeric_jsd", "numeric_fdiv",
                            "jsd_from_samples"),
    },
    "distributions": {
        "proxgap.distributions": ("density", "make_splits", "sample_latent"),
    },
    "probes": {
        "proxgap.probes": ("unilateral_deviation",),
    },
    "harness": {
        "proxgap.harness.runner": ("train", "gap_cmd", "lambda_sweep_cmd", "probe_cmd",
                                   "save_checkpoint", "load_checkpoint", "build_state",
                                   "rebuild_splits"),
    },
}
# called tens of thousands of times per pass with microseconds of work each,
# so they are counted rather than spanned
COUNTED = {"oracles.toy_value": ("proxgap.oracles", "toy_value")}


def _prox_step_flops(state, cfg) -> float:
    """Matmul FLOPs of one penalized inner step, computed from the shapes.

    Rows through the discriminator per step: the real and fake batches, plus
    the 2*dim central-difference stencil rows on the real batch when the
    penalty is on.  Backward is counted as twice the forward.  Toy games have
    no network and count 0.
    """
    spec = getattr(state, "d_spec", None)
    if spec is None:
        return 0.0
    rows = 2 * cfg.batch_size + (2 * spec.input_dim * cfg.batch_size if cfg.lam > 0 else 0)
    per_row = sum(2 * fi * fo for fi, fo in spec.layer_shapes())
    return 3.0 * rows * per_row


def _note_prox(tracer, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    steps = (cfg.worst_iters + 1) * cfg.prox_steps
    tracer.notes["prox_steps"] += steps
    tracer.notes["prox_flops"] += steps * _prox_step_flops(state, cfg)


def _note_checkpoint(tracer, args, kwargs, result):
    npz = str(result)
    tracer.notes["checkpoint_bytes"] += (os.path.getsize(npz)
                                         + os.path.getsize(npz[:-4] + ".json"))


HOOKS = {
    "gapmetrics.estimate_v_gw_lambda": _note_prox,
    "harness.save_checkpoint": _note_checkpoint,
}


class Tracer:
    """Installs span wrappers, records one pass at a time, and removes them."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.names = []
        self.layer_of = []
        self.spans = []  # (name index, start, end, parent span index or -1)
        self.counts = collections.Counter()
        self.notes = collections.Counter()
        self._stack = [-1]
        self._patches = []
        self._wrappers = None

    # -- installation ------------------------------------------------------
    def _holders(self):
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name.startswith("proxgap") or name in self.extra_modules):
                yield mod

    def _patch_everywhere(self, original, replacement):
        for mod in self._holders():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _span_wrapper(self, qname, fn, hook):
        idx = len(self.names)
        self.names.append(qname)
        self.layer_of.append(qname.split(".", 1)[0])
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, qname, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[qname] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _build(self):
        """(original, wrapper) pairs for every traced function, made once per tracer."""
        pairs = []
        for layer, modules in LAYERS.items():
            for modname, funcs in modules.items():
                mod = sys.modules[modname]
                for fname in funcs:
                    qname = f"{layer}.{fname}"
                    original = getattr(mod, fname)
                    pairs.append((original, self._span_wrapper(qname, original,
                                                               HOOKS.get(qname))))
        for qname, (modname, fname) in COUNTED.items():
            original = getattr(sys.modules[modname], fname)
            pairs.append((original, self._count_wrapper(qname, original)))

        from proxgap.diffcore.engine import Tensor
        init = Tensor.__init__
        counts = self.counts

        def counting_init(obj, *args, **kwargs):
            counts["diffcore.tensor_nodes"] += 1
            init(obj, *args, **kwargs)

        methods = [(Tensor, "backward",
                    self._span_wrapper("diffcore.backward", Tensor.backward, None)),
                   (Tensor, "__init__", counting_init)]
        return pairs, methods

    def install(self):
        if self._wrappers is None:
            self._wrappers = self._build()
        pairs, methods = self._wrappers
        for original, wrapper in pairs:
            self._patch_everywhere(original, wrapper)
        for owner, attr, wrapper in methods:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- one pass ------------------------------------------------------------
    def take_pass(self):
        """Return and clear what was recorded since the previous call."""
        spans, counts, notes = list(self.spans), dict(self.counts), dict(self.notes)
        self.spans.clear()
        self.counts.clear()
        self.notes.clear()
        return spans, counts, notes


def summarize_pass(names, layer_of, spans):
    """Per-name calls, inclusive ms, self ms, and per-layer self ms of one pass.

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself through another wrapped call is not counted twice.
    Self time is a span's duration minus the durations of its direct children
    (calls are sequential, so children never overlap).
    """
    n = len(spans)
    child_sum = [0.0] * n
    for idx, start, end, parent in spans:
        if parent >= 0:
            child_sum[parent] += end - start
    calls = collections.Counter()
    incl = collections.Counter()
    self_ms = collections.Counter()
    layer_self = collections.Counter()
    for i, (idx, start, end, parent) in enumerate(spans):
        name = names[idx]
        dur = end - start
        calls[name] += 1
        own = (dur - child_sum[i]) * 1e3
        self_ms[name] += own
        layer_self[layer_of[idx]] += own
        p = parent
        while p >= 0 and spans[p][0] != idx:
            p = spans[p][3]
        if p < 0:
            incl[name] += dur * 1e3
    return calls, incl, self_ms, layer_self


def redundant_sweep_estimates(names, spans) -> int:
    """estimate_v_dw and estimate_v_gw_plain calls in a sweep beyond the first of each."""
    per_sweep = collections.Counter()
    for idx, _, _, p in spans:
        if names[idx] not in ("gapmetrics.estimate_v_dw", "gapmetrics.estimate_v_gw_plain"):
            continue
        while p >= 0 and names[spans[p][0]] != "gapmetrics.lambda_sweep":
            p = spans[p][3]
        if p >= 0:
            per_sweep[(p, names[idx])] += 1
    return sum(c - 1 for c in per_sweep.values())


def write_spans(path, names, passes):
    """Write every recorded span as CSV: pass, name, start_s, end_s, parent row."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,span,name,start_s,end_s,parent\n")
        for k, spans in enumerate(passes):
            for i, (idx, start, end, parent) in enumerate(spans):
                fh.write(f"{k},{i},{names[idx]},{start:.9f},{end:.9f},{parent}\n")
