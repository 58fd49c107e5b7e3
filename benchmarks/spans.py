"""Per-module spans and tape attribution, recorded from outside the program.

``Tracer.install`` rebinds each traced public function in every ``sase``
module that holds it (``from .x import f`` copies the binding, so one
module is not enough) to a wrapper that records a span: name, start, end,
parent. The span stack is per thread, because ``data.load_pair`` runs in
the training loop's prefetch worker.

The tape's ``_record`` is rebound the same way. Each recorded node is
attributed to the innermost block active when it was recorded, and its
vjp is swapped for a callable that times it under that block.
``backward`` checks that the attributed count equals ``len(tape)``, which
fails if some module's binding of ``_record`` escaped the rebinding.

Compute blocks report self time (their span minus the traced spans nested
in it), so they partition the forward pass the way innermost attribution
partitions the backward pass. Phase blocks report inclusive wall time.
"""

import sys
import threading
import time
from collections import defaultdict

# (defining module, function, block). A block may cover several functions.
COMPUTE = (
    ("sase.layers", "conv2d", "layers.conv2d"),
    ("sase.layers", "instance_norm", "layers.norm"),
    ("sase.layers", "layer_norm", "layers.norm"),
    ("sase.rnn", "birnn", "rnn"),
    ("sase.attention", "mhsa_module", "attention"),
    ("sase.dsp", "stft", "dsp.stft"),
    ("sase.dsp", "istft", "dsp.istft"),
    ("sase.dsp", "istft_tensors", "dsp.synth"),
    ("sase.losses", "multitask_loss", "losses"),
    ("sase.losses", "sdr_loss", "losses"),
    ("sase.model", "forward", "model.forward"),
)
PHASES = (
    ("sase.autodiff", "backward", "autodiff.backward"),
    ("sase.optim", "adam_step", "optim.adam"),
    ("sase.data", "load_pair", "data.load"),
    ("sase.train", "_mean_dev_si_sdr", "train.dev_eval"),
    ("sase.train", "evaluate_entries", "train.test_eval"),
    ("sase.checkpoint", "save_params", "checkpoint.save"),
    ("sase.checkpoint", "save_adam", "checkpoint.save"),
    ("sase.checkpoint", "load_params", "checkpoint.load"),
    ("sase.checkpoint", "load_config", "checkpoint.load"),
    ("sase.audio", "read_wav", "audio.read"),
    ("sase.audio", "write_wav", "audio.write"),
)
PRIMS = ("matmul", "slice", "concat", "add", "mul", "sigmoid", "tanh",
         "broadcast", "conv2d", "irfft_cols", "overlap_add")
OUTSIDE = "(outside)"


def rebind(original, replacement):
    """Point every ``sase`` module binding of ``original`` at
    ``replacement``; returns the (module, name) pairs changed."""
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sase" or name.startswith("sase.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


class _TimedVjp:
    """A node's vjp, timed into ``totals[key]``. One slotted object per
    node, not a closure, keeps the tracer's allocations (and so the
    collector's work) small."""

    __slots__ = ("inner", "key", "totals")

    def __init__(self, inner, key, totals):
        self.inner, self.key, self.totals = inner, key, totals

    def __call__(self, g):
        t0 = time.perf_counter()
        try:
            return self.inner(g)
        finally:
            self.totals[self.key] += time.perf_counter() - t0


class Tracer:
    def __init__(self):
        self.spans = []  # [block, start, end, parent index or None]
        self.node_count = defaultdict(int)  # (block, prim) -> nodes
        self.node_bytes = 0
        self.vjp_s = defaultdict(float)  # (block, prim) -> seconds
        self.bytes_written = 0
        self.problems = []
        self._tape_nodes = {}  # id(tape) -> nodes attributed to it
        self._local = threading.local()
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _enter(self, block):
        stack = self._stack()
        span = [block, time.perf_counter(), None, stack[-1] if stack else None]
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(len(self.spans) - 1)
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._stack().pop()

    def _innermost(self):
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else OUTSIDE

    def _span_wrapper(self, fn, block):
        def traced(*args, **kwargs):
            span = self._enter(block)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
        return traced

    def _wait_wrapper(self, fn):
        """Times each ``next`` on the prefetch iterator: consumer wait."""
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def waited():
                while True:
                    span = self._enter("data.wait")
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(span)
                    yield item
            return waited()
        return traced

    def _save_arrays_wrapper(self, fn):
        def traced(path_bin, path_json, *args, **kwargs):
            out = fn(path_bin, path_json, *args, **kwargs)
            for path in (path_bin, path_json):
                with open(path, "rb") as fh:
                    self.bytes_written += len(fh.read())
            return out
        return traced

    # -- tape attribution ---------------------------------------------------

    def _record_wrapper(self, fn):
        def traced(data, parents, vjp, name):
            out = fn(data, parents, vjp, name)
            if out._node_id is None:
                return out
            block = self._innermost()
            key = (block, name)
            self.node_count[key] += 1
            self.node_bytes += out.data.nbytes
            tape_id = id(out._tape)
            self._tape_nodes[tape_id] = self._tape_nodes.get(tape_id, 0) + 1
            node = out._tape.nodes[out._node_id]
            node.vjp = _TimedVjp(node.vjp, key, self.vjp_s)
            return out
        return traced

    def _backward_wrapper(self, fn):
        span_fn = self._span_wrapper(fn, "autodiff.backward")

        def traced(root, *args, **kwargs):
            tape = getattr(root, "_tape", None)
            if tape is not None:
                counted = self._tape_nodes.pop(id(tape), 0)
                if counted != len(tape):
                    self.problems.append(
                        f"tape of {len(tape)} nodes but {counted} attributed:"
                        " a binding of _record was not traced")
            return span_fn(root, *args, **kwargs)
        return traced

    # -- install / uninstall ------------------------------------------------

    def install(self):
        def swap(module_name, attr, make):
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                print(f"trace: {module_name}.{attr} not found; its block reads 0",
                      file=sys.stderr)
                return
            for mod, name in rebind(original, make(original)):
                self._undo.append((mod, name, original))

        for module_name, attr, block in COMPUTE + PHASES:
            if block == "autodiff.backward":
                swap(module_name, attr, self._backward_wrapper)
            else:
                swap(module_name, attr,
                     lambda fn, block=block: self._span_wrapper(fn, block))
        swap("sase.data", "iter_loaded_batches", self._wait_wrapper)
        swap("sase.checkpoint", "save_arrays", self._save_arrays_wrapper)
        swap("sase.autodiff", "_record", self._record_wrapper)
        return self

    def uninstall(self):
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- metrics --------------------------------------------------------------

    def block_times(self):
        """(self seconds, inclusive seconds) per block. Inclusive time counts
        only the outermost span of a block, so recursion is not doubled."""
        child = [0.0] * len(self.spans)
        for block, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        own, inclusive = defaultdict(float), defaultdict(float)
        for i, (block, start, end, parent) in enumerate(self.spans):
            own[block] += (end - start) - child[i]
            p = parent
            while p is not None and self.spans[p][0] != block:
                p = self.spans[p][3]
            if p is None:
                inclusive[block] += end - start
        return own, inclusive

    def metrics(self, ops):
        """Every per-layer metric, per operation (``ops`` traced)."""
        own, inclusive = self.block_times()
        nodes_by_block, vjp_by_block = defaultdict(int), defaultdict(float)
        nodes_by_prim, vjp_by_prim = defaultdict(int), defaultdict(float)
        for (block, prim), n in self.node_count.items():
            nodes_by_block[block] += n
            nodes_by_prim[prim] += n
        for (block, prim), s in self.vjp_s.items():
            vjp_by_block[block] += s
            vjp_by_prim[prim] += s
        total_vjp = sum(vjp_by_prim.values())
        m = {
            "autodiff.tape_nodes": (sum(nodes_by_prim.values()), "count"),
            "autodiff.tape_bytes": (self.node_bytes, "bytes"),
            "autodiff.backward_s": (inclusive["autodiff.backward"], "s"),
            "autodiff.sweep_s": (inclusive["autodiff.backward"] - total_vjp, "s"),
        }
        for prim in PRIMS:
            m[f"autodiff.nodes.{prim}"] = (nodes_by_prim[prim], "count")
            m[f"autodiff.vjp_s.{prim}"] = (vjp_by_prim[prim], "s")
        for block in ("layers.conv2d", "layers.norm", "rnn", "attention",
                      "dsp.synth", "losses"):
            m[f"{block}.fwd_s"] = (own[block], "s")
            m[f"{block}.vjp_s"] = (vjp_by_block[block], "s")
        for block in ("layers.norm", "rnn", "attention"):
            m[f"{block}.nodes"] = (nodes_by_block[block], "count")
        m["dsp.stft_s"] = (own["dsp.stft"], "s")
        m["dsp.istft_s"] = (own["dsp.istft"], "s")
        m["model.forward_self_s"] = (own["model.forward"], "s")
        for block in ("optim.adam", "data.load", "data.wait", "train.dev_eval",
                      "train.test_eval", "checkpoint.save", "checkpoint.load",
                      "audio.read", "audio.write"):
            m[f"{block}_s"] = (inclusive[block], "s")
        m["checkpoint.bytes_written"] = (self.bytes_written, "bytes")
        return {name: {"value": value / ops, "unit": unit}
                for name, (value, unit) in m.items()}
