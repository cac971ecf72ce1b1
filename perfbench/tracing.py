"""Per-layer tracing by wrapping adsq's public functions from outside.

A wrapper replaces a function at every module attribute that holds it,
which is the name through which its callers look it up (``cmd_eval``
finds ``mean_ap`` as ``adsq.cli.mean_ap``, ``mean_ap`` finds
``distances_to_all`` as ``adsq.metrics.distances_to_all``). The source
is not changed. Each wrapper adds inclusive wall time and a call count
under its layer name; some also add a work count (rows) taken from the
arguments or the result.
"""

import sys
import time
from collections import Counter
from functools import wraps


# (layer name, module, attribute, work count or None)
SPANS = (
    ("synth.generate", "adsq.synth", "generate", None),
    ("data.load_dataset", "adsq.data", "load_dataset", None),
    ("data.build_similarity", "adsq.data", "build_similarity", None),
    ("labelnet.train_labelnet", "adsq.labelnet", "train_labelnet", None),
    ("labelnet.labelnet_loss", "adsq.labelnet", "labelnet_loss", None),
    ("imgnet.wstep_epoch", "adsq.imgnet", "wstep_epoch", lambda args, result: args[1].n),
    ("imgnet.full_objective", "adsq.imgnet", "full_objective", None),
    ("bstep.bstep_sweep", "adsq.bstep", "bstep_sweep", None),
    ("bstep.bstep_objective", "adsq.bstep", "bstep_objective", None),
    ("encoder.forward", "adsq.encoder", "forward", lambda args, result: args[1].shape[0]),
    ("encoder.backward", "adsq.encoder", "backward", None),
    ("trainer.train", "adsq.trainer", "train", lambda args, result: result.rounds_run),
    ("trainer.save_run", "adsq.trainer", "save_run", None),
    ("codes.encode_matrix", "adsq.codes", "encode_matrix", None),
    ("codes.pack", "adsq.codes", "pack", None),
    ("codes.write_codes", "adsq.codes", "write_codes", None),
    ("codes.load_codes", "adsq.codes", "load_codes", None),
    ("codes.distances_to_all", "adsq.codes", "distances_to_all", None),
    ("codes.search_topk", "adsq.codes", "search_topk", None),
    ("metrics.mean_ap", "adsq.metrics", "mean_ap", None),
    ("metrics.ph2", "adsq.metrics", "mean_precision_at_hamming2", None),
    ("metrics.pr_curve", "adsq.metrics", "pr_curve", None),
    ("metrics.precision_at_n", "adsq.metrics", "precision_at_n", None),
    ("metrics.relevance", "adsq.metrics", "RelevanceJudge.relevance", None),
)


class Tracer:
    """Accumulates seconds, calls and work per layer while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.seconds = Counter()
        self.calls = Counter()
        self.work = Counter()
        self._undo = []

    def snapshot(self):
        return Counter(self.seconds), Counter(self.calls), Counter(self.work)

    def _wrap(self, layer, fn, work):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            tracer.seconds[layer] += time.perf_counter() - t0
            tracer.calls[layer] += 1
            if work is not None:
                tracer.work[layer] += work(args, result)
            return result
        return traced

    def install(self):
        """Wrap every span at every adsq module attribute that holds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "adsq" or name.startswith("adsq."))]
        for layer, module_name, attr, work in SPANS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(layer, fn, work))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(layer, fn, work)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()
