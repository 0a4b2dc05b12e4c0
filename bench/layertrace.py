"""Per-layer tracing from outside the program.

Tracer.install() wraps the public functions of each layer module, and the
public methods of the classes they define, in place: module attributes and
the names other outerspine modules imported are rebound to the wrappers.
Each wrapped call is a span; a layer's self time is its spans' time minus
the time of the wrapped spans they caused. Tracing inside the program is
left for a later change.
"""

import functools
import inspect
import sys
import time

LAYERS = ("words", "folding", "graphs", "marked", "covers", "counting",
          "witness", "retract_aut", "retract_split", "spine", "textio",
          "sampling")

# O(1) graph accessors called in the innermost loops. A span around each
# would measure the wrapper rather than the layer, so their time stays with
# the caller.
UNWRAPPED = {"head", "tail", "valence", "directions", "step", "label_of",
             "dval", "is_loop", "rank", "images"}

WRAPPED_DUNDERS = ("__init__", "__post_init__", "__mul__")


class Tracer:
    def __init__(self):
        self.enabled = False     # record only while set; wrappers stay cheap
        self.stack = []          # [start, child time] per open span
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {}
        self._saved = []         # (owner, name, original attribute)

    # -- recording -------------------------------------------------------

    def reset(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {}

    def bump(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def _enter(self):
        self.stack.append([time.perf_counter(), 0.0])

    def _exit(self, layer):
        start, child = self.stack.pop()
        dt = time.perf_counter() - start
        self.self_s[layer] += dt - child
        if self.stack:
            self.stack[-1][1] += dt

    def snapshot(self):
        return dict(self.self_s), dict(self.counts)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        tracer = self
        calls = "%s.%s.calls" % (layer, qualname)
        hook = COUNT_HOOKS.get("%s.%s" % (layer, qualname))

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                tracer.bump(calls)
                it = fn(*args, **kwargs)
                while True:
                    tracer._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(layer)
                    if hook:
                        hook(tracer, args, kwargs, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.bump(calls)
            tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(layer)
            if hook:
                hook(tracer, args, kwargs, out)
            return out
        return wrapper

    def _rebind(self, owner, name, new):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def install(self):
        """Wrap every layer. uninstall() puts the originals back, so that
        untraced timings run the program exactly as it is."""
        if self._saved:
            return
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules["outerspine." + layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self._wrap(obj, layer, name)
                    self._rebind(mod, name, w)
                    replaced[id(obj)] = w
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # rebind names other modules imported with `from .x import f`
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("outerspine"):
                continue
            for name, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._rebind(mod, name, w)

    def uninstall(self):
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved = []

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name in UNWRAPPED:
                continue
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            qual = "%s.%s" % (cls.__name__, name)
            if isinstance(attr, (staticmethod, classmethod)):
                self._rebind(cls, name, type(attr)(
                    self._wrap(attr.__func__, layer, qual)))
            elif inspect.isfunction(attr):
                self._rebind(cls, name, self._wrap(attr, layer, qual))


# Work counts beyond call counts, keyed by the wrapped function.

def _fold_letters(tr, args, kwargs, out):
    words = args[0] if args else kwargs["word_list"]
    tr.bump("folding.letters", sum(len(w) for w in words))


def _equivalent_hit(tr, args, kwargs, out):
    if out is not None:
        tr.bump("marked.equivalent.hits")


def _class_letters(tr, args, kwargs, out):
    tr.bump("counting.class_letters", len(args[1].letters))


def _isomorphism_tried(tr, args, kwargs, item):
    tr.bump("graphs.isomorphisms_tried")


def _subgraph_scanned(tr, args, kwargs, out):
    tr.bump("covers.subgraphs_scanned")


def _candidates(tr, args, kwargs, out):
    tr.bump("spine.candidates", len(out))


COUNT_HOOKS = {
    "folding.fold_words": _fold_letters,
    "marked.equivalent": _equivalent_hit,
    "counting.count_i": _class_letters,
    "graphs.graph_isomorphisms": _isomorphism_tried,
    "covers.core_prune_edges": _subgraph_scanned,
    "spine.collapse_neighbors": _candidates,
    "spine.blowup_neighbors": _candidates,
}
