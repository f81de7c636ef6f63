"""Run one kbounds CLI command with a span around every layer function call.

    python perfbench/launcher.py OUT -- <kbounds arguments>

The launcher imports kbounds (timed as start-up), wraps every public function
of the scenario, bounds, tails, selection and oracle modules, both where it is
defined and where kbounds.cli, tails or selection imported it by name, and
then calls kbounds.cli.main with the arguments.  Each span records its
function, parent, start and end; every thread keeps its own
span stack, because the CLI's thread pool runs rows concurrently.  Spans stay
in memory and are written when the command ends: OUT.bin holds the span
table, OUT.json the function names, spans per thread, counters and timings.
The exit code is the command's own.
"""

import inspect
import json
import sys
import threading
import time
from array import array

LAYERS = ("scenario", "bounds", "tails", "selection", "oracle")
# Modules whose by-name imports of layer functions are rebound to the wrappers.
IMPORTERS = ("cli", "tails", "selection")
# Span table columns in file order: (name, array typecode).  A parent is an
# index into the same thread's spans, or -1.
COLUMNS = (("fn", "i"), ("parent", "i"), ("start", "q"), ("end", "q"))


class _ThreadSpans:
    """Spans and counters of one thread; only that thread appends to them."""

    def __init__(self):
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}


def _argument(fn, name: str):
    """Getter for one argument of `fn`, by position or keyword, with its default."""
    params = list(inspect.signature(fn).parameters.values())
    names = [p.name for p in params]
    if name not in names:
        return None
    pos = names.index(name)
    default = params[pos].default

    def get(args, kwargs):
        return args[pos] if len(args) > pos else kwargs.get(name, default)

    return get


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _spans(self) -> _ThreadSpans:
        with self._lock:
            spans = _ThreadSpans()
            self.threads.append(spans)
        self._local.spans = spans
        return spans

    def wrap(self, fn, qualname: str, layer: str, hook=None):
        fid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        local = self._local
        new_thread = self._spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            try:
                spans = local.spans
            except AttributeError:
                spans = new_thread()
            stack = spans.stack
            idx = len(spans.fn)
            parent = stack[-1] if stack else -1
            spans.fn.append(fid)
            spans.parent.append(parent)
            spans.end.append(0)
            stack.append(idx)
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(spans, parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # -- counters -------------------------------------------------------

    def _hooks(self, modules) -> dict:
        """Counters recorded after a call, keyed by qualified function name.

        A hook whose function or argument is gone is skipped, and the
        metric it feeds is then reported as absent.
        """
        hooks = {}

        def count(spans, key, amount):
            spans.counts[key] = spans.counts.get(key, 0) + amount

        def distinct(spans, key, value):
            spans.distinct.setdefault(key, set()).add(value)

        selection = modules["selection"]
        fn = getattr(selection, "optimize_exact", None)
        get_vars = fn and _argument(fn, "variables")
        get_kmax = fn and _argument(fn, "k_max")
        if get_vars and get_kmax:
            def optimize_exact(spans, parent, args, kwargs, result):
                count(spans, "selection.lattice_vectors",
                      get_kmax(args, kwargs) ** len(get_vars(args, kwargs)))
                distinct(spans, "selection.optimize_exact", result.ks)
            hooks["selection.optimize_exact"] = optimize_exact

        fn = getattr(modules["bounds"], "mgf_bound", None)
        get_support = fn and _argument(fn, "support")
        get_tag = fn and _argument(fn, "tag")
        if get_support and get_tag:
            def mgf_bound(spans, parent, args, kwargs, result):
                distinct(spans, "bounds.mgf_bound",
                         (get_support(args, kwargs), get_tag(args, kwargs)))
            hooks["bounds.mgf_bound"] = mgf_bound

        oracle = modules["oracle"]
        fn = getattr(oracle, "validity_gap", None)
        get_s = fn and _argument(fn, "s_values")
        if get_s:
            hooks["oracle.validity_gap"] = lambda spans, parent, args, kwargs, result: count(
                spans, "oracle.s_points", len(get_s(args, kwargs)))
        fn = getattr(oracle, "mc_sum_tail", None)
        get_samples = fn and _argument(fn, "samples")
        if get_samples:
            hooks["oracle.mc_sum_tail"] = lambda spans, parent, args, kwargs, result: count(
                spans, "oracle.mc_sum_tail.samples", get_samples(args, kwargs))

        certificate = getattr(modules["tails"], "TailCertificate", None)
        layer_of = self.layer_of

        def tails_result(spans, parent, args, kwargs, result):
            # a certificate handed out of the tails layer, not one built
            # on the way to another tails result
            if isinstance(result, certificate) and (
                parent < 0 or layer_of[spans.fn[parent]] != "tails"
            ):
                count(spans, "tails.certificates", 1)

        if certificate is not None:
            hooks["tails"] = tails_result
        return hooks

    def install(self, modules) -> None:
        hooks = self._hooks(modules)
        for layer in LAYERS:
            module = modules[layer]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                qualname = f"{layer}.{name}"
                traced = self.wrap(fn, qualname, layer,
                                   hooks.get(qualname, hooks.get(layer)))
                setattr(module, name, traced)
                for importer in IMPORTERS:
                    if getattr(modules[importer], name, None) is fn:
                        setattr(modules[importer], name, traced)

    def dump(self, out: str, meta: dict) -> None:
        """Write OUT.bin (each column, thread after thread) and OUT.json."""
        with open(out + ".bin", "wb") as handle:
            for name, _ in COLUMNS:
                for spans in self.threads:
                    getattr(spans, name).tofile(handle)
        counts: dict[str, int] = {}
        distinct: dict[str, set] = {}
        for spans in self.threads:
            for key, value in spans.counts.items():
                counts[key] = counts.get(key, 0) + value
            for key, values in spans.distinct.items():
                distinct.setdefault(key, set()).update(values)
        meta = dict(meta, names=self.names, layers=self.layer_of,
                    thread_spans=[len(spans.fn) for spans in self.threads],
                    counts=counts,
                    distinct={key: len(values) for key, values in distinct.items()})
        with open(out + ".json", "w") as handle:
            json.dump(meta, handle)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: launcher.py OUT -- <kbounds arguments>", file=sys.stderr)
        return 2
    out, args = argv[1], argv[3:]
    import_start = time.perf_counter_ns()
    import kbounds.cli
    from kbounds import bounds, oracle, scenario, selection, tails

    import_ns = time.perf_counter_ns() - import_start
    modules = {"cli": kbounds.cli, "scenario": scenario, "bounds": bounds,
               "tails": tails, "selection": selection, "oracle": oracle}
    tracer = Tracer()
    tracer.install(modules)
    entry = tracer.wrap(kbounds.cli.main, "cli.main", "cli")
    code = 1
    try:
        code = entry(args)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        tracer.dump(out, {"import_ns": import_ns})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
