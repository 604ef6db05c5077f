"""Traced replay of one `srg` call, for the benchmark's per-layer metrics.

Usage: python3 bench/trace.py SPANS_FILE -- SRG_ARGS...

Times `import srg.cli`, rebinds the public srg functions found in the
namespaces of srg.cli, srg.phenotype, srg.boolenc and srg.dynamics to
span-recording wrappers, then runs srg.cli.main(SRG_ARGS) with stdout as
it is.  Spans stay in memory until main returns; then SPANS_FILE gets one
JSON line with the spans and a second line with the wall-clock time just
before exit, so the launcher can time interpreter start and exit apart.

A span is [name, parent index, start, end, child seconds, extras]; times
are perf_counter seconds.  "child seconds" is the time covered by wrapped
callees, so self time = end - start - child.  Hot per-state callees are
not spans: they are aggregated per name as [calls, total seconds] and
still counted as child time of the span that called them.
"""

import time

FIRST_EPOCH = time.time()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

clock = time.perf_counter

HOT = frozenset({
    "srg.core.step",
    "srg.boolenc.bn_step",
    "srg.boolenc.encode_state",
    "srg.netio.attractor_json",
    "srg.netio.state_json",
    "srg.netio.format_state",
})


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _enumerated(args, result):
    graph = args[0]
    return {
        "states": 3 ** (graph.n - len(graph.clamps)),
        "attractors": len(result),
        "attractor_states": sum(a.period for a in result),
        "rss_mb": _rss_mb(),
    }


# Extras recorded after the span closes, so they cost no span time.
MEASURES = {
    "srg.dynamics.enumerate_attractors": _enumerated,
    "srg.dynamics.build_sts": lambda args, result: {"rss_mb": _rss_mb()},
    "srg.netio.export_dot": lambda args, result: {"bytes": len(result)},
    "srg.netio.render_report": lambda args, result: {"bytes": len(result)},
    "srg.boolenc.check_simulation_equivalence":
        lambda args, result: {"states_checked": result.states_checked},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.hot = {}
        self._wrapped = {}

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, clock(), None, 0.0, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index):
        span = self.spans[index]
        span[3] = clock()
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]][4] += span[3] - span[2]

    def wrap(self, fn):
        if fn in self._wrapped:
            return self._wrapped[fn]
        name = f"{fn.__module__}.{fn.__name__}"
        if name in HOT:
            totals = self.hot.setdefault(name, [0, 0.0])

            def traced(*args, **kwargs):
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = clock() - started
                    totals[0] += 1
                    totals[1] += took
                    if self.stack:
                        self.spans[self.stack[-1]][4] += took
        else:
            measure = MEASURES.get(name)

            def traced(*args, **kwargs):
                index = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(index)
                if measure is not None:
                    self.spans[index][5] = measure(args, result)
                return result

        self._wrapped[fn] = functools.wraps(fn)(traced)
        return self._wrapped[fn]

    def instrument(self, module, skip=()):
        for attr, obj in list(vars(module).items()):
            if (isinstance(obj, types.FunctionType) and obj.__module__.startswith("srg.")
                    and not attr.startswith("_") and attr not in skip):
                setattr(module, attr, self.wrap(obj))


def main():
    spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace.py SPANS_FILE -- SRG_ARGS...")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    tracer = Tracer()

    index = tracer.open("import srg.cli")
    import srg.cli
    tracer.close(index)
    if not os.path.abspath(srg.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"srg was imported from {srg.cli.__file__}, not from {src}")

    import srg.boolenc
    import srg.dynamics
    import srg.phenotype
    tracer.instrument(srg.cli, skip=("main", "build_parser"))
    for module in (srg.phenotype, srg.boolenc, srg.dynamics):
        tracer.instrument(module)

    index = tracer.open("srg.cli.main")
    try:
        code = srg.cli.main(argv)
    finally:
        tracer.close(index)
        sys.stdout.flush()
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump({"first_epoch": FIRST_EPOCH, "spans": tracer.spans, "hot": tracer.hot}, handle)
        handle.write("\n" + repr(time.time()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
