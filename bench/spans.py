"""In-memory spans around the calls into each ``setcons`` layer.

Nothing in the library knows about tracing: :func:`install` replaces the
public functions and methods the pipeline goes through with timing
wrappers, in every module namespace that holds them (``cli`` and ``sim``
bind ``build_partition`` at import, ``analysis`` binds ``translate_map``
and ``is_nilpotent``, and so on).  Each call becomes a span with a parent
link; calls made thousands of times per operation (``IntervalSet.__and__``
and ``__or__``, ``BinaryMap.step``) are folded into one record per parent
span.  A span's self time is its duration minus the time of its children.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "dsl", "encoding", "analysis", "bindyn", "boolmat", "intervals", "expr", "sim")

# Spans that must fire at least once on every operation kind.
COMMON_SPANS = (
    "cli.op", "dsl.parse", "encoding.build_partition", "encoding.translate_map",
    "encoding.encode_state", "expr.eval", "intervals.and", "intervals.or",
)
ANALYZE_SPANS = COMMON_SPANS + (
    "analysis.contractivity", "analysis.equilibria", "analysis.fixed_point",
    "analysis.local", "bindyn.step", "boolmat.is_nilpotent",
)
SIMULATE_SPANS = COMMON_SPANS + ("sim.simulate",)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, self seconds)
        self.leaves: dict[tuple, list] = {}  # (parent id, name) -> [calls, seconds]
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[list] = []  # open spans: [id, child seconds]
        self._next_id = 0
        self._op = None

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, name, start, end):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append((frame[0], parent, self._op, name, start, end, end - start - frame[1]))

    def op(self, fn, *args):
        """Run one operation as the root span ``cli.op``."""
        frame, parent = self._open()
        self._op = frame[0]
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(frame, parent, "cli.op", start, time.perf_counter())

    def span(self, name, fn, after=None):
        """A wrapper recording each call of ``fn`` as its own span;
        ``after(tracer, args, result)`` updates counters outside the span."""

        def wrapper(*args, **kwargs):
            frame, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, parent, name, start, time.perf_counter())
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn, after=None):
        """A wrapper for a hot call that never opens spans itself: calls are
        summed per parent span instead of stored one by one."""
        leaves = self.leaves
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            if stack:
                stack[-1][1] += elapsed
            key = (stack[-1][0] if stack else None, name)
            record = leaves.get(key)
            if record is None:
                leaves[key] = [1, elapsed]
            else:
                record[0] += 1
                record[1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def calls(self) -> Counter:
        out = Counter(s[3] for s in self.spans)
        for (_, name), (calls, _) in self.leaves.items():
            out[name] += calls
        return out

    def summary(self) -> dict:
        """Per-layer metrics over every traced operation: times and counts
        are means per operation, ``*_yield`` are ratios of sums, and
        ``max_*``/``nilpotent_dim`` are maxima."""
        roots = [s for s in self.spans if s[3] == "cli.op"]
        ops = len(roots)
        if not ops:
            raise ValueError("no traced operations")
        inclusive: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        for s in self.spans:
            inclusive[s[3]] += s[5] - s[4]
            self_time[s[3].split(".")[0]] += s[6]
        for (_, name), (_, seconds) in self.leaves.items():
            inclusive[name] += seconds
            self_time[name.split(".")[0]] += seconds
        calls = self.calls()
        simulate_ids = {s[0] for s in self.spans if s[3] == "sim.simulate"}
        rounds = sum(1 for s in self.spans if s[3] == "expr.eval" and s[1] in simulate_ids)
        wall = sum(s[5] - s[4] for s in roots)
        root_self = sum(s[6] for s in roots)
        c, mx = self.counters, self.maxima

        def per_op(x):
            return x / ops

        def ratio(a, b):
            return a / b if b else 0.0

        metrics = {
            "dsl.parse_s": per_op(inclusive["dsl.parse"]),
            "dsl.expr_nodes": per_op(c["dsl.expr_nodes"]),
            "encoding.build_partition_s": per_op(inclusive["encoding.build_partition"]),
            "encoding.generators": per_op(c["encoding.generators"]),
            "encoding.kappa": per_op(c["encoding.kappa"]),
            "encoding.signatures_scanned": per_op(c["encoding.signatures_scanned"]),
            "encoding.cell_yield": ratio(c["encoding.kappa"], c["encoding.signatures_scanned"]),
            "encoding.encode_state_s": per_op(inclusive["encoding.encode_state"]),
            "encoding.encode_state_calls": per_op(calls["encoding.encode_state"]),
            "analysis.contractivity_s": per_op(inclusive["analysis.contractivity"]),
            "analysis.equilibria_s": per_op(inclusive["analysis.equilibria"]),
            "analysis.states_scanned": per_op(c["analysis.states_scanned"]),
            "analysis.fixed_point_yield": ratio(c["analysis.fixed_points"], c["analysis.states_scanned"]),
            "analysis.fixed_point_s": per_op(inclusive["analysis.fixed_point"]),
            "analysis.local_s": per_op(inclusive["analysis.local"]),
            "bindyn.step_calls": per_op(calls["bindyn.step"]),
            "boolmat.nilpotent_dim": mx["boolmat.nilpotent_dim"],
            "intervals.and_calls": per_op(calls["intervals.and"]),
            "intervals.and_s": per_op(inclusive["intervals.and"]),
            "intervals.or_calls": per_op(calls["intervals.or"]),
            "intervals.pairs_examined": per_op(c["intervals.pairs_examined"]),
            "intervals.max_intervals": mx["intervals.max_intervals"],
            "expr.eval_s": per_op(inclusive["expr.eval"]),
            "expr.eval_calls": per_op(calls["expr.eval"]),
            "sim.rounds": per_op(rounds),
            "sim.round_s": ratio(inclusive["sim.simulate"], rounds),
            "cli.self_s": per_op(root_self),
        }
        shares = {layer: ratio(self_time[layer], wall) for layer in LAYERS}
        spans_share = {name: ratio(seconds, wall) for name, seconds in sorted(inclusive.items())}
        return {"ops": ops, "wall_s": wall, "metrics": metrics, "shares": shares,
                "span_shares": spans_share, "calls": dict(calls)}

    def dump(self, path) -> None:
        """Write every span and folded leaf record as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "op", "name", "start", "end", "self_s"],
                    "spans": self.spans,
                    "leaves": [[parent, name, calls, seconds]
                               for (parent, name), (calls, seconds) in self.leaves.items()],
                },
                fh,
            )


# -- counters, updated after each call ---------------------------------------

def _expr_nodes(spec) -> int:
    count = 0
    stack = list(spec.rules)
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(getattr(node, f) for f in ("left", "right", "child") if hasattr(node, f))
    return count


def _after_parse(t, args, spec):
    t.counters["dsl.expr_nodes"] += _expr_nodes(spec)


def _after_partition(t, args, partition):
    m = len(partition.generators)
    t.counters["encoding.generators"] += m
    t.counters["encoding.kappa"] += partition.kappa
    t.counters["encoding.signatures_scanned"] += 1 << m


def _after_equilibria(t, args, report):
    f, partition = args[0], args[1]
    t.counters["analysis.states_scanned"] += partition.kappa << (f.arity - f.frozen_count)
    t.counters["analysis.fixed_points"] += sum(len(fps) for fps in report.per_cell)


def _after_nilpotent(t, args, result):
    t.maxima["boolmat.nilpotent_dim"] = max(t.maxima["boolmat.nilpotent_dim"], args[0].n)


def _after_and(t, args, result):
    a, b = len(args[0].intervals), len(args[1].intervals)
    t.counters["intervals.pairs_examined"] += a * b
    t.maxima["intervals.max_intervals"] = max(t.maxima["intervals.max_intervals"], a, b)


def install(tracer: Tracer):
    """Route the pipeline's calls through ``tracer``: each wrapped function
    is rebound under every name any ``setcons`` module holds it by, and
    each wrapped method is replaced on its class.  Returns a function that
    puts the originals back."""
    import setcons
    from setcons import analysis, bindyn, boolmat, cli, dsl, encoding, expr, intervals, sim

    modules = (setcons, analysis, bindyn, boolmat, cli, dsl, encoding, expr, intervals, sim)
    functions = (
        (dsl.parse, tracer.span("dsl.parse", dsl.parse, _after_parse)),
        (encoding.build_partition,
         tracer.span("encoding.build_partition", encoding.build_partition, _after_partition)),
        (encoding.translate_map, tracer.span("encoding.translate_map", encoding.translate_map)),
        (analysis.is_contractive_sbm,
         tracer.span("analysis.contractivity", analysis.is_contractive_sbm)),
        (analysis.equilibria_sbm,
         tracer.span("analysis.equilibria", analysis.equilibria_sbm, _after_equilibria)),
        (analysis.global_fixed_point, tracer.span("analysis.fixed_point", analysis.global_fixed_point)),
        (analysis.is_locally_attractive_sbm,
         tracer.span("analysis.local", analysis.is_locally_attractive_sbm)),
        (boolmat.is_nilpotent, tracer.span("boolmat.is_nilpotent", boolmat.is_nilpotent, _after_nilpotent)),
        (sim.simulate, tracer.span("sim.simulate", sim.simulate)),
    )
    undo = []
    for original, wrapper in functions:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))

    methods = (
        (encoding.EncodedSystem, "encode_state", tracer.span, "encoding.encode_state", None),
        (expr.SetMap, "eval", tracer.span, "expr.eval", None),
        (bindyn.BinaryMap, "step", tracer.leaf, "bindyn.step", None),
        (intervals.IntervalSet, "__and__", tracer.leaf, "intervals.and", _after_and),
        (intervals.IntervalSet, "__or__", tracer.leaf, "intervals.or", None),
    )
    for cls, attr, make, name, after in methods:
        undo.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, make(name, getattr(cls, attr), after))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall
