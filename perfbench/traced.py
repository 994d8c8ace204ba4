"""Run one `isingtri` command in-process with spans around its layers.

    python3 perfbench/traced.py TRACE.json -- <isingtri arguments>

The command's own output goes to standard output, exactly as from
`python3 -m isingtri.cli`.  Wrappers defined here sit around the public
functions of exactnum, series, partition, criticality, maps, sampler and cli;
a function imported with `from .x import f` is replaced in every module that
binds it.  Spans (name, start, end, parent) stay in memory and are written to
TRACE.json when the command ends, with the per-layer figures derived from
them.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

CLI_COMMANDS = ("coeffs", "oracle", "verify", "critical", "spectral", "asymp", "sample", "stats")

# (module, attribute, span name); attribute "Class.method" patches the class.
SPANS = [
    ("exactnum", "parse_scalar", "exactnum.parse_scalar"),
    ("exactnum", "format_scalar", "exactnum.format_scalar"),
    ("exactnum", "scalar_to_float", "exactnum.scalar_to_float"),
    ("exactnum", "cbrt_interval", "exactnum.cbrt_interval"),
    ("series", "solve_fixed_point", "series.solve_fixed_point"),
    ("series", "TSeries.__mul__", "series.t_mul"),
    ("series", "TSeries.inverse", "series.t_inverse"),
    ("series", "BivSeries.__mul__", "series.biv_mul"),
    ("partition", "solve_dobrushin", "partition.solve_dobrushin"),
    ("partition", "WordTable.series", "partition.word_table"),
    ("partition", "sphere_series", "partition.sphere_series"),
    ("partition", "solve_U", "partition.solve_U"),
    ("partition", "verify_catalytic", "partition.verify_catalytic"),
    ("partition", "zplus_recursion", "partition.zplus_recursion"),
    ("partition", "check_q_identities", "partition.check_q_identities"),
    ("criticality", "critical_point", "criticality.critical_point"),
    ("criticality", "eval_series_interval", "criticality.eval_series_interval"),
    ("criticality", "eval_at_tnu", "criticality.eval_at_tnu"),
    ("criticality", "mean_matrix", "criticality.mean_matrix"),
    ("criticality", "spectral_radius", "criticality.spectral_radius"),
    ("criticality", "estimate_asymptotics", "criticality.estimate_asymptotics"),
    ("maps", "CombMap.validate", "maps.validate"),
    ("maps", "oracle_series", "maps.oracle_series"),
    ("maps", "oracle_sphere", "maps.oracle_sphere"),
    ("maps", "oracle_Q", "maps.oracle_Q"),
    ("sampler", "ExactSamplerContext.__init__", "sampler.exact_context"),
    ("sampler", "ExactSamplerContext.case_weights", "sampler.case_weights"),
    ("sampler", "exact_sample", "sampler.exact_sample"),
    ("sampler", "BoltzmannContext.__init__", "sampler.boltzmann_context"),
    ("sampler", "BoltzmannContext.value", "sampler.boltzmann_value"),
    ("sampler", "boltzmann_sample", "sampler.boltzmann_sample"),
    ("sampler", "mcmc_sample", "sampler.mcmc_sample"),
    ("sampler", "collect_stats", "sampler.collect_stats"),
    ("cli", "main", "cli.main"),
] + [("cli", f"cmd_{c}", f"cli.cmd_{c}") for c in CLI_COMMANDS]

# QuadExt arithmetic is counted, not spanned: it runs millions of times.
QUADEXT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")

# Per-layer figures: (metric, unit, better, how). "incl" sums the outermost
# spans among the names, "self" sums their self times, "count" reads a counter.
LAYER_METRICS = [
    ("exactnum.quadext_ops", "count", "lower", ("count", "exactnum.quadext_ops")),
    ("series.sweeps", "count", "lower", ("count", "series.sweeps")),
    ("series.solve_s", "s", "lower", ("incl", "series.solve_fixed_point")),
    ("series.biv_mul", "count", "lower", ("count", "series.biv_mul")),
    ("series.biv_mul_s", "s", "lower", ("incl", "series.biv_mul")),
    ("series.t_mul", "count", "lower", ("count", "series.t_mul")),
    ("series.t_mul_s", "s", "lower", ("incl", "series.t_mul")),
    ("partition.dobrushin_solves", "count", "lower", ("count", "partition.solve_dobrushin")),
    ("partition.dobrushin_s", "s", "lower", ("incl", "partition.solve_dobrushin")),
    ("partition.words_solved", "count", "lower", ("count", "partition.words_solved")),
    ("partition.words_read", "count", "lower", ("count", "partition.words_read")),
    ("partition.word_table_s", "s", "lower", ("incl", "partition.word_table")),
    ("partition.solve_U_s", "s", "lower", ("incl", "partition.solve_U")),
    ("criticality.evals", "count", "lower", ("count", "criticality.eval_series_interval")),
    ("criticality.eval_s", "s", "lower", ("incl", "criticality.eval_series_interval")),
    ("criticality.critical_point_s", "s", "lower", ("incl", "criticality.critical_point")),
    ("criticality.spectral_radius_s", "s", "lower", ("incl", "criticality.spectral_radius")),
    ("maps.validate_calls", "count", "lower", ("count", "maps.validate")),
    ("maps.validate_s", "s", "lower", ("incl", "maps.validate")),
    ("maps.oracle_s", "s", "lower", ("incl", "maps.oracle_series", "maps.oracle_sphere",
                                     "maps.oracle_Q")),
    ("sampler.exact_context_s", "s", "lower", ("incl", "sampler.exact_context")),
    ("sampler.case_weights_calls", "count", "lower", ("count", "sampler.case_weights")),
    ("sampler.case_weights_s", "s", "lower", ("incl", "sampler.case_weights")),
    ("sampler.boltzmann_value_s", "s", "lower", ("incl", "sampler.boltzmann_value")),
    ("sampler.mcmc_self_s", "s", "lower", ("self", "sampler.mcmc_sample")),
    ("sampler.collect_stats_s", "s", "lower", ("incl", "sampler.collect_stats")),
    ("cli.self_s", "s", "lower", ("self", "cli.main") + tuple(f"cli.cmd_{c}" for c in CLI_COMMANDS)),
] + [(f"self.{m}_s", "s", "lower", ("module", m))
     for m in ("exactnum", "series", "partition", "criticality", "maps", "sampler", "cli")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.quadext_ops = [0]
        self.words_read: set = set()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            state = before(args) if before else None
            try:
                return fn(*args, **kwargs)
            finally:
                if after:
                    after(args, state)
                spans[idx][2] = clock()
                stack.pop()
        return wrapper

    def install(self) -> None:
        import isingtri.cli  # noqa: F401  (loads every layer)
        from isingtri.exactnum import QuadExt

        modules = [mod for name, mod in sys.modules.items()
                   if name == "isingtri" or name.startswith("isingtri.")]
        for modname, attr, name in SPANS:
            owner, _, meth = attr.rpartition(".")
            target = sys.modules[f"isingtri.{modname}"]
            if owner:
                target = getattr(target, owner)
            original = getattr(target, meth)
            if name == "series.solve_fixed_point":
                wrapped = self.span(name, self._counting_solver(original))
            elif name == "partition.word_table":
                wrapped = self.span(name, original, self._before_word, self._after_word)
            else:
                wrapped = self.span(name, original)
            if owner:
                setattr(target, meth, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        cell = self.quadext_ops
        for op in QUADEXT_OPS:
            def counted(*args, _f=getattr(QuadExt, op)):
                cell[0] += 1
                return _f(*args)
            setattr(QuadExt, op, counted)

    def _counting_solver(self, solve):
        """Count update-rule applications (sweeps) of every fixed-point solve."""
        def counting_solve(spec, order):
            update = spec.update

            def counted_update(state, work):
                self.count("series.sweeps")
                return update(state, work)
            return solve(dataclasses.replace(spec, update=counted_update), order)
        return counting_solve

    def _before_word(self, args):
        table, word = args[0], args[1]
        if 3 <= len(word) <= table.p_max:
            self.words_read.add((id(table), table._key(word)))
        return len(table.entries)

    def _after_word(self, args, entries_before):
        self.count("partition.words_solved", len(args[0].entries) - entries_before)

    def summary(self) -> dict:
        spans = self.spans
        for name, *_ in spans:
            self.count(name)
        self.counts["exactnum.quadext_ops"] = self.quadext_ops[0]
        self.counts["partition.words_read"] = len(self.words_read)
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = [s[2] - s[1] - c for s, c in zip(spans, child_time)]
        metrics = {}
        for metric, _unit, _better, (kind, *names) in LAYER_METRICS:
            if kind == "count":
                metrics[metric] = self.counts.get(names[0], 0)
            elif kind == "module":
                metrics[metric] = sum(t for s, t in zip(spans, self_time)
                                      if s[0].split(".", 1)[0] == names[0])
            elif kind == "self":
                metrics[metric] = sum(t for s, t in zip(spans, self_time) if s[0] in names)
            else:
                metrics[metric] = sum(s[2] - s[1] for s in spans
                                      if s[0] in names and not self._inside(s, names))
        return metrics

    def _inside(self, span, names) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False


def main(argv: list[str]) -> int:
    trace_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py TRACE.json -- <isingtri arguments>")
    start = time.perf_counter()
    import isingtri.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        rc = isingtri.cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    metrics = tracer.summary()
    metrics["cli.import_s"] = import_s
    with open(trace_path, "w") as fh:
        json.dump({"argv": cli_args, "rc": rc, "metrics": metrics, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
