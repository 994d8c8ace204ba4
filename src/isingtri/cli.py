"""Command-line surface: every subsystem behind one binary with JSON output.

Each invocation emits a run manifest next to its results: the subcommand, the
full parameter set (every parsed option but the output paths, so each
`sample` mode records just the flags it takes), library version, seeds,
wall-clock time, peak resident memory and a sha256 of the canonically
serialized result payload.  Re-running the same command reproduces the result
hash bit for bit (samplers included: all randomness is seed-derived).

Every subcommand reaches the engine layers through their module objects,
which `isingtri/__init__.py` registers to load on first use, so a command
compiles and runs only the layers it calls.  `acceptance` is imported inside
its subcommand (`report`), the only one that uses it.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, criticality, exactnum, maps, partition, sampler, sha256

# the accepted --target forms of each subcommand that takes one
TARGETS = {
    "coeffs": "sphere | word:<+->... | U | zplus:<p>",
    "oracle": "sphere | word:<+->... | q:<p>",
    "asymp": "sphere | word:<+->...",
}
# the parsed arguments that are not parameters of the result: the parser's
# own keys, the clock and the output destinations
_NOT_PARAMS = ("cmd", "func", "t0", "output", "output_dir")


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _result_hash(payload) -> str:
    return sha256(_canonical_json(payload).encode()).hexdigest()


def _peak_rss_mb() -> float:
    """This process's peak resident set in MB: VmHWM where /proc has it (Linux
    carries the spawning process's high-water mark into ru_maxrss), else ru_maxrss."""
    try:
        with open("/proc/self/status") as status:
            kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(kb / 1024, 2)


def _emit(args, result, seeds=None, extra: dict | None = None) -> None:
    manifest = {
        "subcommand": args.cmd,
        "params": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS},
        "version": __version__,
        "seeds": seeds,
        "rng_algorithm": sampler.RNG_ALGORITHM if seeds else None,
        "wallclock_s": round(time.time() - args.t0, 3),
        "peak_rss_mb": _peak_rss_mb(),
        "output_hashes": {"result": _result_hash(result)},
        **(extra or {}),
    }
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
        Path(str(path) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    else:
        sys.stdout.write(json.dumps({"manifest": manifest, "result": result}, indent=2) + "\n")


def _interval_json(iv: exactnum.Interval) -> list:
    lo, hi = iv.float_bounds()
    return [lo, hi]


def _usage_error(cmd: str, message: str) -> SystemExit:
    """Exit 2, as argparse does for a bad argument."""
    print(f"isingtri {cmd}: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _parse_target(args) -> tuple[str, str | int | None]:
    """`--target` as (kind, argument): none for sphere and U, the normalized
    nonempty word for word:<w>, the integer for zplus:<p> and q:<p>.  Exit 2 on
    any other form and on a kind the subcommand does not accept."""
    kind, colon, arg = args.target.partition(":")
    if kind in (form.partition(":")[0] for form in TARGETS[args.cmd].split(" | ")):
        if kind in ("sphere", "U") and not colon:
            return kind, None
        if kind == "word" and arg:
            try:
                return kind, maps.normalize_word(arg)
            except ValueError:
                pass
        if kind in ("zplus", "q") and re.fullmatch(r"[0-9]+", arg):
            return kind, int(arg)
    raise _usage_error(args.cmd, f"unknown --target {args.target!r} "
                                 f"(accepted: {TARGETS[args.cmd]})")


def _count(text: str) -> int:
    """The argparse type of a count option: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _word(text: str) -> str:
    """The argparse type of `sample boltzmann --word`: a nonempty spin word,
    normalized."""
    try:
        if text:
            return maps.normalize_word(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonempty word of + and -, got {text!r}")


def _criterion_ids(text: str) -> list[int]:
    """The argparse type of `report --criteria`: comma-separated criterion ids,
    each kept once, in the order first given."""
    from .acceptance import CRITERIA

    ids = text.split(",")
    if not all(re.fullmatch(r"[0-9]+", x) and int(x) in CRITERIA for x in ids):
        raise argparse.ArgumentTypeError(f"expected comma-separated ids "
                                         f"{min(CRITERIA)}-{max(CRITERIA)}, got {text!r}")
    return list(dict.fromkeys(int(x) for x in ids))


def _series_csv(series) -> str:
    lines = ["exponent,coefficient,float"]
    for k in series.support():
        c = series.coeff(k)
        lines.append(f"{k},{exactnum.format_scalar(c)},"
                     f"{float(exactnum.scalar_to_float(c, 64).mid):.17g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_coeffs(args) -> int:
    kind, arg = _parse_target(args)
    nu = exactnum.parse_scalar(args.nu)
    order = args.order
    if kind == "sphere":
        series = partition.sphere_series(nu, order)
    elif kind == "U":
        series = partition.solve_U(nu, order)
    elif kind == "word":
        series = partition.WordTable(nu, order).series(arg)
    else:
        series = partition.zplus_recursion(arg, nu, order, partition.WordTable(nu, order + arg))
    if args.out == "csv":
        result = {"format": "csv", "target": args.target, "csv": _series_csv(series)}
    else:
        result = {"format": "json", "target": args.target, "series": series.to_json()}
    _emit(args, result)
    return 0


def cmd_oracle(args) -> int:
    kind, arg = _parse_target(args)
    if kind == "q" and args.dump_maps:
        raise _usage_error(args.cmd, "--dump-maps lists the maps of a sphere or word: target")
    nu = exactnum.parse_scalar(args.nu)
    order = args.order
    cap = args.cap = maps.DEFAULT_CAP if args.cap is None else args.cap   # recorded resolved
    dump = []
    if kind == "sphere":
        series = maps.oracle_sphere(nu, order, cap=cap)
        if args.dump_maps:
            for n in range(3, order + 1, 3):
                dump += [m.to_text() for m in maps.enumerate_maps(n, "sphere", cap=cap)]
    elif kind == "q":
        series = maps.oracle_Q(arg, nu, order, cap=cap)
    else:
        series = maps.oracle_series(arg, nu, order, cap=cap)
        if args.dump_maps:
            p = len(arg)
            for n in range(1, order + 1):
                if (2 * n - p) % 3 == 0:
                    dump += [m.to_text() for m in maps.enumerate_maps(n, "pgon", p, cap=cap)]
    result = {"target": args.target, "series": series.to_json()}
    if args.dump_maps:
        result["maps"] = dump
    _emit(args, result)
    return 0


def cmd_verify(args) -> int:
    nu = exactnum.parse_scalar(args.nu)
    order = args.order
    words = partition.WordTable(nu, order + 2)
    rep = partition.verify_catalytic(nu, order, words)
    oracle_order = min(order, maps.DEFAULT_CAP)
    q_results = [r.to_json() for r in partition.check_q_identities(words, oracle_order)]
    oracle_ok = not partition.oracle_mismatches(words, oracle_order, 3)
    all_ok = rep.ok and oracle_ok and all(r["ok"] for r in q_results)
    result = {
        "catalytic": rep.to_json(),
        "q_identities": q_results,
        "oracle_equivalence_to": oracle_order,
        "oracle_equivalence_ok": oracle_ok,
        "all_ok": all_ok,
    }
    _emit(args, result)
    return 0 if all_ok else 1


def cmd_critical(args) -> int:
    nu = exactnum.parse_scalar(args.nu)
    crit = criticality.critical_point(nu, Fraction(args.width))
    _emit(args, crit.to_json())
    return 0


def cmd_spectral(args) -> int:
    nu = exactnum.parse_scalar(args.nu)
    order = args.order
    crit = criticality.critical_point(nu)
    z1, z2, zm = criticality.boundary_at_tnu(partition.WordTable(nu, order), crit, order - 1)
    matrix = criticality.mean_matrix(crit, z1, z2, zm)
    radius = criticality.spectral_radius(matrix)
    result = {
        "matrix": matrix.to_json(),
        "radius": _interval_json(radius),
        "below_one": bool(radius.hi < 1),
        "inputs": {"Z_+": _interval_json(z1), "Z_++": _interval_json(z2),
                   "Z_+-": _interval_json(zm), "t_nu": _interval_json(crit.t_nu)},
    }
    _emit(args, result)
    return 0


def cmd_asymp(args) -> int:
    kind, arg = _parse_target(args)
    nu = exactnum.parse_scalar(args.nu)
    order = args.order
    if kind == "sphere":
        series = partition.sphere_series(nu, order)
    else:
        series = partition.WordTable(nu, order).series(arg)
    crit = criticality.critical_point(nu)
    fit = criticality.estimate_asymptotics(series, crit)
    _emit(args, {"target": args.target, "fit": fit.to_json(), "regime": crit.regime})
    return 0


def cmd_sample(args) -> int:
    nu = exactnum.parse_scalar(args.nu)
    seeds = [sampler.derive_seed(args.seed, i) for i in range(args.reps)]
    extra = None
    if args.mode == "exact":
        ctx = sampler.ExactSamplerContext(nu, 3 * args.n + 1)
        drawn = [sampler.exact_sample(nu, args.n, seed=s, ctx=ctx) for s in seeds]
    elif args.mode == "mcmc":
        drawn = [sampler.mcmc_sample(nu, args.n, args.steps, seed=s) for s in seeds]
    else:
        # t_nu is known as an enclosure: draw at its lower end, never above t_nu
        t = (criticality.critical_point(nu).t_nu.lo if args.t == "t_nu"
             else exactnum.parse_scalar(args.t))
        bctx = sampler.BoltzmannContext(nu, t, series_order=args.series_order)
        drawn = [sampler.boltzmann_sample(args.word, nu, bctx, seed=s) for s in seeds]
        extra = {"truncation": _truncated_mass(bctx, args.word)}
    samples = [{"seed": s, "map": m.to_text(), "edges": m.n_edges,
                "mono": m.monochromatic_count()} for m, s in zip(drawn, seeds)]
    stats = sampler.collect_stats(drawn, r_max=args.r_max,
                                  meta={"mode": args.mode, "nu": args.nu, "seed": args.seed,
                                        "rng": sampler.RNG_ALGORITHM})
    result = {"samples": samples, "stats": stats.to_json()}
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, rec in enumerate(samples):
            (outdir / f"sample_{i:05d}.json").write_text(json.dumps(rec, indent=2) + "\n")
        (outdir / "stats.json").write_text(json.dumps(stats.to_json(), indent=2) + "\n")
    _emit(args, result, seeds=seeds, extra=extra)
    return 0


def _truncated_mass(bctx: sampler.BoltzmannContext, word: str) -> dict:
    """The Boltzmann mass of the sizes past the series order, P(n > N), by the
    power-law tail model: a heuristic estimate, and below t_nu, where the
    true tail decays geometrically, an upper estimate."""
    value = exactnum.scalar_to_float(bctx.value(word), 96).mid
    model = criticality.eval_series_interval(bctx.words.series(word),
                                             exactnum.scalar_to_float(bctx.t, 96),
                                             criticality.decay_exponent(bctx.nu))
    tail = max(model.mid - value, 0)
    return {"t": exactnum.format_scalar(bctx.t), "series_order": bctx.order,
            "mass": float(tail / (value + tail)),
            "estimate": "heuristic: power-law tail model, an upper estimate below t_nu"}


def cmd_stats(args) -> int:
    paths = sorted(Path(args.input_dir).glob("sample_*.json"))
    if not paths:
        raise _usage_error(args.cmd, f"no sample_*.json in --in {args.input_dir!r}")
    stored = [maps.CombMap.from_text(json.loads(path.read_text())["map"]) for path in paths]
    stats = sampler.collect_stats(stored, r_max=args.r_max)
    _emit(args, stats.to_json())
    return 0


def cmd_report(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(args.criteria)
    result = {
        "criteria": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
        "text": "\n".join(r.line() for r in results),
    }
    _emit(args, result)
    print("\n" + result["text"], file=sys.stderr)
    return 0 if result["all_passed"] else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="isingtri",
                                 description="Exact series, critical data and samplers "
                                             "for Ising-weighted random triangulations")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--output", help="write result JSON here (manifest alongside)")

    p = sub.add_parser("coeffs", help="coefficient tables from the series engines")
    p.add_argument("--nu", required=True)
    p.add_argument("--target", required=True, help=TARGETS["coeffs"])
    p.add_argument("--order", type=_count, required=True)
    p.add_argument("--out", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("oracle", help="brute-force coefficient tables")
    p.add_argument("--nu", required=True)
    p.add_argument("--target", required=True, help=TARGETS["oracle"])
    p.add_argument("--order", type=_count, required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--dump-maps", action="store_true")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="identity suites; nonzero exit on failure")
    p.add_argument("--nu", required=True)
    p.add_argument("--order", type=_count, default=15)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("critical", help="singularity location and regime")
    p.add_argument("--nu", required=True)
    p.add_argument("--width", default="1/1000000000000000000000000000000")
    common(p)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("spectral", help="branching mean matrix and Perron root")
    p.add_argument("--nu", required=True)
    p.add_argument("--order", type=_count, default=46)
    common(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("asymp", help="coefficient asymptotics estimation")
    p.add_argument("--nu", required=True)
    p.add_argument("--target", default="sphere", help=TARGETS["asymp"])
    p.add_argument("--order", type=_count, default=60)
    common(p)
    p.set_defaults(func=cmd_asymp)

    p = sub.add_parser("sample", help="random generation")
    modes = p.add_subparsers(dest="mode", required=True)
    for mode in ("exact", "mcmc", "boltzmann"):
        # each mode takes only the flags it reads, and no abbreviation: in a
        # mode without --n, --n must not stand for --nu
        m = modes.add_parser(mode, allow_abbrev=False)
        m.add_argument("--nu", required=True)
        if mode != "boltzmann":
            m.add_argument("--n", type=_count, default=1)
        if mode == "mcmc":
            m.add_argument("--steps", type=_count, default=100000)
        if mode == "boltzmann":
            m.add_argument("--t", default="t_nu")
            m.add_argument("--word", type=_word, default="++")
            m.add_argument("--series-order", type=_count, default=30)
        m.add_argument("--seed", type=int, required=True)
        m.add_argument("--reps", type=_count, default=1)
        m.add_argument("--r-max", type=_count, default=4)
        m.add_argument("--out", dest="output_dir", help="directory for per-sample JSON")
        common(m)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stats", help="recompute statistics from stored samples")
    p.add_argument("--in", dest="input_dir", required=True)
    p.add_argument("--r-max", type=_count, default=4)
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="acceptance-criteria summary")
    p.add_argument("--criteria", type=_criterion_ids, help="comma-separated ids, default all")
    common(p)
    p.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.t0 = time.time()
    try:
        return args.func(args)
    # the failures the commands raise (NotImplementedError is a RuntimeError):
    # a structured error and exit 1; a bug such as an AttributeError keeps its
    # traceback
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
