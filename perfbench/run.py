"""Run one divkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 20 --trace 0

Run it from the root of a divkit checkout; the program measured is that
checkout's ``src/divkit``.  One client runs items in a closed loop for
``--seconds`` seconds: the next item starts when the previous one ends.
Each item's outputs are checked outside the timed region.  An item fails
its check when it raises, returns NaN or misses its contract tolerance;
the ``fail_ratio`` metric counts every such item.  The seed program has
known defects (``workloads.KNOWN_FAILURES``) that the workloads reach on
purpose, so that ``fail_ratio`` shows them and drops when they are fixed.
The result line's ``failed`` counts the items with a failure outside that
table, a regression, and ``correct`` is false when there is one; the info
line gives the count of items that failed only known checks.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: ``setup_s`` is the median time from starting a fresh
interpreter to the end of the program's set-up (import, and the CLI parser
on cli-calls); ``items_per_s`` is items per second of timed item time.
With ``--trace 1`` it holds the per-layer metrics, measured by running every
item twice, untraced and traced, and writing the spans to
``.perfbench_out/``.  The line before it carries the run's provenance: an
input digest, the Python version, CPU count and model, the commit, a
digest of ``src/divkit``, and the timings before scaling.

Every reported time is scaled to a reference host speed.  The speed of a
shared virtual machine drifts by a third within minutes, and a fixed
computation, timed between items, tracks that drift: each wall time is
multiplied by ``REFERENCE_NS`` over the fixed computation's current time
(see ``HostSpeed``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter, deque

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("certify-small", "represent-small", "reconstruct-large", "cli-calls")
SETUP_PROBES = 15  # set-ups per run; setup_s is their median
DIGEST_ITEMS = 64  # the input digest covers this many leading items
SPAN_ITEMS = 500  # the spans file holds this many leading items
TAIL_BEYOND = 10  # item_tail_ms has this many samples above it
REFERENCE_NS = 1_000_000  # scaled times read as if reference_ns() took 1 ms

LAYERS = (
    "distributions",
    "spectrum_repr",
    "divergences",
    "bounds",
    "generators",
    "local",
    "bayes_poisson",
    "cli",
)
ENGINES = (
    "represent_named",
    "represent_general",
    "represent_inverse_g",
    "represent_degroot_weight",
)
CLI_SUBCOMMANDS = ("div", "represent", "spectrum", "bounds", "figure1", "poisson", "local", "selftest")
POISSON_DECADES = (2, 3, 4, 5)

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for layer in LAYERS:
        out += [
            (f"{layer}.calls", "count", "higher"),
            (f"{layer}.busy_s", "s", "lower"),
            (f"{layer}.fails", "count", "lower"),
        ]
    out += [
        ("distributions.spectrum.n1e3.p50_ms", "ms", "lower"),
        ("distributions.spectrum.n1e4.p50_ms", "ms", "lower"),
        ("distributions.spectrum.scale_10x", "ratio", "lower"),
        ("distributions.make_distribution.busy_s", "s", "lower"),
        ("distributions.g_big.busy_s", "s", "lower"),
    ]
    for engine in ENGINES:
        out += [
            (f"spectrum_repr.{engine}.busy_s", "s", "lower"),
            (f"spectrum_repr.{engine}.p50_ms", "ms", "lower"),
            (f"spectrum_repr.{engine}.max_rel_err", "ratio", "lower"),
        ]
    out += [
        ("spectrum_repr.represent_degroot_weight.scale_10x", "ratio", "lower"),
        ("spectrum_repr.spectrum_identity.max_abs_err", "ratio", "lower"),
        ("spectrum_repr.spectrum_from_egamma.p50_ms", "ms", "lower"),
        ("spectrum_repr.spectrum_from_degroot.p50_ms", "ms", "lower"),
        ("divergences.divergence.busy_s", "s", "lower"),
        ("divergences.f_divergence.busy_s", "s", "lower"),
        ("divergences.renyi.busy_s", "s", "lower"),
        ("divergences.negative_results", "count", "lower"),
        ("bounds.min_slack", "ratio", "higher"),
        ("local.local_limit_estimate.busy_s", "s", "lower"),
        ("local.max_residual", "ratio", "lower"),
    ]
    out += [(f"bayes_poisson.poisson_degroot_exact.rate1e{d}.ms", "ms", "lower") for d in POISSON_DECADES]
    out += [
        ("bayes_poisson.poisson_bound_report.busy_s", "s", "lower"),
        ("bayes_poisson.negative_results", "count", "lower"),
        ("cli.interpreter_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
    ]
    out += [(f"cli.{sub}.p50_ms", "ms", "lower") for sub in CLI_SUBCOMMANDS]
    out += [
        ("cli.exit1_count", "count", "lower"),
        ("cli.exit2_count", "count", "higher"),
        ("bench.self_s", "s", "lower"),
        ("bench.trace_overhead", "ratio", "lower"),
    ]
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small alphabets and rates, for the benchmark's own tests"
    )
    return parser.parse_args(argv)


# -- host speed --------------------------------------------------------------


_REFERENCE_DATA = [((i * 7919) % 10007) / 10007.0 for i in range(10_000)]


def reference_ns() -> float:
    """Wall time of a fixed computation: the geometric mean of about 1 ms
    of interpreted list, call and float work and about 2 ms of C loops
    over a 10^4-element list.  The first tracks pure-Python items, the
    second the large-n items and the CLI children; the mean tracks both."""
    start = time.perf_counter_ns()
    math.fsum([math.log(1.0 + i * 1e-3) for i in range(4000)])
    mid = time.perf_counter_ns()
    sorted(_REFERENCE_DATA)
    sum(_REFERENCE_DATA)
    list(map(math.log1p, _REFERENCE_DATA))
    return math.sqrt((mid - start) * (time.perf_counter_ns() - mid))


class HostSpeed:
    """Scale factor for wall times: REFERENCE_NS over the median of the
    last five reference_ns() samples, one taken every 0.2 s at most after
    five taken at the start."""

    def __init__(self):
        self.recent = deque((reference_ns() for _ in range(5)), maxlen=5)
        self.due = time.perf_counter() + 0.2

    def factor(self) -> float:
        now = time.perf_counter()
        if now >= self.due:
            self.recent.append(reference_ns())
            self.due = now + 0.2
        return REFERENCE_NS / statistics.median(self.recent)


# -- set-up ------------------------------------------------------------------


def spawn_seconds(code: str, probes: int, speed: HostSpeed) -> list:
    """Scaled times from starting ``python -c code`` to its first output
    line, and the unscaled ones."""
    times, raw = [], []
    for _ in range(probes):
        factor = speed.factor()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT
        )
        with proc.stdout:
            line = proc.stdout.readline()
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * factor)
        proc.wait()
        if line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {code!r}")
    return times, raw


def probe_code(imports: str) -> str:
    return f"import sys; sys.path.insert(0, {SRC!r}); {imports}; print('ready', flush=True)"


# The program's set-up on each workload: interpreter start and import for
# the library workloads; for cli-calls also the CLI module and its parser.
SETUP_CODE = {
    "cli-calls": probe_code("import divkit.cli; divkit.cli.build_parser()"),
}
IMPORT_CODE = probe_code("import divkit")
INTERPRETER_CODE = "print('ready', flush=True)"


# -- the timed loop ----------------------------------------------------------


def failure_code(exc: BaseException, cli: bool) -> str:
    """``<module>.raised.<type>`` for the divkit module the call entered."""
    layer = "cli" if cli else "bench"
    for frame in traceback.extract_tb(exc.__traceback__):
        parts = frame.filename.split(os.sep)
        if len(parts) >= 2 and parts[-2] == "divkit":
            layer = parts[-1].removesuffix(".py")
            break
    return f"{layer}.raised.{type(exc).__name__}"


def timed(item, call):
    start = time.perf_counter_ns()
    try:
        out, exc = item.run(call), None
    except Exception as e:  # a failed item; the check records it
        out, exc = None, e
    return out, exc, start, time.perf_counter_ns()


class Records:
    """Per-item results in flat arrays, so that memory does not grow with
    throughput; failure codes are only counted."""

    def __init__(self, max_units=math.inf):
        self.max_units = max_units  # whole units the end-to-end metrics count
        self.size = array("d")
        self.latency_ns = array("q")
        self.factor = array("d")  # host speed factor when the item ran
        self.failed = array("b")  # the item failed any check
        self.unexpected = array("b")  # ... one outside KNOWN_FAILURES
        self.codes = Counter()
        self.complete = 0  # items that make whole schedule units
        self.units = 0

    def __len__(self) -> int:
        return len(self.latency_ns)

    def add(self, size, latency_ns, factor, fails, ends_unit, is_known) -> None:
        self.size.append(size)
        self.latency_ns.append(latency_ns)
        self.factor.append(factor)
        self.failed.append(bool(fails))
        self.unexpected.append(not all(is_known(c) for c in fails))
        self.codes.update(fails)
        if ends_unit:
            self.units += 1
            if self.units <= self.max_units:
                self.complete = len(self)


def run_loop(stream, seconds, tracer, stats, cli, digest, speed, max_units=math.inf):
    """Run items until ``seconds`` pass.  Return their Records, the input
    digest, and the untraced and traced time of items run both ways."""
    from spans import plain_call
    from workloads import is_known

    records = Records(max_units)
    plain_ns = traced_ns = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        item = next(stream)
        factor = speed.factor()
        if len(records) < DIGEST_ITEMS:
            digest.update(repr((item.label, item.size, item.data)).encode())
        if tracer is None:
            out, exc, start, end = timed(item, plain_call)
        else:
            tracer.begin_item(len(records))
            plain_first = len(records) % 2 == 0
            if plain_first:
                plain = timed(item, plain_call)
            out, exc, start, end = timed(item, tracer.call)
            if not plain_first:
                plain = timed(item, plain_call)
            tracer.end_item(item.label, start, end, exc is None)
            plain_ns += plain[3] - plain[2]
            traced_ns += end - start
        fails = [failure_code(exc, cli)] if exc is not None else item.check(out, stats)
        records.add(item.size, end - start, factor, fails, item.ends_unit, is_known)
    return records, digest.hexdigest(), plain_ns, traced_ns


# -- metrics -----------------------------------------------------------------


def tail(latencies):
    """Latency with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _timings(lat, setup_times):
    tail_ns, tail_pct = tail(lat)
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(lat) / (sum(lat) * 1e-9),
        "item_p50_ms": statistics.median(lat) * 1e-6,
        "item_tail_ms": tail_ns * 1e-6,
    }, tail_pct


def end_to_end(workload, records, n, setup_times, raw_setup_times):
    """End-to-end metrics over the first ``n`` items."""
    # read the peak before the lists below, which grow with throughput
    who = resource.RUSAGE_CHILDREN if workload == "cli-calls" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    lat, factor = records.latency_ns[:n], records.factor[:n]
    metrics, tail_pct = _timings([t * f for t, f in zip(lat, factor)], setup_times)
    raw, _ = _timings(lat, raw_setup_times)
    metrics["fail_ratio"] = sum(records.failed[:n]) / n
    metrics["peak_rss_mb"] = peak_rss_mb
    info = {
        "tail_percentile": round(tail_pct, 3),
        "tail_samples_beyond": min(TAIL_BEYOND, n - 1),
        "unscaled": raw,
        "host_speed_factor": statistics.median(factor),
    }
    return metrics, info


def _p50_ms(durations):
    return statistics.median(durations) * 1e-6 if durations else 0.0


def _scale_10x(points):
    """Cost ratio for a tenfold n, from the least-squares slope of
    log(duration) against log(n); 0 without two distinct sizes."""
    xs = [math.log(n) for n, _ in points]
    if len(set(xs)) < 2:
        return 0.0
    ys = [math.log(max(d, 1)) for _, d in points]
    return 10.0 ** statistics.linear_regression(xs, ys).slope


def per_layer(records, tracer, stats, probes, plain_ns, traced_ns):
    layer_ns = {}  # layer -> [ns]
    durations = {}  # call name -> [(item size, ns)]
    item_ns = child_ns = 0
    for item, name, start, end, _ in tracer.spans():
        ns = (end - start) * records.factor[item]
        if name.startswith("item."):
            item_ns += ns
            continue
        child_ns += ns
        durations.setdefault(name, []).append((records.size[item], ns))
    for name, points in durations.items():
        layer_ns.setdefault(name.split(".")[0], []).extend(d for _, d in points)

    def busy(name):
        return math.fsum(d for _, d in durations.get(name, ())) * 1e-9

    def p50(name, size=None):
        return _p50_ms([d for n, d in durations.get(name, ()) if size is None or n == size])

    m = {}
    fails = Counter()
    for code, k in records.codes.items():
        fails[code.split(".")[0]] += k
    for layer in LAYERS:
        m[f"{layer}.calls"] = len(layer_ns.get(layer, ()))
        m[f"{layer}.busy_s"] = math.fsum(layer_ns.get(layer, ())) * 1e-9
        m[f"{layer}.fails"] = fails.get(layer, 0)

    spectrum_sizes = sorted({n for n, _ in durations.get("distributions.spectrum", ())})
    small = p50("distributions.spectrum", spectrum_sizes[0]) if spectrum_sizes else 0.0
    large = p50("distributions.spectrum", spectrum_sizes[-1]) if len(spectrum_sizes) > 1 else 0.0
    m["distributions.spectrum.n1e3.p50_ms"] = small
    m["distributions.spectrum.n1e4.p50_ms"] = large
    m["distributions.spectrum.scale_10x"] = large / small if small and large else 0.0
    m["distributions.make_distribution.busy_s"] = busy("distributions.make_distribution")
    m["distributions.g_big.busy_s"] = busy("distributions.g_big")
    for engine in ENGINES:
        name = "spectrum_repr." + engine
        m[name + ".busy_s"] = busy(name)
        m[name + ".p50_ms"] = p50(name)
        m[name + ".max_rel_err"] = stats.get(name + ".max_rel_err", 0.0)
    m["spectrum_repr.represent_degroot_weight.scale_10x"] = _scale_10x(
        durations.get("spectrum_repr.represent_degroot_weight", ())
    )
    m["spectrum_repr.spectrum_identity.max_abs_err"] = stats.get(
        "spectrum_repr.spectrum_identity.max_abs_err", 0.0
    )
    m["spectrum_repr.spectrum_from_egamma.p50_ms"] = p50("spectrum_repr.spectrum_from_egamma")
    m["spectrum_repr.spectrum_from_degroot.p50_ms"] = p50("spectrum_repr.spectrum_from_degroot")
    for fn in ("divergence", "f_divergence", "renyi"):
        m[f"divergences.{fn}.busy_s"] = busy("divergences." + fn)
    m["divergences.negative_results"] = stats.get("divergences.negative_results", 0)
    m["bounds.min_slack"] = stats.get("bounds.min_slack", 0.0)
    m["local.local_limit_estimate.busy_s"] = busy("local.local_limit_estimate")
    m["local.max_residual"] = stats.get("local.max_residual", 0.0)
    exact = durations.get("bayes_poisson.poisson_degroot_exact", ())
    for decade in POISSON_DECADES:
        m[f"bayes_poisson.poisson_degroot_exact.rate1e{decade}.ms"] = _p50_ms(
            [d for n, d in exact if math.floor(math.log10(n)) == decade]
        )
    m["bayes_poisson.poisson_bound_report.busy_s"] = busy("bayes_poisson.poisson_bound_report")
    m["bayes_poisson.negative_results"] = stats.get("bayes_poisson.negative_results", 0)
    m["cli.interpreter_ms"] = statistics.median(probes["interpreter"]) * 1e3
    m["cli.import_ms"] = (statistics.median(probes["import"]) - statistics.median(probes["interpreter"])) * 1e3
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.p50_ms"] = p50("cli." + sub)
    m["cli.exit1_count"] = stats.get("cli.exit1_count", 0)
    m["cli.exit2_count"] = stats.get("cli.exit2_count", 0)
    m["bench.self_s"] = (item_ns - child_ns) * 1e-9
    m["bench.trace_overhead"] = traced_ns / plain_ns - 1.0 if plain_ns else 0.0
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    return {name: {"value": m[name], "unit": units[name]} for name, _, _ in per_layer_metrics()}


# -- provenance --------------------------------------------------------------


def provenance():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "divkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_digest": src.hexdigest()[:16],
    }


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "divkit", "__init__.py")):
        print("perfbench: no src/divkit here; run from the root of a divkit checkout", file=sys.stderr)
        return 2
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import divkit
    import workloads
    from spans import Tracer

    if os.path.dirname(os.path.abspath(divkit.__file__)) != os.path.join(SRC, "divkit"):
        print(f"perfbench: imported divkit from {divkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cli = args.workload == "cli-calls"
    inputs = None
    digest = hashlib.sha256()
    if cli:
        inputs_dir = os.path.join(OUT_DIR, f"cli-inputs-seed{args.seed}")
        inputs = workloads.CliInputs(args.seed, inputs_dir)
        stream = workloads.cli_calls(args.seed, args.tiny, inputs, SRC)
        digest.update(repr(sorted(inputs.weights.items())).encode())
    else:
        make = {
            "certify-small": workloads.certify_small,
            "represent-small": workloads.represent_small,
            "reconstruct-large": workloads.reconstruct_large,
        }[args.workload]
        stream = make(args.seed, args.tiny)

    probes_n = 3 if args.tiny else SETUP_PROBES
    speed = HostSpeed()
    try:
        if args.trace:
            probes = {
                "interpreter": spawn_seconds(INTERPRETER_CODE, probes_n, speed)[0],
                "import": spawn_seconds(IMPORT_CODE, probes_n, speed)[0],
            }
        else:
            setup_times, raw_setup_times = spawn_seconds(
                SETUP_CODE.get(args.workload, IMPORT_CODE), probes_n, speed
            )
        stats = workloads.Stats()
        tracer = Tracer() if args.trace else None
        records, input_digest, plain_ns, traced_ns = run_loop(
            stream, args.seconds, tracer, stats, cli, digest, speed,
            workloads.MEASURED_UNITS.get(args.workload, math.inf),
        )
    finally:
        if inputs is not None:
            inputs.remove()

    unexpected = sorted(c for c in records.codes if not workloads.is_known(c))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "input_digest": input_digest[:16],
        "digest_items": min(DIGEST_ITEMS, len(records)),
        **provenance(),
        "failure_counts": dict(sorted(records.codes.items())),
        "unexpected_failures": unexpected,
    }
    n = len(records)
    if not args.trace:
        n = records.complete or n
    info["known_failure_items"] = sum(records.failed[:n]) - sum(records.unexpected[:n])
    if args.trace:
        metrics = per_layer(records, tracer, stats.values, probes, plain_ns, traced_ns)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.write_csv(spans_path, SPAN_ITEMS)
        info["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        e2e, tail_info = end_to_end(args.workload, records, n, setup_times, raw_setup_times)
        info.update(tail_info)
        units = dict(END_TO_END)
        metrics = {name: {"value": e2e[name], "unit": units[name]} for name, _ in END_TO_END}
    print(json.dumps({"info": info}))
    result = {
        "correct": not unexpected,
        "attempted": n,
        "failed": sum(records.unexpected[:n]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
