"""Cold-CLI benchmark of braidcomplex.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run it from anywhere inside a source checkout; it finds ``src/`` next to its own
directory and builds nothing. Each command of a workload runs as a user runs it:
a fresh interpreter, so every invocation pays the cold imports and the empty
``lru_cache`` and canonical-form caches. Children run one at a time, with
OMP_NUM_THREADS and OPENBLAS_NUM_THREADS at 1, so the numbers measure the program
and not the scheduler. The children may write bytecode caches into the checkout,
so that every timed child starts like an installed command.

A pass runs every command of the workload once. Passes repeat until T seconds
have gone by, and at least twice, because the second pass is the determinism
probe: the same command and seed must write byte-identical reports. Every report
is checked against the invariants in ``invariants.json`` (see ``gate``).

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``, the
median wall of a fresh interpreter importing the CLI and every layer module
(SETUP_PER_PASS probes in every pass, spread between its commands); ``wall_s``,
one pass, as the sum over its command lines of their median walls;
``peak_rss_mb``, the largest max-RSS of a command in a pass (per-child rusage),
median over passes. The table also shows each command's median wall and
``failed_ratio``. With ``--trace 1`` each command runs untraced and then traced
(``tracer.py``), and the run reports the per-layer metrics, summed over the
workload's commands; ``trace.overhead_s`` is the traced minus the untraced wall
and ``trace.unwrapped_s`` the traced child's time outside every layer span.

Output: a table of every metric with its unit and sample count, then, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``attempted`` counts command executions; one fails if it exits non-zero, a check
in its report fails, an invariant mismatches, or its report differs from an
earlier one of the same command and seed. ``correct`` is false when an invariant
mismatches, a command crashes or a report is not reproducible; failed checks of
the sampling commands only count as failures (see KNOWN_FAILURES).

The default seed is 1. Seed 2027 is held out: use it to confirm a claimed gain
on a seed that was not used while the change was written.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction
from importlib import metadata
from pathlib import Path

from tracer import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
RUN_SECONDS = 30
MIN_PASSES = 2
# set-up probes per untraced pass, spread over the gaps before its commands
SETUP_PER_PASS = 16
# a run must end within LIMIT_S: no pass starts that could end after DEADLINE_S,
# and a child still running at CHILD_LIMIT_S is killed
LIMIT_S = 180
DEADLINE_S = LIMIT_S - 30
CHILD_LIMIT_S = LIMIT_S - 5

TRANSPORT_SEEDS = 5

IMPORT_ALL = "import " + ", ".join(f"braidcomplex.{m}" for m in MODULES)
CLI = "import sys; from braidcomplex.cli import main; sys.exit(main())"

WORKLOADS = {
    # canonical labeling and enumeration dominate; forms and transport do not run
    "graph-complex": lambda seed: [
        ["cohomology", "--n", "4", "--max-weight", "4"],
        ["div-check", "--n", "3", "--max-weight", "4"],
    ],
    # flatness: many short graph_form_eval calls on displaced copies of ten
    # configurations; associator: long sample streams on distinct configurations
    "mc-forms": lambda seed: [
        ["flatness", "--seed", str(seed), "--samples", "65536"],
        ["associator", "--seed", str(seed), "--samples", "4000000"],
    ],
    # kron and the simplicial products; report runs every exact section in one process.
    # The random twists make aw-test and report cost depend on the seed: over seeds
    # 1-10 one battery takes 2.7 to 4.0 s (interquartile range 22 % of the median),
    # which is input, not timing noise. So a pass runs the battery on
    # TRANSPORT_SEEDS seeds derived from the workload seed, and wall_s varies less
    # from one workload seed to the next.
    "transport-battery": lambda seed: [
        command
        for sub in range(TRANSPORT_SEEDS * seed, TRANSPORT_SEEDS * (seed + 1))
        for command in (
            ["aw-test", "--seed", str(sub)],
            ["transport-test", "--trunc", "3", "--seed", str(sub)],
            ["report", "--n", "3", "--max-weight", "3", "--seed", str(sub)],
        )
    ],
}

EXACT_COMMANDS = {"cohomology", "div-check", "aw-test", "transport-test", "report"}

KNOWN_FAILURES = {
    "flatness": "fails residual checks at most seeds, mostly the weight-1 bound "
                "res1 <= h*h (residuals 5e-4 to 1.1e-3 against h*h = 1e-4); "
                "counted in failed, not hidden",
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("graphs.canonicalize.calls", "count"),
    ("graphs.canonicalize.distinct", "count"),
    ("graphs.canonicalize.hit_ratio", "ratio"),
    ("graphs.canonicalize.self_s", "s"),
    ("graphs.enumerate.self_s", "s"),
    ("graphs.basis_graphs", "count"),
    ("graphs.differential.calls", "count"),
    ("graphs.differential.self_s", "s"),
    ("cohomology.assembly.self_s", "s"),
    ("cohomology.lru.hit_ratio", "ratio"),
    ("exact.elim.calls", "count"),
    ("exact.elim.self_s", "s"),
    ("exact.elim.input_nnz", "count"),
    ("exact.matmul.calls", "count"),
    ("exact.matmul.self_s", "s"),
    ("freelie.self_s", "s"),
    ("braids.self_s", "s"),
    ("forms.gfe.calls", "count"),
    ("forms.gfe.samples", "count"),
    ("forms.gfe.self_s", "s"),
    ("forms.samples_per_s", "1/s"),
    ("forms.driver.self_s", "s"),
    ("transport.kron.calls", "count"),
    ("transport.kron.out_nnz", "count"),
    ("transport.kron.self_s", "s"),
    ("transport.products.self_s", "s"),
    ("transport.projector.self_s", "s"),
    ("transport.aw_shuffle.self_s", "s"),
    ("transport.poly.self_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.report_bytes", "B"),
    ("trace.overhead_s", "s"),
    ("trace.unwrapped_s", "s"),
)


# ---------------------------------------------------------------------------
# correctness gate


def _flag(args, name, default=None):
    return args[args.index(name) + 1] if name in args else default


def _gate_cohomology(results, n, max_weight, inv):
    problems = []
    lyndon = inv["lyndon_dims"][str(n)]
    for w in range(1, max_weight + 1):
        dims = results["dimensions"].get(str(w), {})
        want = {"0": lyndon[str(w)]}
        got = {k: v for k, v in dims.items() if v or k == "0"}
        if got != want:
            problems.append(f"cohomology n={n} w={w}: {got} != Lyndon {want}")
        if results["oracle"].get(str(w)) != lyndon[str(w)]:
            problems.append(f"oracle n={n} w={w}: {results['oracle'].get(str(w))}")
    return problems


def _gate_div_check(results, n, max_weight, inv):
    stored = inv["div_check_blocks"][str(n)]
    want = {str(w): stored[str(w)] for w in range(2, max_weight + 1)}
    if results["blocks"] != want:
        return [f"div-check n={n}: blocks {results['blocks']} != {want}"]
    return []


def _gate_shuffles(results, inv):
    if results["shuffle_tables"] != inv["shuffle_tables"]:
        return [f"shuffle tables {results['shuffle_tables']}"]
    return []


def gate(args, report, inv):
    """Invariant mismatches of one report, as messages (empty when it holds)."""
    command, results = args[0], report["results"]
    problems = []
    if command in EXACT_COMMANDS:
        problems += [f"check {c['name']} failed" for c in report["checks"] if not c["pass"]]
    n = int(_flag(args, "--n", 3))
    max_weight = int(_flag(args, "--max-weight", 2))
    if command == "cohomology":
        problems += _gate_cohomology(results, n, max_weight, inv)
    elif command == "div-check":
        problems += _gate_div_check(results, n, max_weight, inv)
    elif command == "aw-test":
        problems += _gate_shuffles(results, inv)
    elif command == "report":
        problems += _gate_cohomology(results["cohomology"], n, max_weight, inv)
        problems += _gate_div_check(results["div-check"], n, max_weight, inv)
        problems += _gate_shuffles(results["aw-test"], inv)
    elif command == "associator":
        target = float(Fraction(inv["associator"]["magnitude"]))
        coeff = results["weights"]["2"]["coeff"]
        if not abs(abs(coeff) - target) < inv["associator"]["tolerance"]:
            problems.append(f"associator |c| = {abs(coeff)} not within "
                            f"{inv['associator']['tolerance']} of {target}")
    elif command == "flatness":
        shape = {"configurations": len(results["configurations"]),
                 "checks": len(report["checks"])}
        if shape != inv["flatness"]:
            problems.append(f"flatness report shape {shape} != {inv['flatness']}")
    return problems


# ---------------------------------------------------------------------------
# running children


class Runner:
    """Runs CLI children one at a time in a scratch directory of the checkout."""

    def __init__(self, out_dir, inv, started):
        self.out_dir = out_dir
        self.inv = inv
        self.started = started
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.env["OMP_NUM_THREADS"] = "1"
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.first_report = {}
        self.executions = []

    def spawn(self, argv):
        """Run one child to completion; returns (wall seconds, max RSS in MB, exit code)."""
        timeout = max(1.0, CHILD_LIMIT_S - (time.perf_counter() - self.started))
        with open(self.out_dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.out_dir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def stderr_tail(self):
        text = (self.out_dir / "stderr.txt").read_text(errors="replace")
        return text.strip().splitlines()[-5:]

    def execute(self, args, traced=False):
        """Run one CLI command, check its report and record the execution."""
        out = f"{args[0]}.json"
        report_path = self.out_dir / out
        spans_path = self.out_dir / "spans.json"
        for path in (report_path, spans_path):
            if path.exists():
                path.unlink()
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *args, "--out", out]
        else:
            argv = [sys.executable, "-c", CLI, *args, "--out", out]
        wall, rss, code = self.spawn(argv)
        ex = {"args": args, "traced": traced, "wall_s": wall, "rss_mb": rss, "code": code,
              "problems": [], "failed_checks": [], "spans": None, "bytes": 0}
        if code not in (0, 1):
            ex["problems"].append(f"exit code {code}; stderr: {self.stderr_tail()}")
        try:
            data = report_path.read_bytes()
            report = json.loads(data)
            ex["failed_checks"] = [c["name"] for c in report["checks"] if not c["pass"]]
            ex["problems"] += gate(args, report, self.inv)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ex["problems"].append(f"report missing or lacking a field: {exc!r}")
        else:
            ex["bytes"] = len(data)
            first = self.first_report.setdefault(tuple(args), data)
            if data != first:
                ex["problems"].append("report differs from an earlier run with the same seed")
        if traced:
            try:
                ex["spans"] = json.loads(spans_path.read_text())
            except (OSError, ValueError) as exc:
                ex["problems"].append(f"no trace: {exc}")
            else:
                # an unwrapped layer would read as a layer that costs nothing
                ex["problems"] += [f"not traced: {m}" for m in ex["spans"]["missing"]]
        ex["failed"] = bool(code or ex["failed_checks"] or ex["problems"])
        self.executions.append(ex)
        return ex

    def probe_setup(self):
        """Wall of a fresh interpreter importing the CLI and every layer module."""
        wall, _, code = self.spawn([sys.executable, "-c", IMPORT_ALL])
        if code:
            raise RuntimeError(f"cannot import braidcomplex: {self.stderr_tail()}")
        return wall

    def warm_up(self):
        """Import everything once, untimed, so bytecode caches exist before timing."""
        self.probe_setup()

    def time_left_for(self, pass_s):
        return time.perf_counter() - self.started + pass_s <= DEADLINE_S


def run_passes(runner, commands, seconds, traced):
    """Repeat passes over the commands until `seconds` have gone by.

    Untraced passes also take SETUP_PER_PASS set-up probes, spread round-robin
    over the gaps before the pass's commands, so that the set-up samples span
    the whole run. Returns (passes, set-up walls).
    """
    start = time.perf_counter()
    passes = []
    setup = []
    longest = 0.0
    minimum = 1 if traced else MIN_PASSES
    probes = [0 if traced else len(range(i, SETUP_PER_PASS, len(commands)))
              for i in range(len(commands))]
    while True:
        t0 = time.perf_counter()
        # in traced runs, alternate which of the two executions of a command goes first
        order = ((False, True) if len(passes) % 2 == 0 else (True, False)) if traced else (False,)
        one = []
        for args, n_probes in zip(commands, probes):
            setup += [runner.probe_setup() for _ in range(n_probes)]
            one += [runner.execute(args, traced=t) for t in order]
        passes.append(one)
        longest = max(longest, time.perf_counter() - t0)
        done = len(passes) >= minimum and time.perf_counter() - start >= seconds
        if done or not runner.time_left_for(longest):
            return passes, setup


# ---------------------------------------------------------------------------
# metrics


def metric_name(command):
    return command.replace("-", "_") + "_s"


def end_to_end(passes, setup_times):
    """{name: (value, unit, samples)} for an untraced run.

    Each distinct command line gets the median of its walls; a command's metric
    and wall_s sum those medians, so one slow execution moves them no more than
    it moves one median.
    """
    walls = defaultdict(list)
    for p in passes:
        for ex in p:
            walls[tuple(ex["args"])].append(ex["wall_s"])
    medians = {args: statistics.median(times) for args, times in walls.items()}
    rss = [max(ex["rss_mb"] for ex in p) for p in passes]
    out = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (sum(medians.values()), "s", len(passes)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
    }
    for args, median in medians.items():
        name = metric_name(args[0])
        value, unit, samples = out.get(name, (0.0, "s", 0))
        out[name] = (value + median, unit, samples + len(walls[args]))
    return out


def layer_values(executions):
    """Per-layer totals over the workload's command lines, each a median over repeats.

    Returns (totals, traced minus untraced wall per command, repeats).
    """
    by_args = defaultdict(lambda: {"spans": [], "traced": [], "untraced": [], "bytes": 0})
    for ex in executions:
        entry = by_args[tuple(ex["args"])]
        entry["bytes"] = max(entry["bytes"], ex["bytes"])
        if not ex["traced"]:
            entry["untraced"].append(ex["wall_s"])
        elif ex["spans"] is not None:
            entry["spans"].append(ex["spans"])
            entry["traced"].append(ex["wall_s"])

    total = defaultdict(float)
    overhead = defaultdict(float)
    samples = 0
    for args, entry in by_args.items():
        spans = entry["spans"]
        if not spans or not entry["untraced"]:
            continue
        samples = max(samples, len(spans))

        def med(get):
            return statistics.median(get(s) for s in spans)

        for layer, fields in spans[0]["layers"].items():
            for key in fields:
                total[f"{layer}.{key}"] += med(lambda s: s["layers"][layer][key])
        total["graphs.basis_graphs"] += med(lambda s: s["basis_graphs"])
        total["lru.hits"] += med(lambda s: s["lru"]["hits"])
        total["lru.misses"] += med(lambda s: s["lru"]["misses"])
        total["trace.unwrapped_s"] += med(lambda s: s["main_s"] - s["top_s"] + s["import_s"])
        traced = statistics.median(entry["traced"])
        total["trace.wall_s"] += traced
        overhead[args[0]] += traced - statistics.median(entry["untraced"])
        total["cli.report_bytes"] += entry["bytes"]
    total["trace.overhead_s"] = sum(overhead.values())

    canon_calls = total["graphs.canonicalize.calls"]
    total["graphs.canonicalize.hit_ratio"] = (
        (canon_calls - total["graphs.canonicalize.distinct"]) / canon_calls if canon_calls else 0.0)
    lookups = total["lru.hits"] + total["lru.misses"]
    total["cohomology.lru.hit_ratio"] = total["lru.hits"] / lookups if lookups else 0.0
    gfe_s = total["forms.gfe.self_s"]
    total["forms.samples_per_s"] = total["forms.gfe.samples"] / gfe_s if gfe_s else 0.0
    total["trace.layer_self_s"] = sum(v for k, v in total.items() if k.endswith(".self_s"))
    return dict(total), dict(overhead), samples


def count_drift(executions):
    """Names of span counts that differ between traced repeats of one command."""
    seen = {}
    drift = set()
    for ex in executions:
        if not ex["spans"]:
            continue
        counts = {f"{layer}.{key}": v for layer, fields in ex["spans"]["layers"].items()
                  for key, v in fields.items() if key != "self_s"}
        counts["graphs.basis_graphs"] = ex["spans"]["basis_graphs"]
        first = seen.setdefault(tuple(ex["args"]), counts)
        drift.update(k for k in counts if counts[k] != first.get(k))
    return sorted(drift)


# ---------------------------------------------------------------------------
# entry point


def environment():
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "children": "one at a time"}


def _number(value, unit):
    """Counts print as integers; medians of equal counts are whole."""
    return int(value) if unit in ("count", "B") and value == int(value) else value


def print_table(rows):
    print(f"{'metric':<36} {'value':>16} {'unit':<6} samples")
    for name, (value, unit, samples) in rows.items():
        print(f"{name:<36} {value:>16.6g} {unit:<6} {samples}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "braidcomplex" / "cli.py").is_file():
        print(f"perfbench: no braidcomplex sources under {SRC}", file=sys.stderr)
        return 2
    inv = json.loads((HERE / "invariants.json").read_text())
    out_dir = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(out_dir, inv, started)
        commands = WORKLOADS[args.workload](args.seed)
        runner.warm_up()
        passes, setup_times = run_passes(runner, commands, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    executions = runner.executions
    attempted = len(executions)
    failed = sum(ex["failed"] for ex in executions)
    correct = not any(ex["problems"] for ex in executions)

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={len(passes)}")
    print("# env " + " ".join(f"{k}={v!r}" if " " in str(v) else f"{k}={v}"
                              for k, v in environment().items()))
    for command, why in KNOWN_FAILURES.items():
        if any(ex["args"][0] == command for ex in executions):
            print(f"# known failure: {command} {why}")
    problems = sorted({p for ex in executions for p in ex["problems"]})
    for p in problems:
        print(f"# problem: {p}")
    failed_checks = {" ".join(ex["args"]): ex["failed_checks"] for ex in executions}
    for command, names in failed_checks.items():
        if names:
            print(f"# failed checks ({command}): {', '.join(names)}")

    if args.trace:
        values, overhead, samples = layer_values(executions)
        for name in count_drift(executions):
            print(f"# count drift between repeats: {name}")
        generators = sorted({g for ex in executions if ex["spans"]
                             for g in ex["spans"]["generators"]})
        if generators:
            print(f"# generators left unwrapped: {', '.join(generators)}")
        rows = {name: (values.get(name, 0.0), unit, samples) for name, unit in PER_LAYER}
        extra = {f"trace.overhead_s[{c}]": (v, "s", samples) for c, v in overhead.items()}
        extra["trace.wall_s"] = (values.get("trace.wall_s", 0.0), "s", samples)
        extra["trace.layer_self_s"] = (values.get("trace.layer_self_s", 0.0), "s", samples)
        print_table({**rows, **extra})
        accounted = values.get("trace.layer_self_s", 0.0) + values.get("trace.unwrapped_s", 0.0)
        traced_wall = values.get("trace.wall_s", 0.0)
        if traced_wall:
            print(f"# self-check: layer self + unwrapped = {accounted:.4f} s of "
                  f"{traced_wall:.4f} s traced wall ({accounted / traced_wall:.1%})")
        metrics = {name: {"value": _number(rows[name][0], unit), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        rows = end_to_end(passes, setup_times)
        rows["failed_ratio"] = (failed / attempted, "ratio", attempted)
        print_table(rows)
        metrics = {name: {"value": rows[name][0], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
