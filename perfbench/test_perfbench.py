"""Self-checks of the benchmark: its declared metrics, stored invariants and trace.

The trace checks run a few short commands untraced and traced, twice, and assert
that the layer self times plus the unwrapped remainder add up to the traced wall,
that every count repeats exactly, and that the overhead is reported per command.
"""

import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

SHORT_COMMANDS = [
    ["cohomology", "--n", "3", "--max-weight", "3"],
    ["associator", "--seed", "5", "--samples", "400000"],
    ["aw-test", "--seed", "5"],
]


def test_benchmark_json_declares_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["run_seconds"] == run.parse_args(["--workload", "mc-forms"]).seconds
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    layers = {name.rsplit(".", 1)[0] for name, _ in run.PER_LAYER if name.endswith(".self_s")}
    assert layers <= set(tracer.LAYERS)


def lyndon_dimension(n, w):
    """dim of weight w in t_n: the sum over k < n of the free Lie algebra on k letters."""
    def mobius(d):
        sign, p, m = 1, 2, d
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if m > 1 else sign

    return sum(sum(mobius(d) * k ** (w // d) for d in range(1, w + 1) if w % d == 0) // w
               for k in range(1, n))


def test_stored_invariants_match_independent_formulas():
    inv = json.loads((run.HERE / "invariants.json").read_text())
    for n, dims in inv["lyndon_dims"].items():
        for w, dim in dims.items():
            assert dim == lyndon_dimension(int(n), int(w))
    for key, size in inv["shuffle_tables"].items():
        m, n = map(int, key.split(","))
        assert size == comb(m + n, m)


def test_gate_rejects_a_wrong_dimension():
    inv = json.loads((run.HERE / "invariants.json").read_text())
    report = {"results": {"dimensions": {"1": {"0": 3}, "2": {"0": 2}},
                          "oracle": {"1": 3, "2": 1}},
              "checks": [{"name": "drinfeld_kohno_w2", "pass": True}]}
    problems = run.gate(["cohomology", "--n", "3", "--max-weight", "2"], report, inv)
    assert len(problems) == 1 and "w=2" in problems[0]


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    inv = json.loads((run.HERE / "invariants.json").read_text())
    runner = run.Runner(tmp_path_factory.mktemp("perfbench"), inv, time.perf_counter())
    runner.warm_up()
    for _ in range(2):
        for args in SHORT_COMMANDS:
            runner.execute(args)
            runner.execute(args, traced=True)
    return runner.executions


def test_traced_commands_pass_their_gate(traced_runs):
    for ex in traced_runs:
        assert ex["problems"] == [] and not ex["failed"], ex["args"]


def test_every_layer_and_cache_is_traced(traced_runs):
    for ex in traced_runs:
        if ex["traced"]:
            assert ex["spans"]["missing"] == [], ex["args"]


def test_a_function_that_cannot_be_wrapped_is_reported(tmp_path):
    code = ("import sys, tracer; "
            "tracer.LAYERS['graphs.differential'][1].append('no_such_function'); "
            "sys.exit(tracer.main(sys.argv[1:]))")
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (run.HERE, run.SRC))))
    subprocess.run([sys.executable, "-c", code, str(spans), "transport-test", "--trunc", "2",
                    "--out", "report.json"], cwd=tmp_path, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    assert json.loads(spans.read_text())["missing"] == ["graphs.no_such_function"]


def test_self_times_and_remainder_add_up_to_traced_wall(traced_runs):
    traced = [ex for ex in traced_runs if ex["traced"]]
    wall = sum(ex["wall_s"] for ex in traced)
    accounted = 0.0
    for ex in traced:
        spans = ex["spans"]
        self_times = [layer["self_s"] for layer in spans["layers"].values()]
        assert min(self_times) >= 0.0
        assert sum(self_times) == pytest.approx(spans["top_s"], rel=1e-6, abs=1e-6)
        accounted += sum(self_times) + spans["main_s"] - spans["top_s"] + spans["import_s"]
    assert abs(accounted - wall) <= 0.1 * wall


def test_counts_repeat_exactly(traced_runs):
    assert run.count_drift(traced_runs) == []
    values, _, _ = run.layer_values(traced_runs)
    assert values["graphs.canonicalize.calls"] > 0
    assert values["forms.gfe.calls"] > 0
    assert values["transport.kron.calls"] > 0


def test_overhead_is_reported_per_command(traced_runs):
    _, overhead, samples = run.layer_values(traced_runs)
    assert sorted(overhead) == sorted(args[0] for args in SHORT_COMMANDS)
    assert samples == 2
