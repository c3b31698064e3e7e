"""End-to-end checks of the command line front end and its report files."""

import json
import os
import subprocess
import sys

import pytest

from braidcomplex import cli


def run(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestExactCommands:
    def test_enumerate_single_edge(self, tmp_path):
        code, rep = run(tmp_path, ["enumerate", "--n", "2", "--weight", "1"])
        assert code == 0
        assert rep["command"] == "enumerate"
        assert rep["results"]["count"] == 1
        assert rep["checks"] == []

    def test_cohomology_matches_oracle(self, tmp_path):
        code, rep = run(tmp_path, ["cohomology", "--n", "3", "--max-weight", "2"])
        assert code == 0
        assert all(c["pass"] for c in rep["checks"])
        assert rep["results"]["dimensions"]["1"]["0"] == 3
        assert rep["results"]["dimensions"]["2"]["0"] == 1
        assert rep["results"]["oracle"] == {"1": 3, "2": 1}
        names = {c["name"] for c in rep["checks"]}
        assert "d_squared_w2" in names and "drinfeld_kohno_w1" in names

    def test_sder_dimensions(self, tmp_path):
        code, rep = run(tmp_path, ["sder", "--n", "3", "--max-weight", "2"])
        assert code == 0
        assert all(c["pass"] for c in rep["checks"])
        assert rep["results"]["tree_h0"]["2"]["dimension"] == \
            rep["results"]["tree_h0"]["2"]["sder_oracle"]

    def test_div_check_global_sign(self, tmp_path):
        # w=2 traces all vanish, so the sign is only pinned at w=3
        code, rep = run(tmp_path, ["div-check", "--n", "3", "--max-weight", "3"])
        assert code == 0
        block = rep["results"]["blocks"]["3"]
        assert block["global_sign"] in (1, -1)
        assert all(s == block["global_sign"] or s is None
                   for s in block["per_class_signs"])

    def test_aw_test(self, tmp_path):
        code, rep = run(tmp_path, ["aw-test"])
        assert code == 0
        names = {c["name"] for c in rep["checks"]}
        assert names == {"shuffle_lemma_3_3", "aw_sh_normalized_identity",
                         "monoidal_identity"}
        assert all(c["pass"] for c in rep["checks"])

    def test_transport_test(self, tmp_path):
        code, rep = run(tmp_path, ["transport-test"])
        assert code == 0
        names = {c["name"] for c in rep["checks"]}
        assert {"k_chain_map_dim1", "t_faces_dim2", "holonomy_ode",
                "psi_boundary_dim2"} <= names
        assert all(c["pass"] for c in rep["checks"])

    def test_report_aggregates_sections(self, tmp_path):
        code, rep = run(tmp_path, ["report", "--n", "3", "--max-weight", "2"])
        assert code == 0
        assert all(c["pass"] for c in rep["checks"])
        prefixes = {c["name"].split(":")[0] for c in rep["checks"]}
        assert {"cohomology", "sder", "div-check", "aw-test",
                "transport-test"} <= prefixes
        assert "enumerate" in rep["results"]

    def test_exact_command_does_not_import_numpy(self, tmp_path):
        # numpy's import is most of a cold exact command's start-up time
        probe = (
            "import sys\n"
            "from braidcomplex import cli\n"
            "code = cli.main(['enumerate', '--n', '2', '--weight', '2', '--out', sys.argv[1]])\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "e.json")],
                              capture_output=True, text=True, env=env, check=True)
        assert done.stdout.splitlines()[-1] == "0 False"


class TestNumericCommands:
    def test_associator_small_run(self, tmp_path):
        code, rep = run(tmp_path, ["associator", "--seed", "42",
                                   "--samples", "200000"])
        assert code == 0
        w2 = rep["results"]["weights"]["2"]
        assert w2["basis"] == "[t13,t23]"
        assert abs(abs(w2["coeff"]) - 1 / 24) < 5e-3
        assert w2["stderr"] > 0
        assert rep["results"]["weights"]["1"] == [0.0, 0.0, 0.0]
        assert rep["results"]["hexagon"]["orientation"] in ("as-is", "flipped")

    def test_flatness_failure_is_reported_honestly(self, tmp_path):
        # starved sampling budget: checks must fail rather than pass quietly
        with pytest.warns(UserWarning):
            code, rep = run(tmp_path, ["flatness", "--seed", "3",
                                       "--samples", "4096"])
        assert code in (0, 1)
        for c in rep["checks"]:
            assert set(c) == {"name", "pass", "detail"}
        budgets = [cfg["budget"] for cfg in rep["results"]["configurations"]]
        assert len(budgets) == 10 and all(b > 0 for b in budgets)

    def test_seed_is_mandatory(self, tmp_path, capsys):
        code, rep = run(tmp_path, ["associator", "--samples", "1000"])
        assert code == 2 and rep is None
        assert "--seed" in capsys.readouterr().err
        code, rep = run(tmp_path, ["flatness", "--samples", "1000"])
        assert code == 2

    def test_deterministic_reports(self, tmp_path):
        argv = ["associator", "--seed", "11", "--samples", "60000",
                "--out", str(tmp_path / "det.json")]
        assert cli.main(argv) == 0
        first = (tmp_path / "det.json").read_bytes()
        assert cli.main(argv) == 0
        assert (tmp_path / "det.json").read_bytes() == first


class TestUsageAndLimits:
    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        code = cli.main(["cohomology", "--frobnicate", "1"])
        assert code == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert cli.main(["summarize"]) == 2
        capsys.readouterr()

    def test_nonpositive_count_exits_2(self, tmp_path, capsys):
        assert cli.main(["cohomology", "--n", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_flatness_needs_two_points(self, tmp_path, capsys):
        code, rep = run(tmp_path, ["flatness", "--n", "1", "--seed", "1"])
        assert code == 2 and rep is None
        assert "--n" in capsys.readouterr().err

    def test_associator_truncation_cap(self, tmp_path, capsys):
        code, rep = run(tmp_path, ["associator", "--seed", "1",
                                   "--samples", "1000", "--trunc", "3"])
        assert code == 2 and rep is None
        capsys.readouterr()

    def test_graph_limit_writes_partial_report(self, tmp_path):
        code, rep = run(tmp_path, ["enumerate", "--n", "4", "--max-weight", "3",
                                   "--limit-graphs", "10"])
        assert code == 3
        assert rep["partial"] is True
        assert "1" in rep["results"]["weights"]
        assert "3" not in rep["results"]["weights"]

    def test_config_file_defaults_and_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# defaults\nn=2\nmax-weight=1\n")
        code, rep = run(tmp_path, ["enumerate", "--config", str(cfgfile)])
        assert code == 0
        assert rep["config"]["n"] == 2 and rep["config"]["max_weight"] == 1
        code, rep = run(tmp_path, ["enumerate", "--config", str(cfgfile),
                                   "--n", "3"], name="o2.json")
        assert code == 0
        assert rep["config"]["n"] == 3 and rep["config"]["max_weight"] == 1

    def test_config_file_rejects_unknown_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("colour=blue\n")
        assert cli.main(["enumerate", "--config", str(cfgfile)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["enumerate", "--n", "2", "--weight", "1"]) == 0
        assert (tmp_path / "enumerate.json").exists()
