import csv
import importlib.metadata
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import BIG_NETWORK, CHAIN_TREE, SINGLE_TREE

import losstomo
from losstomo import cli
from losstomo.cli import EXIT_CONFIG, EXIT_UNSUPPORTED, main
from losstomo.harness import SETTINGS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_setting_csv(capsys):
    code, out, err = run_cli(
        capsys, "run", "--setting", "2x2-equal", "--probes", "200",
        "--reps", "4", "--estimators", "mle,rbmvwa",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("link,estimator,source,probes")
    assert any(",rbmvwa," in l for l in lines[1:])


def test_run_markdown_to_file(tmp_path, capsys):
    out_path = tmp_path / "table.md"
    code, out, _ = run_cli(
        capsys, "run", "--setting", "2x3-equal", "--probes", "100",
        "--reps", "3", "--format", "markdown", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    assert "## mle" in out_path.read_text()


def test_run_seed_changes_output(capsys):
    args = ("run", "--setting", "2x2-equal", "--probes", "300", "--reps", "5")
    _, base, _ = run_cli(capsys, *args)
    _, same, _ = run_cli(capsys, *args, "--seed", "42")
    _, other, _ = run_cli(capsys, *args, "--seed", "7")
    assert base == same
    assert base != other


def test_run_topology_file(tmp_path, capsys):
    p = tmp_path / "net.txt"
    p.write_text(SETTINGS["2x2-unequal"])
    code, out, _ = run_cli(
        capsys, "run", "--topology", str(p), "--probes", "100", "--reps", "3"
    )
    assert code == 0
    assert "0.03" in out  # true loss column carries the unequal link


def test_decompose_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--setting", "2x2-equal")
    assert code == 0
    assert "joint nodes: [2]" in out
    assert "multi-source tree at node 2" in out
    assert "solve multi-source tree at node 2" in out


GOLDEN = Path(__file__).resolve().parent / "golden"

DECOMPOSE_OUT = {
    # the lossy golden topology is BIG_NETWORK at loss 0.3, and losses do not change the plan
    "big": (BIG_NETWORK, (GOLDEN / "big-network-lossy-seed42/decompose.txt").read_text()),
    "chain": (CHAIN_TREE, """\
joint nodes: none
fragment of source 0:
  nodes = [0, 2, 3, 4]
  links = ['1+2', '3', '4']
merged serial links: ['1+2']
estimation order:
  solve upstream path of source 0 at node 2
"""),
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_OUT))
def test_decompose_output_exact(tmp_path, capsys, name):
    text, expected = DECOMPOSE_OUT[name]
    p = tmp_path / "net.txt"
    p.write_text(text)
    assert run_cli(capsys, "decompose", "--topology", str(p)) == (0, expected, "")


def test_analyze_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--setting", "2x2-equal", "--probes", "500")
    assert code == 0
    assert out.splitlines()[0] == "node,source,quantity,value"
    assert "crlb_var_beta" in out


def test_analyze_without_joints_prints_the_header_only(tmp_path, capsys):
    # one source, two receivers: no joint node, so no rows, but still the header
    p = tmp_path / "tree.txt"
    p.write_text(
        "node 0\nnode 1\nnode 2\nnode 3\n"
        "link 1 0 1 0.01\nlink 2 1 2 0.01\nlink 3 1 3 0.01\n"
        "source 0\nreceiver 2\nreceiver 3\n"
    )
    assert run_cli(capsys, "analyze", "--topology", str(p)) == (
        0, "node,source,quantity,value\n", ""
    )


def test_analyze_lossless_joint_marks_undefined_rows(tmp_path, capsys):
    # links 3 and 4 lossless: the joint subtree rate is 1 and the information undefined
    p = tmp_path / "lossless.txt"
    p.write_text(SETTINGS["2x2-equal"].replace("link 3 2 3 0.01", "link 3 2 3 0")
                 .replace("link 4 2 4 0.01", "link 4 2 4 0"))
    code, out, err = run_cli(capsys, "analyze", "--topology", str(p))
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    values = {(r["source"], r["quantity"]): r["value"] for r in rows}
    for key in (("0", "per_probe_information"), ("1", "per_probe_information"),
                ("", "total_information"), ("", "crlb_var_beta")):
        assert values[key] == ""
    for s in ("0", "1"):
        assert float(values[(s, "var_path_estimate")]) > 0.0


@pytest.mark.parametrize("argv, golden", [
    (("--topology", str(GOLDEN / "big-network-lossy-seed42/topology.txt")),
     "big-network-lossy-seed42/analyze.csv"),
    (("--setting", "2x2-unequal", "--probes", "1000"), "analyze-2x2-unequal-1000.csv"),
], ids=["big-network-lossy", "2x2-unequal-1000"])
def test_analyze_output_matches_golden(capsys, argv, golden):
    assert run_cli(capsys, "analyze", *argv) == (0, (GOLDEN / golden).read_text(), "")


def test_analyze_lossless_star_leaves_undefined_cells_empty(tmp_path, capsys):
    # every link lossless: beta = A = 1, so only the path-estimate variance (0) is defined
    p = tmp_path / "lossless.txt"
    p.write_text(SETTINGS["2x2-equal"].replace(" 0.01\n", " 0\n"))
    assert run_cli(capsys, "analyze", "--topology", str(p)) == (0, (
        "node,source,quantity,value\n"
        "2,0,per_probe_information,\n"
        "2,0,var_path_estimate,0.0\n"
        "2,1,per_probe_information,\n"
        "2,1,var_path_estimate,0.0\n"
        "2,,total_information,\n"
        "2,,crlb_var_beta,\n"
    ), "")


@pytest.mark.parametrize("probes", ["0", "-5"])
def test_analyze_rejects_non_positive_probes(capsys, probes):
    code, out, err = run_cli(capsys, "analyze", "--setting", "2x2-equal", "--probes", probes)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"error: probe count must be >= 1, got {probes}\n"


def test_repeated_estimator_is_config_error(capsys):
    # a repeated name would pool each replication twice into one row
    code, out, err = run_cli(
        capsys, "run", "--setting", "2x2-equal", "--estimators", "mle,mle",
        "--reps", "3", "--probes", "200",
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert "estimator listed more than once: mle" in err


def test_repeated_probe_count_is_config_error(capsys):
    # a repeated count would write every row of that count twice
    code, out, err = run_cli(
        capsys, "run", "--setting", "2x2-equal", "--probes", "100,100", "--reps", "3",
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert "probe count listed more than once: 100" in err


def test_negative_seed_is_config_error(capsys):
    code, out, err = run_cli(capsys, "run", "--setting", "2x2-equal", "--seed", "-1")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("estimators", ["mrbmvwa", "mle,mrbmvwa"])
def test_fusion_without_joint_is_config_error(tmp_path, capsys, estimators):
    # one source, so no joint node for fusion to act on: a config error, not
    # an empty table or a table missing the scheme's rows
    p = tmp_path / "tree.txt"
    p.write_text(SINGLE_TREE)
    code, out, err = run_cli(
        capsys, "run", "--topology", str(p), "--probes", "100", "--reps", "3",
        "--estimators", estimators,
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "error: fusion needs an intersection link and the topology has none: mrbmvwa\n"


def test_fusion_without_an_intersection_link_is_config_error(capsys):
    # receivers 4 and 5 are the only joints, and their intersections hold no link, so fusion
    # has nothing to estimate: a config error, not an empty table
    code, out, err = run_cli(
        capsys, "run", "--topology", str(GOLDEN / "receiver-joints-seed42/topology.txt"),
        "--probes", "100", "--reps", "3", "--estimators", "mle,rbmvwa,mrbmvwa",
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "error: fusion needs an intersection link and the topology has none: rbmvwa, mrbmvwa\n"


def test_bad_estimator_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, "run", "--setting", "2x2-equal", "--estimators", "median"
    )
    assert code == EXIT_CONFIG
    assert "unknown estimator" in err


def test_missing_file_is_config_error(capsys):
    code, _, err = run_cli(capsys, "run", "--topology", "/nonexistent/net.txt")
    assert code == EXIT_CONFIG
    assert "error:" in err


def test_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch):
    # a missing --out directory, or an --out that is a directory, is found before any replication
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: calls.append(cfg))
    missing = tmp_path / "nonexistent" / "x.csv"
    for out, why in ((missing, f"no directory {missing.parent}"), (tmp_path, "is a directory")):
        code, stdout, err = run_cli(capsys, "run", "--setting", "2x2-equal", "--out", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith(f"error: --out {out}") and why in err
    assert calls == []


def test_malformed_topology_is_config_error(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("node 0\nlink nope\n")
    code, _, err = run_cli(capsys, "decompose", "--topology", str(p))
    assert code == EXIT_CONFIG


def test_usage_error_is_config_error(capsys):
    # argparse exits 2 on a usage error, and 2 means an unsupported topology here
    code, out, err = run_cli(capsys, "run", "--setting", "2x2-equal", "--probes", "1,x")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("usage: losstomo run") and "--probes: invalid" in err
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: losstomo")


def test_unsupported_topology_exit_code(tmp_path, capsys):
    p = tmp_path / "chain.txt"
    p.write_text(
        "node 0\nnode 1\nnode 2\nnode 3\n"
        "link 1 0 2 0.01\nlink 2 1 2 0.01\nlink 3 2 3 0.01\n"
        "source 0\nsource 1\nreceiver 3\n"
    )
    code, _, err = run_cli(capsys, "run", "--topology", str(p))
    assert code == EXIT_UNSUPPORTED
    assert "unsupported topology" in err


def assert_help_ok(res):
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: losstomo")
    for command in ("run", "decompose", "analyze"):
        assert command in res.stdout


def test_console_script_installed(tmp_path):
    # checks the declaration an installer reads and the command it would make
    # from it, so the test needs no install
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert scripts.get("losstomo") == "losstomo.cli:main"

    # the launcher text pip's ScriptMaker writes for a console script
    module, func = scripts["losstomo"].split(":")
    launcher = tmp_path / "losstomo"
    launcher.write_text(
        f"import sys\nfrom {module} import {func}\n"
        f"if __name__ == '__main__':\n    sys.exit({func}())\n"
    )
    package_root = str(Path(losstomo.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(launcher), "--help"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath}, timeout=60,
    )
    assert_help_ok(res)


@pytest.mark.skipif(shutil.which("losstomo") is None, reason="losstomo console script not on PATH")
def test_console_script_on_path():
    (entry,) = importlib.metadata.entry_points(group="console_scripts", name="losstomo")
    assert entry.value == "losstomo.cli:main"
    res = subprocess.run(
        [shutil.which("losstomo"), "--help"], capture_output=True, text=True, timeout=60
    )
    assert_help_ok(res)


def test_failing_estimator_keeps_the_other_rows(tmp_path, capsys):
    # every loss 0: the oracle variances are 0, so mvwa-oracle fails each
    # replication, which must not cost the mle rows
    p = tmp_path / "lossless.txt"
    p.write_text(SETTINGS["2x2-equal"].replace(" 0.01\n", " 0\n"))
    code, out, err = run_cli(
        capsys, "run", "--topology", str(p), "--probes", "100", "--reps", "3",
        "--estimators", "mle,mvwa-oracle",
    )
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    mle = [r for r in rows if r["estimator"] == "mle"]
    oracle = [r for r in rows if r["estimator"] == "mvwa-oracle"]
    assert len(mle) == 4 and all(r["reps"] == "3" and r["errors"] == "0" for r in mle)
    assert len(oracle) == 2 and all(r["reps"] == "0" and r["errors"] == "3" for r in oracle)
    notes = err.splitlines()
    assert len(notes) == 3
    for rep, note in enumerate(notes):
        assert note.startswith(f"note: probes=100 rep={rep} mvwa-oracle: ")


def test_run_prints_each_failure_note_on_stderr(capsys):
    # the lossy golden run: the table on stdout, and each failure message on
    # stderr as a note, in the order the replications ran
    golden = Path(__file__).resolve().parent / "golden/big-network-lossy-seed42"
    code, out, err = run_cli(
        capsys, "run", "--topology", str(golden / "topology.txt"), "--probes", "10,300",
        "--reps", "3", "--seed", "42",
        "--estimators", "mle,tree-baseline,mvwa-oracle,mvwa-plugin,rbmvwa,mrbmvwa",
    )
    assert code == 0
    assert out == (golden / "run.csv").read_text()
    messages = (golden / "messages.txt").read_text().splitlines(keepends=True)
    assert err == "".join(f"note: {m}" for m in messages)


def test_receiver_joint_golden(capsys):
    # two receiver joints and no intersection link: the path methods' table, its failure
    # notes on stderr (none), and the analyze and decompose output, each byte for byte
    golden = GOLDEN / "receiver-joints-seed42"
    topology = str(golden / "topology.txt")
    code, out, err = run_cli(
        capsys, "run", "--topology", topology, "--probes", "10,300", "--reps", "3", "--seed", "42",
        "--estimators", "mle,tree-baseline",
    )
    assert (code, out) == (0, (golden / "run.csv").read_text())
    messages = (golden / "messages.txt").read_text().splitlines(keepends=True)
    assert err == "".join(f"note: {m}" for m in messages)
    assert run_cli(capsys, "analyze", "--topology", topology) == (0, (golden / "analyze.csv").read_text(), "")
    assert run_cli(capsys, "decompose", "--topology", topology) == (0, (golden / "decompose.txt").read_text(), "")


def test_topology_file_with_a_utf8_bom_reads_like_one_without(tmp_path, capsys):
    # editors on some platforms save UTF-8 with a byte-order mark before the first directive
    golden = GOLDEN / "big-network-lossy-seed42"
    p = tmp_path / "topology.txt"
    p.write_bytes(b"\xef\xbb\xbf" + (golden / "topology.txt").read_bytes())
    code, out, _ = run_cli(
        capsys, "run", "--topology", str(p), "--probes", "10,300", "--reps", "3", "--seed", "42",
        "--estimators", "mle,tree-baseline,mvwa-oracle,mvwa-plugin,rbmvwa,mrbmvwa",
    )
    assert (code, out) == (0, (golden / "run.csv").read_text())
    assert run_cli(capsys, "decompose", "--topology", str(p)) == (0, (golden / "decompose.txt").read_text(), "")


def test_dead_source_link_leaves_crlb_empty(tmp_path, capsys):
    # link 1 drops every probe: the path rate into the joint is 0, so the
    # closed-form variance of link 1 is undefined and is written as empty
    p = tmp_path / "dead.txt"
    p.write_text(SETTINGS["2x2-equal"].replace("link 1 0 2 0.01", "link 1 0 2 1"))
    code, out, err = run_cli(
        capsys, "run", "--topology", str(p), "--probes", "100", "--reps", "3", "--estimators", "mle",
    )
    assert code == 0, err
    rows = {r["link"]: r for r in csv.DictReader(io.StringIO(out))}
    assert sorted(rows) == ["1", "2", "3", "4"]
    assert rows["1"]["crlb_var"] == "" and rows["1"]["mean_loss"] == "1.0"
    assert float(rows["2"]["crlb_var"]) > 0.0
    assert all(r["reps"] == "3" and r["errors"] == "0" for r in rows.values())


def test_fusion_exclusions_write_nothing_to_stderr(tmp_path):
    # link 1 drops every probe of source 0, so fusion excludes that source at
    # the joint in every replication; the run must not log each exclusion
    p = tmp_path / "dead.txt"
    p.write_text(SETTINGS["2x2-equal"].replace("link 1 0 2 0.01", "link 1 0 2 1"))
    package_root = str(Path(losstomo.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "losstomo.cli", "run", "--topology", str(p),
         "--estimators", "mle,rbmvwa,mrbmvwa", "--reps", "5", "--probes", "100"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120,
    )
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.startswith("link,estimator,source,probes")
