import csv
import io

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


def test_analyze_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--setting", "2x2-equal", "--probes", "500")
    assert code == 0
    assert out.splitlines()[0] == "node,source,quantity,value,provenance"
    assert "crlb_var_beta" in out


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


def test_malformed_topology_is_config_error(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("node 0\nlink nope\n")
    code, _, err = run_cli(capsys, "decompose", "--topology", str(p))
    assert code == EXIT_CONFIG


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


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("losstomo")
    assert exe is not None
    res = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert res.returncode == 0
    assert "run" in res.stdout and "decompose" in res.stdout


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
