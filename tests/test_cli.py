import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zinbiel2 import cli
from zinbiel2 import io as zio
from zinbiel2.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN_DIR = Path(__file__).parent / "goldens" / "cli"
MALFORMED_DIR = Path(__file__).parent / "fixtures" / "malformed"

DOCUMENTED = {
    "check_2alg_z_z_id": ["check-2alg", "data/z_z_id.json"],
    "check_zinbiel_idempotent": ["check-zinbiel", "data/dim1_idempotent.json"],
    "check_zinbiel_idempotent_text": ["check-zinbiel", "data/dim1_idempotent.json",
                                      "--format", "text"],
    "check_datum_trivial": ["check-datum", "data/trivial_datum.json"],
    "check_trivial_z1_sigma": ["check-trivial-z1", "data/zz_sigma.json"],
    "build_product_trivial": ["build-product", "data/trivial_datum.json"],
    "extract_datum_split": ["extract-datum", "data/split_direct.json"],
    "check_crossed_omega": ["check-crossed", "data/crossed_omega.json"],
    "check_matched_tr3": ["check-matched", "data/matched_tr3.json"],
    "check_ideal_split": ["check-ideal", "data/split_direct.json"],
    "factorize_split": ["factorize", "data/split_direct.json"],
    "check_morphism_sigma_shift": ["check-morphism", "data/rs_sigma_shift.json"],
    "check_trivial_z1_zz19_gap": ["check-trivial-z1", "data/zz19_gap.json"],
    "classify_zero01": ["classify", "--field", "gf5", "--z", "data/z_zero_01.json",
                        "--vdims", "0,1"],
}


def run_cli(argv, cwd=ROOT):
    out = io.StringIO()
    import os
    old = os.getcwd()
    os.chdir(cwd)
    try:
        code = main(argv, out=out)
    finally:
        os.chdir(old)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(DOCUMENTED))
def test_documented_command_matches_golden(name):
    argv = DOCUMENTED[name]
    code, text = run_cli(argv)
    assert str(code) == (GOLDEN_DIR / f"{name}.exit").read_text().strip()
    assert text == (GOLDEN_DIR / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(DOCUMENTED))
def test_documented_command_byte_stable(name):
    argv = DOCUMENTED[name]
    code1, text1 = run_cli(argv)
    code2, text2 = run_cli(argv)
    assert code1 == code2 and text1 == text2


def test_exit_codes():
    assert run_cli(["check-2alg", "data/z_z_id.json"])[0] == 0
    assert run_cli(["check-zinbiel", "data/dim1_idempotent.json"])[0] == 1
    assert run_cli(["check-zinbiel", "data/no_such_file.json"])[0] == 2
    assert run_cli(["classify", "--field", "gf5", "--z", "data/z_zero_01.json",
                    "--vdims", "0,1", "--budget", "10"])[0] == 3


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_one_is_refused(cap):
    with pytest.raises(SystemExit) as exc:
        run_cli(["check-zinbiel", "data/dim1_idempotent.json", "--cap", cap])
    assert exc.value.code == 2


def test_internal_error_gets_its_own_exit_code(monkeypatch, capsys):
    def broken_census(*args, **kwargs):
        raise AssertionError("cohomologous relation does not refine equivalence")
    monkeypatch.setattr(cli, "run_census", broken_census)
    code, text = run_cli(["classify", "--field", "gf5", "--z", "data/z_zero_01.json",
                          "--vdims", "0,1"])
    assert code == cli.EXIT_INTERNAL == 4
    assert text == ""
    assert ("internal error: AssertionError: cohomologous relation does not refine equivalence"
            in capsys.readouterr().err.splitlines())


def test_defect_while_parsing_is_an_internal_error(monkeypatch, capsys):
    # only library errors from a constructor are bad input; anything else is
    # a defect, not a schema violation
    def broken_datum(*args, **kwargs):
        raise RuntimeError("defect")
    monkeypatch.setattr(zio, "ExtendingDatum", broken_datum)
    code, text = run_cli(["check-datum", "data/trivial_datum.json"])
    assert code == cli.EXIT_INTERNAL == 4
    assert text == ""
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: defect" in err.splitlines()
    assert "input error" not in err


@pytest.mark.parametrize("argv,message", [
    (["classify", "--field", "gf4", "--z", "data/z_zero_01.json", "--vdims", "0,1"],
     "4 is not prime"),
    (["classify", "--field", "gf3", "--z", "data/z_zero_01.json", "--vdims", "0,1"],
     "GF(3) has characteristic 3"),
    (["check-2alg", "data/z_z_id.json", "--field", "gf9"], "9 is not prime"),
    (["check-2alg", "data/z_z_id.json", "--field", "gf3"], "GF(3) has characteristic 3"),
    (["check-zinbiel", "data/dim1_idempotent.json", "--field", "r"], "bad field name 'r'"),
])
def test_bad_field_name_is_an_input_error(argv, message, capsys):
    code, text = run_cli(argv)
    assert code == cli.EXIT_INPUT == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("input error: --field: ") and message in err
    assert "Traceback" not in err


def test_small_char_field_name_with_its_flag_is_accepted():
    assert run_cli(["check-2alg", "data/z_z_id.json", "--field", "gf3",
                    "--allow-small-char"])[0] == 0


def test_text_report_cites_witness_one_based():
    code, text = run_cli(["check-zinbiel", "data/dim1_idempotent.json",
                          "--format", "text"])
    assert code == 1
    assert "(ZI) at (1,1,1)" in text


def test_malformed_fixtures_exit_2_with_location(capsys):
    files = sorted(MALFORMED_DIR.glob("*.json"))
    assert len(files) == 23
    for path in files:
        # choose a command matching the fixture's nominal kind
        try:
            kind = json.loads(path.read_text()).get("kind", "")
        except json.JSONDecodeError:
            kind = ""
        command = {"zinbiel_2_algebra": "check-2alg",
                   "extending_datum": "check-datum",
                   "crossed_system": "check-crossed"}.get(kind, "check-zinbiel")
        code, _ = run_cli([command, str(path)])
        err = capsys.readouterr().err
        assert code == 2, f"{path.name}: expected exit 2, got {code}"
        assert "input error" in err and "$" in err, f"{path.name}: no location in {err!r}"
        assert path.name in err, f"{path.name}: file not cited in {err!r}"


def test_classify_jobs_parallel_identical():
    # --jobs is accepted and ignored
    code1, text1 = run_cli(["classify", "--field", "gf5", "--z", "data/z_zero_01.json",
                            "--vdims", "0,1"])
    code2, text2 = run_cli(["classify", "--field", "gf5", "--z", "data/z_zero_01.json",
                            "--vdims", "0,1", "--jobs", "2"])
    assert (code1, text1) == (code2, text2)


def test_classify_refuses_negative_vdims(capsys):
    code, text = run_cli(["classify", "--field", "gf5", "--z", "data/z_zero_01.json",
                          "--vdims", "0,-1"])
    assert (code, text) == (cli.EXIT_INPUT, "")
    assert "--vdims" in capsys.readouterr().err


@pytest.mark.parametrize("vdims,message", [
    ("1", "input error: --vdims: expected n1,n0, got 1"),
    ("0,-1", "input error: --vdims: entries must be nonnegative, got 0,-1")])
def test_classify_vdims_errors_name_the_flag(capsys, vdims, message):
    code, text = run_cli(["classify", "--field", "gf5", "--z", "data/z_zero_01.json",
                          "--vdims", vdims])
    assert (code, text) == (cli.EXIT_INPUT, "")
    assert capsys.readouterr().err.splitlines() == [message]


def test_classify_refuses_a_negative_budget(capsys):
    # an input error, not an exceeded budget; --budget 0 is exceeded by any space
    argv = ["classify", "--field", "gf5", "--z", "data/z_zero_01.json", "--vdims", "0,1"]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--budget", "-5"])
    assert exc.value.code == cli.EXIT_INPUT
    assert "--budget: must be at least 0, got -5" in capsys.readouterr().err
    assert run_cli(argv + ["--budget", "0"]) == (cli.EXIT_BUDGET, "")


def test_classify_refuses_d_of_the_wrong_shape(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"kind": "linmap", "field": "gf5",
                                "rows": 2, "cols": 2, "entries": []}))
    code, text = run_cli(["classify", "--field", "gf5", "--z", "data/z_zero_01.json",
                          "--vdims", "1,1", "--d", str(path)])
    assert (code, text) == (cli.EXIT_INPUT, "")
    err = capsys.readouterr().err
    assert "--d must be 1x1" in err and "d.json" in err


def test_classify_reports_an_invalid_z(tmp_path, capsys):
    # classify has no --format: the failed precondition's report is JSON
    doc = json.loads((ROOT / "data" / "z_zero_01.json").read_text())
    doc["z0"]["mult"]["coeffs"] = [[0, 0, 0, "1"]]     # e.e = e is not Zinbiel
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli(["classify", "--field", "gf5", "--z", str(path), "--vdims", "0,1"])
    assert code == cli.EXIT_VIOLATIONS
    assert json.loads(text)["ok"] is False
    assert "precondition failed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check-datum", "data/trivial_datum.json", "--budget", "3"],
    ["classify", "--field", "gf5", "--z", "data/z_zero_01.json", "--vdims", "0,1",
     "--format", "text"],
    ["classify", "--field", "gf5", "--z", "data/z_zero_01.json", "--vdims", "0,1",
     "--cap", "5"],
    ["classify", "--field", "gf5", "--z", "data/z_zero_01.json", "--vdims", "0,1",
     "--typo-strict"],
    ["build-product", "data/trivial_datum.json", "--format", "text"],
    ["factorize", "data/split_direct.json", "--cap", "5"],
    ["check-ideal", "data/split_direct.json", "--format", "text"],
    ["extract-datum", "data/split_direct.json", "--typo-strict"],
])
def test_flags_a_command_does_not_read_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2


def test_typo_strict_escalates_zz19_disagreement():
    # data/zz19_gap.json is a valid structure (direct oracle passes, the
    # corrected ZZ list passes) on which the form of ZZ19 as printed fails:
    # the default run stays informational, strict mode escalates to exit 1
    code_default, text = run_cli(["check-trivial-z1", "data/zz19_gap.json"])
    assert code_default == 0
    report = json.loads(text)
    assert report["ok"] is True
    assert any(fl["id"] == "ZZ19" and fl["as_printed_disagrees"]
               for fl in report["flags"])
    code_strict, _ = run_cli(["check-trivial-z1", "data/zz19_gap.json",
                              "--typo-strict"])
    assert code_strict == 1


def test_console_script_entry_point():
    # the child process gets src on its path whether or not pytest put it on ours
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "zinbiel2.cli", "check-2alg",
                           str(ROOT / "data" / "z_z_id.json")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_allow_small_char_marks_nonconforming(tmp_path):
    doc = {"kind": "zinbiel_algebra", "field": "gf3", "dim": 1,
           "mult": {"dimA": 1, "dimB": 1, "dimC": 1, "coeffs": []}}
    path = tmp_path / "gf3.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["check-zinbiel", str(path)])
    assert code == 2   # refused without the override
    code, text = run_cli(["check-zinbiel", str(path), "--allow-small-char"])
    assert code == 0
    assert json.loads(text)["conforming_field"] is False


@pytest.mark.parametrize("argv,usage", [(["--help"], "usage: zinbiel2 [-h]"),
                                        (["classify", "--help"], "usage: zinbiel2 classify")])
def test_help_goes_to_out(argv, usage, capsys):
    # help is written straight to out: sys.stdout is the same object throughout,
    # so concurrent main calls cannot route each other's output
    stdout, seen = sys.stdout, []

    class Out(io.StringIO):
        def write(self, text):
            seen.append(sys.stdout)
            return super().write(text)
    out = Out()
    with pytest.raises(SystemExit) as exc:
        main(argv, out=out)
    assert exc.value.code == 0
    assert out.getvalue().startswith(usage)
    assert seen and all(s is stdout for s in seen) and sys.stdout is stdout
    assert capsys.readouterr() == ("", "")
    if argv == ["--help"]:
        assert out.getvalue() == cli.build_parser().format_help()


def test_main_builds_one_parser(monkeypatch):
    # one parser and a subparser per command on the first call, none after;
    # build_parser still builds a new parser for each caller
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    golden = (0, (GOLDEN_DIR / "classify_zero01.out").read_text())
    assert run_cli(DOCUMENTED["classify_zero01"]) == golden
    assert built.count("zinbiel2") == 1 and len(built) == len(cli._COMMANDS) + 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["check-zinbiel", "data/dim1_idempotent.json", "--cap", "0"])
    assert exc.value.code == cli.EXIT_INPUT
    census = cli.run_census
    monkeypatch.setattr(cli, "run_census", lambda *args, **kwargs: 1 / 0)
    assert run_cli(DOCUMENTED["classify_zero01"]) == (cli.EXIT_INTERNAL, "")
    monkeypatch.setattr(cli, "run_census", census)
    assert run_cli(DOCUMENTED["classify_zero01"]) == golden
    assert len(built) == len(cli._COMMANDS) + 1
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second and first is not cli._parser()
    assert first.format_help() == second.format_help() == cli._parser().format_help()


def test_import_builds_no_parser():
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import zinbiel2.cli\n"
            "assert not built, built\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("name", sorted(DOCUMENTED))
def test_documented_command_matches_golden_in_a_fresh_process(name):
    # the in-process tests reuse one parser after their first call; this one
    # builds it anew and enters through the module's __main__ guard
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "zinbiel2.cli", *DOCUMENTED[name]],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert str(proc.returncode) == (GOLDEN_DIR / f"{name}.exit").read_text().strip()
    assert proc.stdout == (GOLDEN_DIR / f"{name}.out").read_text()
