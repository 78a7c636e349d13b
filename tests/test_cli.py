import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import altia
from altia.aia import after_trace
from altia.cli import main
from altia.io import load_model, parse_expr, parse_trace


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check(capsys, models_dir):
    code, out, _ = run_cli(capsys, "check", models_dir / "machine.aia")
    assert code == 0
    assert "machine" in out and "11 states" in out


def test_member_aia_verdicts(capsys, models_dir):
    code, out, _ = run_cli(capsys, "member", models_dir / "machine.aia", "--trace", "?on ?b !t")
    assert (code, out.strip()) == (0, "Forbidden")
    code, out, _ = run_cli(capsys, "member", models_dir / "machine.aia", "--trace", "?a")
    assert (code, out.strip()) == (0, "Underspecified")
    code, out, _ = run_cli(capsys, "member", models_dir / "machine.aia", "--trace", "?on")
    assert code == 0 and out.startswith("Allowed ")
    code, out, _ = run_cli(capsys, "member", models_dir / "machine.aia", "--trace", "~a")
    assert (code, out.strip()) == (0, "member")


# A model whose state names read as constants, operators or two words.
QUOTED_MODEL = """aia quoted
states "T" "s 0" "a|b" "~q" "F&" s1
inputs a
outputs x y
init "T" & s1 | "s 0"
"T" !x -> "a|b" & "~q" | s1 & "F&"
"s 0" !x -> "s 0"
s1 !x -> T
"a|b" ?a -> "T" & "s 0" | s1
"~q" !y -> "F&"
"F&" ?a -> "~q"
"""


def test_member_writes_a_configuration_that_parses_back(capsys, models_dir, tmp_path):
    # member writes the reached configuration with expr_str, so a name
    # that reads as T, an operator or two words is quoted and the text
    # parses back to the configuration the trace reaches
    spec = importlib.util.spec_from_file_location(
        "cli_diff", Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py")
    cli_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_diff)
    cases = (
        ("nested.aia", cli_diff.NESTED_MODEL, ("", *cli_diff.NESTED_TRACES)),
        ("quoted.aia", QUOTED_MODEL, ("", "!x", "!x !x", "!x !y", "?a")),
    )
    allowed = quoted = 0
    for filename, text, traces in cases:
        path = tmp_path / filename
        path.write_text(text, encoding="utf-8")
        model = load_model(path)
        for trace in traces:
            reached = after_trace(model, parse_trace(trace).body)
            code, out, _ = run_cli(capsys, "member", path, "--trace", trace)
            verdict, _, written = out.rstrip("\n").partition(" ")
            code_json, out_json, _ = run_cli(capsys, "member", path, "--trace", trace, "--json")
            assert (code, code_json) == (0, 0)
            assert json.loads(out_json) == {"verdict": verdict, "configuration": written or None}
            if verdict == "Allowed":
                assert parse_expr(written) == reached, (filename, trace, written)
                allowed += 1
                quoted += '"' in written
    assert (allowed, quoted) == (6, 6)
    # plain names are written as they were
    code, out, _ = run_cli(capsys, "member", models_dir / "machine.aia", "--trace", "?on ?b !t+m")
    assert (code, out) == (0, "Allowed m10\n")


def test_member_ia_and_json(capsys, models_dir):
    code, out, _ = run_cli(capsys, "member", models_dir / "coffee.ia", "--trace", "?a !c")
    assert (code, out.strip()) == (0, "member")
    code, out, _ = run_cli(
        capsys, "member", models_dir / "machine.aia", "--trace", "?on ?b !t", "--json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "Forbidden"


def test_refine_exit_codes(capsys, models_dir):
    code, out, _ = run_cli(
        capsys, "refine", models_dir / "good_machine.ia", models_dir / "machine.aia"
    )
    assert (code, out.strip()) == (0, "HOLDS")
    code, out, _ = run_cli(
        capsys, "refine", models_dir / "faulty_tea.ia", models_dir / "machine.aia"
    )
    assert code == 1
    assert out.strip() == "FAIL ?on ?b !t"


def test_refine_json(capsys, models_dir):
    code, out, _ = run_cli(
        capsys, "refine", models_dir / "faulty_tea.ia", models_dir / "machine.aia", "--json"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fails"
    assert doc["counterexample"] == "?on ?b !t"
    assert doc["stats"]["pairs_explored"] > 0


def test_refine_ia_pair(capsys, models_dir):
    code, out, _ = run_cli(capsys, "refine", models_dir / "combo.ia", models_dir / "tea.ia")
    assert (code, out.strip()) == (0, "HOLDS")
    code, out, _ = run_cli(capsys, "refine", models_dir / "milkdrinks.ia", models_dir / "tea.ia")
    assert code == 1 and out.strip() == "FAIL ?b !c+m"


def test_det_writes_file(capsys, models_dir, tmp_path):
    out_file = tmp_path / "det.aia"
    code, _, _ = run_cli(capsys, "det", models_dir / "widget.aia", "-o", out_file)
    assert code == 0
    m = load_model(out_file)
    assert len(m.states) == 3


def test_compose(capsys, models_dir, tmp_path):
    out_file = tmp_path / "both.aia"
    code, _, _ = run_cli(
        capsys, "compose", "--and",
        models_dir / "coffee.ia", models_dir / "tea.ia", "-o", out_file,
    )
    assert code == 0
    both = load_model(out_file)
    code, out, _ = run_cli(capsys, "refine", models_dir / "combo.ia", out_file)
    assert code == 0


def test_translations(capsys, models_dir, tmp_path):
    ia_file = tmp_path / "machine.ia"
    code, _, _ = run_cli(capsys, "to-ia", models_dir / "machine.aia", "-o", ia_file)
    assert code == 0
    back = tmp_path / "machine_back.aia"
    code, _, _ = run_cli(capsys, "to-aia", ia_file, "-o", back)
    assert code == 0
    code, out, _ = run_cli(capsys, "refine", back, models_dir / "machine.aia")
    assert (code, out.strip()) == (0, "HOLDS")
    code, out, _ = run_cli(capsys, "refine", models_dir / "machine.aia", back)
    assert (code, out.strip()) == (0, "HOLDS")


def test_tester_and_run(capsys, models_dir, tmp_path):
    tc = tmp_path / "tc.ia"
    code, _, _ = run_cli(capsys, "tester", models_dir / "scenario.aia", "-o", tc)
    assert code == 0
    code, out, _ = run_cli(capsys, "run", tc, models_dir / "good_machine.ia", "--exhaustive")
    assert (code, out.strip()) == (0, "PASS")
    code, out, _ = run_cli(capsys, "run", tc, models_dir / "faulty_tea.ia", "--exhaustive")
    assert code == 1
    assert out.splitlines()[0] == "FAIL ?on ?a !c ?take ?b !t"


def test_run_random_logs(capsys, models_dir, tmp_path):
    tc = tmp_path / "tc.ia"
    run_cli(capsys, "tester", models_dir / "machine.aia", "-o", tc)
    code, out, _ = run_cli(
        capsys, "run", tc, models_dir / "good_machine.ia",
        "--seed", 9, "--runs", 2, "--max-steps", 12,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# run 0 seed 9"
    assert any(l.startswith(("PASS", "FAIL")) for l in lines)
    code2, out2, _ = run_cli(
        capsys, "run", tc, models_dir / "good_machine.ia",
        "--seed", 9, "--runs", 2, "--max-steps", 12,
    )
    assert out2 == out  # same seeds, byte-identical logs


def test_run_json(capsys, models_dir, tmp_path):
    tc = tmp_path / "tc.ia"
    run_cli(capsys, "tester", models_dir / "scenario.aia", "-o", tc)
    code, out, _ = run_cli(
        capsys, "run", tc, models_dir / "faulty_tea.ia", "--exhaustive", "--json"
    )
    assert code == 1
    doc = json.loads(out.splitlines()[-1])
    assert doc["verdict"] == "FAIL"
    assert doc["witness"] == "?on ?a !c ?take ?b !t"


def test_testgen_reproducible(capsys, models_dir, tmp_path):
    d1, d2 = tmp_path / "g1", tmp_path / "g2"
    for d in (d1, d2):
        code, _, _ = run_cli(
            capsys, "testgen", models_dir / "machine.aia",
            "--seed", 11, "--depth", 6, "--p-stop", 0.1, "--count", 4, "-o", d,
        )
        assert code == 0
    files1 = sorted(p.name for p in d1.iterdir())
    assert files1 == sorted(p.name for p in d2.iterdir())
    assert files1  # generated something
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_testgen_cases_are_sound(capsys, models_dir, tmp_path):
    d = tmp_path / "gen"
    run_cli(
        capsys, "testgen", models_dir / "machine.aia",
        "--seed", 2, "--depth", 6, "--p-stop", 0.1, "--count", 3, "-o", d,
    )
    for k in range(3):
        code, out, _ = run_cli(
            capsys, "run", d / f"case_{k:03d}_tester.ia",
            models_dir / "good_machine.ia", "--exhaustive",
        )
        assert (code, out.strip()) == (0, "PASS")


def test_dot_command(capsys, models_dir):
    code, out, _ = run_cli(capsys, "dot", models_dir / "widget.aia")
    assert code == 0 and out.startswith("digraph")


def test_input_error_exit_code(capsys, models_dir, tmp_path):
    code, _, err = run_cli(capsys, "check", tmp_path / "missing.aia")
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.aia"
    bad.write_text("aia x\ninputs a\noutputs x\ninit q0\nq0 ?a -> F\n")
    code, _, err = run_cli(capsys, "check", bad)
    assert code == 2
    deep = tmp_path / "deep.aia"  # the parser has no depth limit
    deep.write_text(f"aia deep\nstates q0\ninputs a\noutputs x\n"
                    f"init {'(' * 5000}q0{')' * 5000}\nq0 !x -> q0\n")
    assert run_cli(capsys, "check", deep) == (0, "aia deep: 1 states, 1 inputs, 1 outputs\n", "")
    code, _, err = run_cli(
        capsys, "refine", models_dir / "widget.aia", models_dir / "machine.aia"
    )
    assert code == 2  # different alphabets
    code, _, err = run_cli(capsys, "testgen", models_dir / "machine.aia", "--p-stop", 2,
                           "-o", tmp_path / "gen")
    assert code == 2 and err.startswith("error:")
    tester = tmp_path / "tester.ia"
    assert run_cli(capsys, "tester", models_dir / "machine.aia", "-o", tester)[0] == 0
    code, _, err = run_cli(capsys, "run", tester, models_dir / "good_machine.ia",
                           "--runs", 0, "--json")
    assert code == 2 and err.startswith("error:")
    # negative counts and bounds are usage errors, not a cap exceeded at
    # once or a PASS after -1 steps
    scenario = tmp_path / "scenario_tester.ia"
    assert run_cli(capsys, "tester", models_dir / "scenario.aia", "-o", scenario)[0] == 0
    for argv in (
        ("det", models_dir / "machine.aia", "--cap", -5),
        ("refine", models_dir / "faulty_tea.ia", models_dir / "machine.aia", "--cap", -1),
        ("tester", models_dir / "machine.aia", "--cap", -1),
        ("testgen", models_dir / "machine.aia", "--cap", -1, "-o", tmp_path / "neg"),
        ("testgen", models_dir / "machine.aia", "--depth", -1, "-o", tmp_path / "neg"),
        ("testgen", models_dir / "machine.aia", "--count", -1, "-o", tmp_path / "neg"),
        ("run", scenario, models_dir / "faulty_tea.ia", "--max-steps", -1, "--json"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error:") and "negative" in err
    assert not (tmp_path / "neg").exists()
    binary = tmp_path / "bin.aia"  # not UTF-8: an input error, not a traceback
    binary.write_bytes(b"\xff\xfe\n")
    for argv in (("check", binary), ("run", binary, models_dir / "good_machine.ia")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error:") and "UTF-8" in err


def test_degenerate_models_end_cleanly(capsys, tmp_path):
    # Every subcommand on models with nothing in them, one of them not
    # text at all, ends with a documented exit code, never a traceback.
    contents = {
        "top.aia": b"aia top\nstates\ninputs\noutputs\ninit T\n",
        "bot.aia": b"aia bot\nstates\ninputs\noutputs\ninit F\n",
        "empty.ia": b"ia empty\nstates q\ninputs a\noutputs x\ninit\n",
        "bin.aia": b"\xff\xfe\n",
    }
    models = [tmp_path / name for name in contents]
    for m in models:
        m.write_bytes(contents[m.name])
    codes = []
    for k, m in enumerate(models):
        tester = tmp_path / f"tester{k}.ia"
        runs = [("check", m), ("det", m), ("to-ia", m), ("to-aia", m), ("dot", m),
                ("tester", m, "-o", tester), ("testgen", m, "-o", tmp_path / f"gen{k}")]
        runs += [("member", m, "--trace", t, *j)
                 for t in ("", "?a", "~a") for j in ((), ("--json",))]
        for other in models:
            runs += [("refine", "--json", m, other), ("compose", "--and", m, other),
                     ("run", "--exhaustive", m, other), ("run", "--json", tester, other)]
        for argv in runs:
            code, _, err = run_cli(capsys, *argv)
            assert code in (0, 1) or (code in (2, 3) and err.startswith("error:")), argv
            codes.append(code)
    assert len(codes) == 4 * (13 + 4 * 4) and set(codes) == {0, 1, 2}


def test_cap_exit_code(capsys, models_dir):
    code, _, err = run_cli(capsys, "det", models_dir / "machine.aia", "--cap", 1)
    assert code == 3 and "cap" in err


def test_out_of_memory_exits_3_without_traceback(tmp_path):
    # Under a 300 MB address-space limit, parsing the 2**18-clause initial
    # configuration (a0|b0)&...&(a17|b17) runs out of memory: the command
    # reports it on one line and exits 3, as for an exploration cap.
    resource = pytest.importorskip("resource")
    limit = 300 * 2**20

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(altia.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    try:
        bare = subprocess.run([sys.executable, "-c", "pass"], preexec_fn=limited, env=env)
    except (OSError, subprocess.SubprocessError):
        bare = None
    if bare is None or bare.returncode != 0:
        pytest.skip("python does not start under a 300 MB address-space limit")
    init = " & ".join(f"(a{i}|b{i})" for i in range(18))
    model = tmp_path / "wide.aia"
    model.write_text(f"aia wide\ninputs a\noutputs x\ninit {init}\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "altia", "check", str(model)],
                          capture_output=True, text=True, preexec_fn=limited, env=env)
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: out of memory\n")


def test_to_ia_searches_under_the_default_cap(capsys, models_dir, monkeypatch):
    # to-ia takes no --cap, but induce_ia searches under DEFAULT_CAP as
    # every other configuration search does: machine.aia induces 6 clause
    # states, so a cap of 6 lets it through and a cap of 5 stops it.
    import altia.aia
    from altia import ExplorationLimitError, induce_ia

    m = load_model(models_dir / "machine.aia")
    monkeypatch.setattr(altia.aia, "DEFAULT_CAP", 6)
    assert len(induce_ia(m).states) == 6
    code, out, _ = run_cli(capsys, "to-ia", models_dir / "machine.aia")
    assert code == 0 and out.startswith("ia ")
    monkeypatch.setattr(altia.aia, "DEFAULT_CAP", 5)
    with pytest.raises(ExplorationLimitError) as exc:
        induce_ia(m)
    assert exc.value.cap == 5
    code, out, err = run_cli(capsys, "to-ia", models_dir / "machine.aia")
    assert (code, out, err) == (3, "", "error: exploration exceeded the cap of 5 elements\n")


def test_cap_only_on_bounded_commands(capsys):
    from altia.cli import build_parser

    commands = {
        "det": ["f"], "refine": ["l", "r"], "tester": ["f"], "testgen": ["f", "-o", "d"],
        "check": ["f"], "member": ["f", "--trace", "?a"], "compose": ["--and", "l", "r"],
        "to-ia": ["f"], "to-aia": ["f"], "run": ["t", "i"], "dot": ["f"],
    }
    capped = set()
    for name, args in commands.items():
        try:
            build_parser().parse_args([name, *args, "--cap", "5"])
            capped.add(name)
        except SystemExit:
            assert "unrecognized arguments: --cap" in capsys.readouterr().err
    assert capped == {"det", "refine", "tester", "testgen"}


def test_refine_agrees_with_tester_run(capsys, models_dir, tmp_path):
    # the CLI-level law: refine IMPL SPEC fails exactly when the
    # synthesized tester makes IMPL fail
    for spec in ("machine.aia", "scenario.aia"):
        tc = tmp_path / f"tester_{spec}.ia"
        run_cli(capsys, "tester", models_dir / spec, "-o", tc)
        for impl in ("good_machine.ia", "faulty_tea.ia"):
            code_ref, _, _ = run_cli(capsys, "refine", models_dir / impl, models_dir / spec)
            code_run, _, _ = run_cli(capsys, "run", tc, models_dir / impl, "--exhaustive")
            assert code_ref == code_run


def test_det_accepts_plain_ia(capsys, models_dir, tmp_path):
    # determinizing an ia goes through its alternating view
    out_file = tmp_path / "tea_det.aia"
    code, _, _ = run_cli(capsys, "det", models_dir / "tea.ia", "-o", out_file)
    assert code == 0
    m = load_model(out_file)
    from altia import check_deterministic

    assert check_deterministic(m)


def test_console_entry_point(models_dir):
    # The child imports the same altia as this process, installed or not.
    src = str(Path(altia.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "altia", "member", str(models_dir / "machine.aia"),
         "--trace", "?on ?b !t"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Forbidden"


def test_run_reports_tester_problems_in_one_order(models_dir):
    # A tester that breaks the contract in several ways lists its problems
    # in sorted order, the same under every hash seed: good_machine.ia is
    # no tester, so run refuses it with problems from sets of labels.
    src = str(Path(altia.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    model = str(models_dir / "good_machine.ia")
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "altia", "run", model, model],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
        assert proc.returncode == 2 and "has no refusal label declared" in proc.stderr
        outputs.append((proc.stdout, proc.stderr))
    assert outputs[0] == outputs[1]


def _modules_after(argv):
    # A fresh interpreter without site hooks runs one command, then lists
    # the modules it loaded after the command's exit code.
    src = str(Path(altia.__file__).resolve().parent.parent)
    code = ("import sys\nfrom altia.cli import main\n"
            f"code = main({[str(a) for a in argv]!r})\n"
            "print(code, *sorted(sys.modules), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    code, *loaded = proc.stderr.split()
    assert code == "0", proc.stderr
    return set(loaded)


def test_commands_import_only_what_they_run(models_dir):
    loaded = _modules_after(["check", models_dir / "machine.aia"])
    assert "altia.cli" in loaded and "altia.io" in loaded
    unused = {"altia.testing", "altia.refine", "altia.determinize", "altia.rng",
              "dataclasses", "json"}
    assert not loaded & unused, loaded & unused
    loaded = _modules_after(["refine", models_dir / "good_machine.ia",
                             models_dir / "machine.aia"])
    assert "altia.refine" in loaded and "altia.testing" not in loaded
