"""Command line surface: formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import modwick.cli
from modwick.scalars import EXPR_ZERO, canonically_equal
from modwick.serialize import from_json_dict
from modwick.verify import SuiteResult

CSV_HEADER = "lambda,re_value,im_value,re_target,im_target,abs_err"
FLOAT_RE = r"-?\d\.\d{11}e[+-]\d{2,3}"
ROW_RE = re.compile(r"^%s(,%s){5}$" % (FLOAT_RE, FLOAT_RE))


# ---------------------------------------------------------------------------
# correlate

def test_correlate_json_roundtrips(cli_run, word_file):
    code, out, err = cli_run(["correlate", word_file("aa++")])
    assert code == 0 and err == ""
    e = from_json_dict(json.loads(out))
    assert len(e.terms) == 2


def test_correlate_methods_agree_bytewise_without_crossings(cli_run, word_file):
    # sequential words have no crossing pairings, so the two closed
    # forms canonicalize to the very same bytes
    for pattern in ("a+", "a+a+"):
        path = word_file(pattern, name=f"w{len(pattern)}.json")
        outputs = set()
        for method in ("recursion", "theorem1"):
            code, out, _ = cli_run(["correlate", path, "--method", method])
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1, pattern


def test_correlate_latex(cli_run, word_file):
    code, out, _ = cli_run(["correlate", word_file("a+"), "--format", "latex"])
    assert code == 0
    assert "q_{\\lambda}" in out
    assert "\\delta(k_{1} - k_{2})" in out


def test_correlate_annotate(cli_run, word_file):
    code, out, _ = cli_run(["correlate", word_file("aa++"), "--annotate"])
    assert code == 0
    data = json.loads(out)
    tags = [t["tag"] for t in data["terms"]]
    assert tags == ["crossing", "noncrossing"]
    assert data["terms"][0]["pairs"] == [[1, 3], [2, 4]]
    assert data["terms"][0]["crossings"] == 1
    assert "term" in data["terms"][0]


def test_correlate_annotate_rejects_latex(cli_run, word_file):
    # the annotated document is JSON only
    code, out, err = cli_run(
        ["correlate", word_file("aa++"), "--annotate", "--format", "latex"])
    assert (code, out) == (2, "")
    assert err == "error: --annotate writes JSON only, not latex\n"


def test_polarized_word_file(cli_run, word_file):
    path = word_file("aa++", pols=[1, 2, 2, 1], name="pol.json")
    code, out, _ = cli_run(["correlate", path, "--mode", "polarized"])
    assert code == 0
    e = from_json_dict(json.loads(out))
    assert len(e.terms) == 1  # crossing pairing dies on polarization


# ---------------------------------------------------------------------------
# limit

def test_limit_methods_agree_bytewise(cli_run, word_file):
    path = word_file("aa++", name="w.json")
    outputs = set()
    for method in ("wick", "rewrite", "limit-of-theorem1"):
        code, out, _ = cli_run(["limit", path, "--method", method])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    e = from_json_dict(json.loads(next(iter(outputs))))
    assert len(e.terms) == 1


def test_limit_check_all_reports_agreement(cli_run, word_file):
    code, out, err = cli_run(
        ["limit", word_file("aa+a++"), "--check-all"])
    assert code == 0
    assert "all limit routes agree" in err


def test_limit_check_all_detects_divergence(cli_run, word_file, monkeypatch):
    monkeypatch.setattr("modwick.cli.correlator_wick_limit",
                        lambda w: EXPR_ZERO)
    code, out, err = cli_run(
        ["limit", word_file("aa++"), "--method", "rewrite", "--check-all"])
    assert code == 5
    assert "limit routes disagree: rewrite vs wick" in err


def test_limit_latex_of_vanishing_word(cli_run, word_file):
    code, out, _ = cli_run(
        ["limit", word_file("aa+"), "--format", "latex"])
    assert code == 0
    assert out == "0\n"


# ---------------------------------------------------------------------------
# pairings

def test_pairings_listing(cli_run, word_file):
    code, out, _ = cli_run(["pairings", word_file("aa++")])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["pairings"][0]["pairs"] == [[1, 3], [2, 4]]
    assert data["pairings"][1]["tag"] == "noncrossing"
    assert "term" not in data["pairings"][0]


def test_bare_pairings_builds_no_term(cli_run, word_file, monkeypatch):
    paths = [word_file("aa++", name="scalar.json"),
             word_file("aa+a++", pols=[1, 2, 3, 1, 2, 3], name="cyclic.json")]
    before = [cli_run(["pairings", path]) for path in paths]
    assert all(code == 0 for code, _, _ in before)

    def refuse(w, pairing):
        raise AssertionError("pairing_term called")

    monkeypatch.setattr("modwick.pairings.pairing_term", refuse)
    assert [cli_run(["pairings", path]) for path in paths] == before
    with pytest.raises(AssertionError, match="pairing_term called"):
        cli_run(["pairings", paths[0], "--annotate"])


# ---------------------------------------------------------------------------
# verify

def test_verify_small_run(cli_run):
    code, out, err = cli_run(["verify", "--max-n", "2"])
    assert code == 0
    assert out.startswith("suite ")
    assert "RESULT pass: 8 suites," in out


def test_verify_failure_exits_5(cli_run, monkeypatch):
    monkeypatch.setattr(
        "modwick.cli.run_all",
        lambda n: [SuiteResult("planted", 1, ("planted failure",))])
    code, out, err = cli_run(["verify", "--max-n", "2"])
    assert code == 5
    assert "RESULT fail" in out


def test_verify_rejects_bad_depth(cli_run):
    code, out, err = cli_run(["verify", "--max-n", "9"])
    assert code == 4
    assert "max-n" in err


# ---------------------------------------------------------------------------
# converge

def split_sections(text):
    sections = {}
    current = None
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("# study="):
            current = line[len("# study="):].split(" ")[0]
            sections[current] = []
        else:
            sections[current].append(line)
    return sections


def test_converge_full_output(cli_run, study_assignment_file):
    code, out, err = cli_run(["converge", study_assignment_file])
    assert code == 0 and err == ""
    sections = split_sections(out)
    assert list(sections) == [
        "delta_kernel", "vanishing_kernel", "crossing_4pt", "noncrossing_4pt"]
    assert "# study=vanishing_kernel x=1.00000000000e+00" in out
    assert sections["crossing_4pt"][0] == "# suppression=active"
    for name, lines in sections.items():
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == CSV_HEADER
        assert len(body) == 6  # header + default five-point ladder
        for row in body[1:]:
            assert ROW_RE.match(row), (name, row)
    # the delta kernel ladder error column decreases monotonically
    errs = [float(r.split(",")[-1]) for r in sections["delta_kernel"][1:]]
    assert errs == sorted(errs, reverse=True)


def test_converge_orthogonal_momenta_flag(cli_run, write_json):
    path = write_json("orth.json", {
        "momenta": {"k1": [1.0, 0.0, 0.0], "k2": [0.0, 1.0, 0.0]},
        "p": [0.0, 0.0, 0.0],
    })
    code, out, _ = cli_run(["converge", path])
    assert code == 0
    assert "# suppression=none (zero phase)" in out


def test_converge_custom_ladder_and_x(cli_run, write_json):
    path = write_json("custom.json", {
        "momenta": {"k1": [1.0, 0.0, 0.0], "k2": [1.0, 1.0, 0.0]},
        "p": [0.0, 0.0, 0.0],
        "vanishing_x": 2.5,
    })
    code, out, _ = cli_run(["converge", path, "--lambdas", "1.0,0.5"])
    assert code == 0
    assert "# study=vanishing_kernel x=2.50000000000e+00" in out
    body = [l for l in out.split("\n") if ROW_RE.match(l)]
    assert len(body) == 2 * 4


def test_converge_determinism(cli_run, study_assignment_file):
    runs = {cli_run(["converge", study_assignment_file])[1] for _ in range(2)}
    assert len(runs) == 1


def test_converge_numeric_errors(cli_run, write_json, study_assignment_file):
    base = {"momenta": {"k1": [1.0, 0.0, 0.0], "k2": [1.0, 1.0, 0.0]},
            "p": [0.0, 0.0, 0.0]}

    code, _, err = cli_run(
        ["converge", write_json("x0.json", dict(base, vanishing_x=0)), ])
    assert code == 4 and "vanishing_x" in err

    code, _, err = cli_run(
        ["converge", write_json("xs.json", dict(base, vanishing_x="big")), ])
    assert code == 4

    code, _, err = cli_run(
        ["converge", study_assignment_file, "--lambdas", "0.1,0.5"])
    assert code == 4 and "decreasing" in err

    code, _, err = cli_run(
        ["converge", study_assignment_file, "--lambdas", "0.1,zebra"])
    assert code == 4

    code, _, err = cli_run(
        ["converge", write_json("nop.json", {"momenta": base["momenta"]})])
    assert code == 4

    # study terms reference k1 and k2; an empty table cannot serve them
    code, _, err = cli_run(
        ["converge", write_json("empty.json", {"momenta": {}, "p": [0, 0, 0]})])
    assert code == 4 and "no assigned vector" in err


def test_converge_rejects_non_finite_lambda(cli_run, study_assignment_file):
    for ladder in ("inf,1.0", "1.0,nan"):
        code, out, err = cli_run(
            ["converge", study_assignment_file, "--lambdas", ladder])
        assert code == 4 and out == "", ladder
        assert "finite positive" in err and err.count("\n") == 1


def test_converge_rejects_bad_vector_components(cli_run, write_json):
    good = [1.0, 0.0, 0.0]
    for bad in ([float("nan"), 0.0, 0.0], [0.0, float("inf"), 0.0],
                ["1.0", 0.0, 0.0], [None, 0.0, 0.0], [True, 0.0, 0.0]):
        for data in ({"momenta": {"k1": good, "k2": bad}, "p": good},
                     {"momenta": {"k1": good, "k2": good}, "p": bad}):
            code, out, err = cli_run(["converge", write_json("v.json", data)])
            assert code == 4 and out == "", data
            assert err.startswith("error: ") and err.count("\n") == 1, err


def test_converge_rejects_non_numeric_vanishing_x(cli_run, write_json):
    base = {"momenta": {"k1": [1.0, 0.0, 0.0], "k2": [1.0, 1.0, 0.0]},
            "p": [0.0, 0.0, 0.0]}
    for x in (True, float("nan"), float("inf")):
        code, out, err = cli_run(
            ["converge", write_json("x.json", dict(base, vanishing_x=x))])
        assert code == 4 and out == "", x
        assert "vanishing_x must be a finite number" in err


def test_converge_rejects_overflowing_vanishing_x(cli_run, write_json):
    # 1e308 / lambda^2 overflowed inside the kernel with a traceback
    path = write_json("big_x.json", {
        "momenta": {"k1": [1.0, 0.0, 0.0], "k2": [1.0, 1.0, 0.0]},
        "p": [0.0, 0.0, 0.0], "vanishing_x": 1e308})
    code, out, err = cli_run(["converge", path])
    assert code == 4 and out == ""
    assert "out of numeric range" in err and err.count("\n") == 1


def test_converge_rejects_momenta_out_of_range(cli_run, write_json):
    # finite momenta whose dot products overflow printed nan rows with exit 0
    path = write_json("big_k.json", {
        "momenta": {"k1": [1e308, 0.0, 0.0], "k2": [1e308, 1e308, 0.0]},
        "p": [0.0, 0.0, 0.0]})
    code, out, err = cli_run(["converge", path])
    assert code == 4 and out == ""
    assert "out of numeric range" in err and err.count("\n") == 1


def test_converge_rejects_underflowing_lambda(cli_run, study_assignment_file):
    # lambda^2 rounds to zero, which divided by zero with a traceback
    code, out, err = cli_run(
        ["converge", study_assignment_file, "--lambdas", "1.0,1e-170"])
    assert code == 4 and out == ""
    assert "out of numeric range" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# render and shared plumbing

def test_render_roundtrip(cli_run, word_file, tmp_path):
    _, blob, _ = cli_run(["correlate", word_file("aa++")])
    path = tmp_path / "expr.json"
    path.write_text(blob, encoding="utf-8")
    code, out, _ = cli_run(["render", str(path), "--format", "json"])
    assert code == 0
    assert out == blob
    code, tex, _ = cli_run(["render", str(path)])
    assert code == 0
    assert "q_{\\lambda}" in tex


def test_render_rejects_bad_payload(cli_run, write_json):
    path = write_json("bad.json", {"terms": [{"coeff": "huh"}]})
    code, _, err = cli_run(["render", path])
    assert code == 2
    assert "bad expression data" in err
    # a delta on one label or on an empty (or cancelling) combination
    for delta in ({"kind": "momentum", "a": "k1", "b": "k1"},
                  {"kind": "time", "comb": []},
                  {"kind": "time", "comb": [["t1", 1], ["t1", -1]]},
                  {"kind": "phase", "arg": []}):
        path = write_json("degenerate.json", {"terms": [{
            "coeff": [[1, 1], [0, 1]], "two_pi_power": 0, "lambda_power": 0,
            "phases": [], "deltas": [delta]}]})
        code, out, err = cli_run(["render", path])
        assert code == 2 and out == "", delta
        assert "bad expression data" in err and "degenerate" in err, delta
        assert err.count("\n") == 1, delta


def test_render_rejects_zero_denominator(cli_run, write_json):
    path = write_json("zero.json", {"terms": [{
        "coeff": [[1, 0], [0, 1]], "two_pi_power": 0, "lambda_power": 0,
        "phases": [], "deltas": []}]})
    code, out, err = cli_run(["render", path])
    assert code == 2 and out == ""
    assert "bad expression data" in err and err.count("\n") == 1


def test_render_rejects_polarization_delta(cli_run, write_json):
    # polarizations never reach an expression: a mismatched pair is never formed
    path = write_json("pol.json", {"terms": [{
        "coeff": [[1, 1], [0, 1]], "two_pi_power": 0, "lambda_power": 0,
        "phases": [], "deltas": [{"kind": "pol", "i": 1, "j": 1}]}]})
    code, out, err = cli_run(["render", path])
    assert code == 2 and out == ""
    assert "unknown delta kind" in err and err.count("\n") == 1


def test_render_rejects_a_bad_repeat_of_a_good_phase(cli_run, write_json):
    # the reader reads each distinct phase once: a repeat that differs only
    # in the type of one value is still a new phase, and is still checked
    def phase(weighted=True, time_c=1, arg_c=1):
        return {"time": [["t1", time_c], ["t2", -1]],
                "arg": [[{"kind": "energy", "k": "k1"}, arg_c]],
                "weighted": weighted}

    for bad in (phase(weighted=1), phase(time_c=1.0), phase(arg_c=True)):
        path = write_json("repeat.json", {"terms": [{
            "coeff": [[1, 1], [0, 1]], "two_pi_power": 0, "lambda_power": -2,
            "phases": [ph], "deltas": []} for ph in (phase(), bad)]})
        code, out, err = cli_run(["render", path])
        assert code == 2 and out == "", bad
        assert "bad expression data" in err and err.count("\n") == 1, bad


def _expr_file(write_json, name, time=(("t1", 1), ("t2", -1)), arg=None,
               weighted=False, two_pi_power=0, lambda_power=0):
    energy = {"kind": "energy", "k": "k1"}
    return write_json(name, {"terms": [{
        "coeff": [[1, 1], [0, 1]], "two_pi_power": two_pi_power,
        "lambda_power": lambda_power,
        "phases": [{"time": [list(it) for it in time],
                    "arg": [list(it) for it in arg or ((energy, 1),)],
                    "weighted": weighted}],
        "deltas": []}]})


def test_render_sums_repeated_entries(cli_run, write_json):
    # repeated labels or atoms were overwritten, dropping the first entry
    energy = {"kind": "energy", "k": "k1"}
    path = _expr_file(write_json, "repeat.json",
                      time=(("t1", 1), ("t1", 1), ("t2", -1)),
                      arg=((energy, 1), (energy, 2)))
    code, out, err = cli_run(["render", path])
    assert code == 0 and err == ""
    assert out == ("q_{\\lambda}\\left(2 t_{1} - t_{2},\\, "
                   "3 \\tilde{\\omega}(k_{1})\\right)\n")


def test_render_rejects_non_integer_numbers(cli_run, write_json):
    # a string coefficient raised a TypeError traceback; floats and bools
    # were truncated or read as 1
    energy = {"kind": "energy", "k": "k1"}
    for bad in ("x", 1.5, True, None):
        for fields in ({"time": (("t1", bad), ("t2", -1))},
                       {"arg": ((energy, bad),)},
                       {"two_pi_power": bad}, {"lambda_power": bad}):
            code, out, err = cli_run(
                ["render", _expr_file(write_json, "bad.json", **fields)])
            assert code == 2 and out == "", (bad, fields)
            assert "bad expression data" in err and err.count("\n") == 1
    for bad in (1, "true", None):
        code, out, err = cli_run(
            ["render", _expr_file(write_json, "bad.json", weighted=bad)])
        assert code == 2 and out == "", bad
        assert "weighted" in err and err.count("\n") == 1


def test_word_file_with_non_list_word_is_invalid(cli_run, write_json):
    # a non-list word raised a TypeError traceback
    for bad in (5, None, "a+"):
        code, out, err = cli_run(
            ["correlate", write_json("w.json", {"word": bad})])
        assert code == 3 and out == "", bad
        assert "'word' must be a list" in err and err.count("\n") == 1


def test_word_file_rejects_non_integer_pol(cli_run, write_json):
    # "pol": true was read as polarization 1
    for bad in (True, 1.0):
        path = write_json("w.json", {"mode": "polarized", "word": [
            {"op": "a", "t": "t1", "k": "k1", "pol": bad},
            {"op": "adag", "t": "t2", "k": "k2", "pol": bad}]})
        code, out, err = cli_run(["correlate", path])
        assert code == 3 and out == "", bad
        assert "'pol' must be an integer" in err and err.count("\n") == 1


# argparse's layout on Python 3.11 at width 78, the width it picks when
# stdout is no terminal
HELP = {
    ("--help",): """\
usage: modwick [-h] {correlate,limit,pairings,verify,converge,render} ...

Correlators and limits for the deformed field-atom algebra.

positional arguments:
  {correlate,limit,pairings,verify,converge,render}
    correlate           finite-coupling correlator
    limit               limit correlator
    pairings            enumerate pairings of a word
    verify              run the cross-method suites
    converge            numeric convergence ladders (CSV)
    render              re-render a serialized expression

options:
  -h, --help            show this help message and exit
""",
    ("correlate", "--help"): """\
usage: modwick correlate [-h] [--mode {scalar,polarized}] [--out OUT]
                         [--method {recursion,theorem1}]
                         [--format {json,latex}] [--annotate]
                         word

positional arguments:
  word                  word file (JSON)

options:
  -h, --help            show this help message and exit
  --mode {scalar,polarized}
                        assert the word file's mode
  --out OUT             write output to this path
  --method {recursion,theorem1}
  --format {json,latex}
  --annotate            emit per-pairing terms with crossing tags
""",
}


@pytest.mark.parametrize("columns", [None, "40", "200"])
@pytest.mark.parametrize("argv", list(HELP), ids=" ".join)
def test_help_does_not_depend_on_the_terminal(argv, columns):
    src = os.path.dirname(os.path.dirname(modwick.cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
    env["PYTHONPATH"] = src
    if columns is not None:
        env["COLUMNS"] = columns
    proc = subprocess.run([sys.executable, "-m", "modwick.cli", *argv],
                          env=env, capture_output=True, check=True)
    assert proc.stdout.decode() == HELP[argv]


def test_cli_import_leaves_scipy_unloaded():
    # only the quadrature oracles need scipy, and no command runs one;
    # symbolic commands must not pay for it
    src = os.path.dirname(os.path.dirname(modwick.cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, modwick.cli; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_symbolic_commands_leave_numpy_unloaded(tmp_path):
    # only converge evaluates a kernel; the package loads the numeric
    # layer, and numpy with it, on the first kernel name asked for
    src = os.path.dirname(os.path.dirname(modwick.cli.__file__))
    path = tmp_path / "word.json"
    path.write_text(json.dumps({"word": [
        {"op": "a", "t": "t1", "k": "k1"}, {"op": "adag", "t": "t2", "k": "k2"}]}),
        encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, modwick.cli; imported = 'numpy' in sys.modules; "
         f"code = modwick.cli.main(['correlate', {str(path)!r}]); "
         "print(code, imported, 'numpy' in sys.modules, file=sys.stderr)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True)
    assert proc.stderr == "0 False False\n"
    assert '"terms"' in proc.stdout


def test_missing_file_is_a_parse_error(cli_run, tmp_path):
    code, _, err = cli_run(["correlate", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in err


def test_malformed_json_is_a_parse_error(cli_run, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"mode\": ", encoding="utf-8")
    code, _, err = cli_run(["correlate", str(path)])
    assert code == 2
    assert "parse error at line" in err


def test_unreadable_json_is_a_parse_error(cli_run, tmp_path):
    # each escaped json.load with a traceback: bytes that are no UTF-8, and
    # nesting deeper than the interpreter's recursion limit
    path = tmp_path / "input.json"
    for data in (b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000):
        path.write_bytes(data)
        for command in ("correlate", "render", "converge"):
            code, out, err = cli_run([command, str(path)])
            assert code == 2 and out == "", command
            assert err.startswith("error: ") and err.count("\n") == 1


def test_invalid_word_payload(cli_run, write_json):
    path = write_json("badword.json", {
        "mode": "scalar",
        "word": [{"op": "x", "t": "t1", "k": "k1"}]})
    code, _, err = cli_run(["correlate", path])
    assert code == 3


def test_word_length_cap(cli_run, write_json):
    # written by hand: the library refuses to build a 13-generator Word
    gens = [{"op": "a" if i < 6 else "adag", "t": f"t{i + 1}", "k": f"k{i + 1}"}
            for i in range(13)]
    path = write_json("long.json", {"mode": "scalar", "word": gens})
    code, _, err = cli_run(["pairings", path])
    assert code == 3
    assert err == f"error: {path}: word has 13 generators, limit is 12\n"


def test_mode_mismatch(cli_run, word_file):
    scalar = word_file("a+", name="scalar.json")
    code, _, err = cli_run(["correlate", scalar, "--mode", "polarized"])
    assert code == 3 and "word is scalar" in err
    pol = word_file("a+", pols=[2, 2], name="pol.json")
    code, _, err = cli_run(["correlate", pol, "--mode", "scalar"])
    assert code == 3 and "word is polarized" in err


def test_out_writes_file_and_keeps_stdout_quiet(cli_run, word_file, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = cli_run(
        ["correlate", word_file("a+"), "--out", str(target)])
    assert code == 0
    assert out == ""
    direct = cli_run(["correlate", word_file("a+")])[1]
    assert target.read_text(encoding="utf-8") == direct


def test_unwritable_out_is_a_one_line_error(cli_run, word_file, tmp_path):
    # a missing parent directory, and a directory in place of the file
    path = word_file("a+")
    missing = tmp_path / "absent" / "x.json"
    for target, reason in (
            (missing, f"[Errno 2] No such file or directory: '{missing}'"),
            (tmp_path, f"[Errno 21] Is a directory: '{tmp_path}'")):
        code, out, err = cli_run(["correlate", path, "--out", str(target)])
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: {reason}\n"


def test_correlate_methods_agree_canonically(cli_run, word_file):
    # crossing terms are factored differently by the two routes, so the
    # comparison is canonical equivalence rather than byte equality
    for pattern in ("aa++", "aa+a++", "aaa+++"):
        path = word_file(pattern, name=f"c{len(pattern)}.json")
        a = from_json_dict(json.loads(cli_run(["correlate", path])[1]))
        b = from_json_dict(json.loads(
            cli_run(["correlate", path, "--method", "theorem1"])[1]))
        assert canonically_equal(a, b), pattern
