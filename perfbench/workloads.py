"""The three benchmark workloads: seeded inputs, the ops, and their oracles.

Each workload is a closed loop: one client in one process sends its next
request only after the previous one returned.  A *pass* is the workload's
fixed list of ops and a *step* the ``step`` ops that follow each other in
it; a run cycles through the pass and may stop after any step once it has
completed a whole pass.  Every op calls the program
through a public entry point (``modwick.cli.main`` or a ``modwick.kernels``
function), looked up on its module at call time so that the tracer's
wrappers see the call.

The oracles run after the timed part and share no formula with the route
they check:

* ``verify-sweep``: exit 0 and the exact verdict line;
* ``block-requests``: ``recursion`` and ``theorem1`` outputs parsed back are
  canonically equal; ``limit --check-all`` exits 0; the ``pairings`` count
  equals a right-to-left product formula; ``render`` of the correlate JSON
  reproduces ``correlate --format latex`` byte for byte; every output's
  sha256 matches the digest recorded in ``digests.json`` when its request
  is listed there;
* ``numeric-crosscheck``: closed form and quadrature oracle differ by less
  than a tolerance times the closed form's magnitude at lambda = 1;
  ``converge`` rows match the textbook Gaussian integrals.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field

import modwick.cli
from modwick import kernels, pairings, scalars, serialize, words

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_cli(argv: list) -> int:
    """One CLI request, in process, with stdout and stderr discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return modwick.cli.main(argv)
        except SystemExit as e:  # argparse rejects its input this way
            return e.code if isinstance(e.code, int) else 1


@dataclass
class Op:
    """One request of a pass.

    ``run`` returns the exit code (CLI ops, whose output lands in ``out``)
    or a tuple of numbers (library ops).  ``key`` names the request in the
    digest table; ``None`` means it is not recorded there.  An op may appear
    more than once in a pass; its samples are pooled by ``name``.
    """

    name: str
    run: object
    out: str | None = None
    key: str | None = None
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# pairing counts, computed without the program


def pairing_count(gens) -> int:
    """Number of pairings of a word, by an independent product formula.

    ``gens`` is a sequence of (is_creator, polarization) pairs.  Pairings
    only join equal polarizations, so the count is a product over
    polarization classes.  Within a class, scanning right to left, each
    annihilator can take any creator to its right that the annihilators to
    its right have not already taken.
    """
    total = 1
    for pol in sorted({p for _, p in gens}, key=repr):
        creators = annihilators = 0
        for dagger, p in reversed(gens):
            if p != pol:
                continue
            if dagger:
                creators += 1
            else:
                total *= creators - annihilators
                annihilators += 1
                if total <= 0:
                    return 0
        if creators != annihilators:
            return 0
    return total


def dyck_patterns(length: int = 12) -> list:
    """The bracket-balanced patterns of a length, with their pairing counts."""
    out = []
    for chars in itertools.product("a+", repeat=length):
        pattern = "".join(chars)
        n = pairing_count([(ch == "+", None) for ch in pattern])
        if n:
            out.append((pattern, n))
    return out


def check_pairing_formula() -> str | None:
    """The count oracle itself: 132 patterns, 11!! = 10395 pairings in all,
    and the program's enumeration agrees on every pattern."""
    patterns = dyck_patterns()
    total = sum(n for _, n in patterns)
    if len(patterns) != 132 or total != 10395:
        return f"{len(patterns)} patterns with {total} pairings, expected 132 and 10395"
    for pattern, n in patterns:
        got = len(pairings.enumerate_pairings(words.word_from_pattern(pattern)))
        if got != n:
            return f"{pattern}: formula {n}, enumerate_pairings {got}"
    return None


# ---------------------------------------------------------------------------
# verify-sweep

VERIFY_MAX_N = 4
VERIFY_VERDICT = "RESULT pass: 8 suites, 5477 cases"


class VerifySweep:
    """``verify --max-n 4``: every pattern of length <= 8 in three modes.

    ``verify`` generates its own inputs, so the seed has no effect.
    """

    name = "verify-sweep"
    warmup = 0  # leading ops of the pass run once, untimed, before timing
    smoke_ops = 1
    step = 1

    def __init__(self, seed: int, workdir: str):
        out = os.path.join(workdir, "verify-report.txt")
        self.ops = [Op("verify", lambda: run_cli(
            ["verify", "--max-n", str(VERIFY_MAX_N), "--out", out]), out)]

    def check(self, op: Op, value) -> str | None:
        with open(op.out, encoding="utf-8") as fh:
            last = fh.read().rstrip("\n").rsplit("\n", 1)[-1]
        if last != VERIFY_VERDICT:
            return f"verdict {last!r}, expected {VERIFY_VERDICT!r}"
        return None


# ---------------------------------------------------------------------------
# block-requests

BLOCK_PATTERN = "aaaaaa++++++"
# The light words of a pass: bracket-balanced length-12 patterns in all
# three modes.  The patterns and modes are fixed and the seed renames their
# time and momentum labels: words with equal pairing counts still differ up
# to twofold in cost, so seeded pattern draws moved the median op latency
# by about 30% from seed to seed.
LIGHT_WORDS = (
    ("aa+aa+++a+a+", "uniform"),  # 12 pairings
    ("aaa++a+a++a+", "scalar"),  # 24
    ("aaa+a++a++a+", "uniform"),  # 36
    ("aa+a+aa+a+++", "scalar"),  # 72
    ("aaaa+a+a++++", "cyclic"),  # 384, of which 4 polarization-compatible
    ("aaaa++a++a++", "cyclic"),  # 144, none compatible
)
REQUESTS = (
    ("correlate-recursion", ["correlate", "{word}", "--method", "recursion"]),
    ("correlate-theorem1", ["correlate", "{word}", "--method", "theorem1"]),
    ("correlate-latex", ["correlate", "{word}", "--format", "latex"]),
    ("limit-check-all", ["limit", "{word}", "--method", "limit-of-theorem1",
                         "--check-all"]),
    ("pairings-annotate", ["pairings", "{word}", "--annotate"]),
    ("render-latex", ["render", "{correlate-recursion}", "--format", "latex"]),
)
# A step requests every light word once, then one request on the block
# word; a pass is six steps, one per block request.  A light request takes
# 3-200 ms and its run median needs many samples, which this order gives
# without waiting for six seconds of block-word work between rounds, and a
# run can stop after any step instead of only after whole block-word rounds.


def _pols(mode: str) -> list:
    if mode == "scalar":
        return [None] * 12
    if mode == "uniform":
        return [1] * 12
    return [i % 3 + 1 for i in range(12)]


def word_file_dict(pattern: str, mode: str, t_labels, k_labels) -> dict:
    entries = []
    for ch, pol, t, k in zip(pattern, _pols(mode), t_labels, k_labels):
        entry = {"op": "adag" if ch == "+" else "a", "t": t, "k": k}
        if pol is not None:
            entry["pol"] = pol
        entries.append(entry)
    return {"mode": "scalar" if mode == "scalar" else "polarized",
            "word": entries}


def base_labels(prefix: str) -> list:
    return [f"{prefix}{i}" for i in range(1, 13)]


def seeded_labels(rng, prefix: str) -> list:
    """Twelve fresh label names that sort exactly as ``base_labels`` do.

    The engine breaks ties by label order (the smallest label represents
    its class), so relabelling that changes the order changes the work:
    it moved single requests by up to 1.7x.  Keeping the order keeps every
    seed's work the same while the inputs and outputs differ.
    """
    names = sorted(f"{prefix}{n}" for n in rng.sample(range(1, 1000), 12))
    out = [None] * 12
    for name, label in zip(names, sorted(base_labels(prefix))):
        out[int(label[len(prefix):]) - 1] = name
    return out


def block_words(seed: int) -> list:
    """(word id, word-file dict) for the words of a pass, block word last.

    The block word keeps its labels t1..t12, k1..k12, so its outputs are
    the same on every seed and always checked against the recorded
    digests.
    """
    rng = random.Random(f"block-requests:{seed}")
    out = []
    for i, (pattern, mode) in enumerate(LIGHT_WORDS, 1):
        out.append((f"w{i}", word_file_dict(
            pattern, mode, seeded_labels(rng, "t"), seeded_labels(rng, "k"))))
    out.append(("block", word_file_dict(
        BLOCK_PATTERN, "scalar", base_labels("t"), base_labels("k"))))
    return out


class BlockRequests:
    """CLI requests on 12-generator words, six request kinds per word."""

    name = "block-requests"
    warmup = len(LIGHT_WORDS) * len(REQUESTS)  # one round of the light words
    smoke_ops = 2 * len(REQUESTS)  # the two lightest words, once
    step = len(LIGHT_WORDS) * len(REQUESTS) + 1

    def __init__(self, seed: int, workdir: str):
        self.words = {}
        self._outs = {}
        ops = {}
        for wid, data in block_words(seed):
            text = json.dumps(data, sort_keys=True) + "\n"
            path = os.path.join(workdir, f"{wid}.word.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            word_key = hashlib.sha256(text.encode()).hexdigest()[:16]
            self.words[wid] = data
            outs = {"word": path}
            ops[wid] = []
            for req, template in REQUESTS:
                out = os.path.join(workdir, f"{wid}.{req}.out")
                argv = [a.format(**outs) for a in template] + ["--out", out]
                outs[req] = out
                self._outs[f"{wid}.{req}"] = out
                ops[wid].append(Op(
                    f"{wid}.{req}", (lambda argv=argv: run_cli(argv)), out,
                    f"{word_key}.{req}", {"word": wid, "request": req}))
        block = ops.pop("block")
        light = [op for word_ops in ops.values() for op in word_ops]
        self.ops = [op for block_op in block for op in light + [block_op]]

    def check(self, op: Op, value) -> str | None:
        wid, req = op.info["word"], op.info["request"]
        if req in ("correlate-recursion", "correlate-theorem1"):
            a = self._parse(f"{wid}.correlate-recursion")
            b = self._parse(f"{wid}.correlate-theorem1")
            if not scalars.canonically_equal(a, b):
                return "recursion and theorem1 outputs are not canonically equal"
        elif req == "pairings-annotate":
            with open(op.out, encoding="utf-8") as fh:
                data = json.load(fh)
            gens = [(g["op"] == "adag", g.get("pol"))
                    for g in self.words[wid]["word"]]
            want = pairing_count(gens)
            if data["count"] != want or len(data["pairings"]) != want:
                return f"pairings count {data['count']}, formula gives {want}"
        elif req == "render-latex":
            if _read(op.out) != _read(self._outs[f"{wid}.correlate-latex"]):
                return "render of the correlate JSON differs from correlate --format latex"
        return None

    def _parse(self, name: str):
        return serialize.from_json_str(_read(self._outs[name]))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# numeric-crosscheck

# Scaled error bound: |closed - oracle| <= NUMERIC_TOL * |closed form at
# lambda = 1|.  Suppressed crossing terms reach 1e-70, where a relative
# error means nothing; the lambda = 1 magnitude is the term's natural scale.
# On the input ranges below the scaled error stays near 2e-14.
NUMERIC_TOL = 1e-9
GRID_POINTS = 48  # term_value oracle grid, per axis
LADDER = 8  # lambdas in [0.5, 1] per term_convergence op
OPS_PER_KIND = 8
TERM_VALUE_WORDS = (("aa++", 1), ("aa++", 0), ("a+a+", 0))
CONVERGE_LAMBDAS = (1.0, 0.4, 0.2, 0.1, 0.05)


def _gauss(rng) -> kernels.GaussianTest:
    return kernels.GaussianTest(round(rng.uniform(-0.5, 0.5), 3),
                                round(rng.uniform(0.8, 1.2), 3))


def _vec(rng, r: float = 0.6) -> list:
    return [round(rng.uniform(-r, r), 3) for _ in range(3)]


def _assignment(rng, n: int) -> kernels.Assignment:
    return kernels.Assignment({f"k{i}": _vec(rng) for i in range(1, n + 1)},
                              _vec(rng, 0.3))


def _term(pattern: str, crossings: int, index: int = 0):
    """The index-th closed-form term of a pattern with that many crossings."""
    w = words.word_from_pattern(pattern)
    terms = [at.term for at in pairings.annotated_pairing_terms(w)
             if at.crossings == crossings]
    return kernels.strip_momentum_deltas(terms[index])


def _delta_op(f, g, h, lam):
    return (kernels.delta_kernel(f, g, h, lam),
            kernels.delta_kernel_quadrature(f, g, h, lam))


def _term_value_op(pattern, crossings, tests, a):
    term = _term(pattern, crossings)
    return (kernels.term_value(term, tests, a, 1.0),
            kernels.term_value_quadrature(term, tests, a, 1.0,
                                          points=GRID_POINTS))


def _term_convergence_op(crossings, index, tests, a, lams):
    term = _term("aaa+++", crossings, index)
    closed = [row.value for row in kernels.term_convergence(term, tests, a, lams)]
    return (closed, [kernels.term_convergence_quadrature(term, tests, a, lam)
                     for lam in lams])


AAA_TERMS = ((3, 0), (2, 0), (2, 1), (1, 0), (1, 1), (0, 0))


class NumericCrosscheck:
    """Closed-form kernels against their quadrature oracles, seeded inputs.

    Which term each op evaluates is fixed by its position in the pass; the
    seed draws the Gaussian centres and widths, the momenta, ``p`` and the
    lambdas.
    """

    name = "numeric-crosscheck"
    warmup = 1
    smoke_ops = 4  # one op of each kind
    step = 4

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"numeric-crosscheck:{seed}")
        self.ops = []
        for i in range(OPS_PER_KIND):
            f, g, h = _gauss(rng), _gauss(rng), _gauss(rng)
            lam = round(rng.uniform(0.5, 1.0), 3)
            self.ops.append(Op(
                f"delta{i}", (lambda f=f, g=g, h=h, lam=lam: _delta_op(f, g, h, lam)),
                info={"kind": "delta", "args": (f, g, h)}))

            pattern, crossings = TERM_VALUE_WORDS[i % len(TERM_VALUE_WORDS)]
            tests = {f"t{j}": _gauss(rng) for j in range(1, 5)}
            a = _assignment(rng, 4)
            self.ops.append(Op(
                f"term_value{i}",
                (lambda p=pattern, c=crossings, t=tests, a=a: _term_value_op(p, c, t, a)),
                info={"kind": "term_value", "term": (pattern, crossings),
                      "tests": tests, "a": a}))

            crossings, index = AAA_TERMS[i % len(AAA_TERMS)]
            tests = {f"t{j}": _gauss(rng) for j in range(1, 7)}
            a = _assignment(rng, 6)
            lams = sorted((round(rng.uniform(0.5, 1.0), 3) for _ in range(LADDER)),
                          reverse=True)
            self.ops.append(Op(
                f"term_convergence{i}",
                (lambda c=crossings, x=index, t=tests, a=a, lams=lams:
                 _term_convergence_op(c, x, t, a, lams)),
                info={"kind": "term_convergence", "term": (crossings, index),
                      "tests": tests, "a": a}))

            k1, k2 = _vec(rng, 1.0), _vec(rng, 1.0)
            x = round(rng.uniform(0.5, 1.5), 3)
            path = os.path.join(workdir, f"assignment{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"momenta": {"k1": k1, "k2": k2}, "p": _vec(rng, 0.3),
                           "vanishing_x": x}, fh)
            out = os.path.join(workdir, f"converge{i}.csv")
            argv = ["converge", path, "--out", out, "--lambdas",
                    ",".join(str(lam) for lam in CONVERGE_LAMBDAS)]
            self.ops.append(Op(
                f"converge{i}", (lambda argv=argv: run_cli(argv)), out,
                info={"kind": "converge", "x": x,
                      "c": sum(p * q for p, q in zip(k1, k2))}))

    def check(self, op: Op, value) -> str | None:
        kind = op.info["kind"]
        if kind == "converge":
            return _check_converge(op.out, op.info["x"], op.info["c"])
        closed, oracle = value
        if kind == "delta":
            scale = abs(kernels.delta_kernel(*op.info["args"], 1.0))
        elif kind == "term_value":
            scale = abs(closed)  # the op already runs at lambda = 1
        else:
            term = _term("aaa+++", *op.info["term"])
            scale = abs(kernels.term_convergence(
                term, op.info["tests"], op.info["a"], [1.0])[0].value)
        if kind != "term_convergence":
            closed, oracle = [closed], [oracle]
        err = max(abs(c - o) for c, o in zip(closed, oracle))
        if not (math.isfinite(err) and scale > 0 and err <= NUMERIC_TOL * scale):
            return f"scaled error {err / scale if scale else math.inf:.3e} > {NUMERIC_TOL}"
        return None


def _check_converge(path: str, x: float, c: float) -> str | None:
    """Every ``converge`` row against the Gaussian integrals in closed form.

    With standard Gaussians the weighted kernel is 2 pi^(3/2) / sqrt(1 +
    lam^4 / 2), the plain oscillation sqrt(2 pi) exp(-x^2 / (2 lam^4)), the
    non-crossing four-point term 4 pi^3 and the crossing one
    4 pi^3 exp(-c^2 / (2 lam^4)) with c = k1.k2.
    """
    expect = {
        "delta_kernel": lambda lam: 2 * math.pi ** 1.5 / math.sqrt(1 + lam ** 4 / 2),
        "vanishing_kernel": lambda lam: math.sqrt(2 * math.pi) * math.exp(-x * x / (2 * lam ** 4)),
        "noncrossing_4pt": lambda lam: 4 * math.pi ** 3,
        "crossing_4pt": lambda lam: 4 * math.pi ** 3 * math.exp(-c * c / (2 * lam ** 4)),
    }
    seen = {}
    study = None
    with open(path, encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if row[0].startswith("# study="):
                study = row[0][len("# study="):].split()[0]
                continue
            if row[0].startswith("#") or row[0] == "lambda":
                continue
            lam, re_v, im_v = (float(v) for v in row[:3])
            want = expect[study](lam)
            scale = expect[study](1.0)
            if not abs(complex(re_v, im_v) - want) <= NUMERIC_TOL * scale:
                return f"{study} at lambda={lam}: {re_v}+{im_v}i, expected {want}"
            seen[study] = seen.get(study, 0) + 1
    if seen != {s: len(CONVERGE_LAMBDAS) for s in expect}:
        return f"converge sections {seen}"
    return None


WORKLOADS = {w.name: w for w in (VerifySweep, BlockRequests, NumericCrosscheck)}
