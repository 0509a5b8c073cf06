"""JSON and LaTeX serialization of scalar expressions.

The JSON AST is a plain dictionary tree mirroring the structural term
representation; `from_json_dict(to_json_dict(e))` reproduces `e` exactly.
`indented_json` writes the text of `json.dumps(x, indent=2)` from the terms.
LaTeX output renders phases as q_{\\lambda}(.., ..) and delta factors as
\\delta(..) for side-by-side reading against handwritten normal forms.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .scalars import (
    DOT, ENERGY, ContractionPhase, Delta, Dot, Energy, MomentumDelta, PDot,
    PhaseDelta, RationalComplex, ScalarExpr, ScalarTerm, TimeDelta, comb,
    negated,
)


# ---------------------------------------------------------------------------
# JSON

def _json_int(value, what: str) -> int:
    # bool is an int subclass, but JSON true is no integer
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_label(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"label must be a string, got {value!r}")
    return value


def _json_fraction(pair) -> Fraction:
    num, den = pair
    return Fraction(_json_int(num, "coefficient"), _json_int(den, "coefficient"))


# JSON name of each kind of plain (kind, a, b) atom; its text key is `atom_text`
_ATOM_KINDS = ("energy", "dot", "pdot")


def _atom_to_json(atom: tuple) -> dict:
    kind, a, b = atom
    if kind == DOT:
        return {"kind": "dot", "a": a, "b": b}
    return {"kind": _ATOM_KINDS[kind], "k": a}


def _atom_from_json(d: dict) -> tuple:
    kind = d["kind"]
    if kind == "dot":
        return Dot(_json_label(d["a"]), _json_label(d["b"]))
    if kind in ("energy", "pdot"):
        return (Energy if kind == "energy" else PDot)(_json_label(d["k"]))
    raise ValueError(f"unknown atom kind: {kind!r}")


def _arg_to_json(arg: tuple) -> list:
    return [[_atom_to_json(a), c] for a, c in arg]


def _arg_from_json(items: list) -> tuple:
    acc: dict = {}
    for atom_d, c in items:
        atom = _atom_from_json(atom_d)
        acc[atom] = acc.get(atom, 0) + _json_int(c, "phase coefficient")
    return comb(acc)


def _time_to_json(time: tuple) -> list:
    return [[t, c] for t, c in time]


def _time_from_json(items: list) -> tuple:
    acc: dict = {}
    for t, c in items:
        t = _json_label(t)
        acc[t] = acc.get(t, 0) + _json_int(c, "time coefficient")
    return comb(acc)


def _delta_to_json(d: Delta) -> dict:
    if isinstance(d, MomentumDelta):
        return {"kind": "momentum", "a": d.a, "b": d.b}
    if isinstance(d, TimeDelta):
        return {"kind": "time", "comb": _time_to_json(d.comb)}
    return {"kind": "phase", "arg": _arg_to_json(d.arg)}


def _delta_from_json(d: dict) -> Delta:
    kind = d["kind"]
    if kind == "momentum":
        return MomentumDelta(_json_label(d["a"]), _json_label(d["b"]))
    if kind == "time":
        return TimeDelta(_time_from_json(d["comb"]))
    if kind == "phase":
        return PhaseDelta(_arg_from_json(d["arg"]))
    raise ValueError(f"unknown delta kind: {kind!r}")


def _frac_pair(x: Fraction) -> list:
    return [x.numerator, x.denominator]


def _phase_to_json(ph: ContractionPhase) -> dict:
    return {"time": _time_to_json(ph.time), "arg": _arg_to_json(ph.arg),
            "weighted": ph.weighted}


def _term_fields(term: ScalarTerm, phases: list, deltas: list) -> dict:
    return {"coeff": [_frac_pair(term.coeff.re), _frac_pair(term.coeff.im)],
            "two_pi_power": term.two_pi_power, "lambda_power": term.lambda_power,
            "phases": phases, "deltas": deltas}


def term_to_json_dict(term: ScalarTerm) -> dict:
    return _term_fields(term, [_phase_to_json(ph) for ph in term.phases],
                        [_delta_to_json(d) for d in term.deltas])


def term_from_json_dict(d: dict) -> ScalarTerm:
    re, im = d["coeff"]
    phases = []
    for ph in d["phases"]:
        if not isinstance(ph["weighted"], bool):
            raise ValueError("phase 'weighted' must be true or false")
        phases.append(ContractionPhase(_time_from_json(ph["time"]),
                                       _arg_from_json(ph["arg"]), ph["weighted"]))
    deltas = tuple(_delta_from_json(x) for x in d["deltas"])
    return ScalarTerm(RationalComplex(_json_fraction(re), _json_fraction(im)),
                      _json_int(d["two_pi_power"], "two_pi_power"),
                      _json_int(d["lambda_power"], "lambda_power"),
                      tuple(phases), deltas)


def to_json_dict(expr: ScalarExpr) -> dict:
    return {"terms": [term_to_json_dict(t) for t in expr.terms]}


def from_json_dict(d: dict) -> ScalarExpr:
    return ScalarExpr(tuple(term_from_json_dict(t) for t in d["terms"]))


def _indented(x, pad: str, memo: dict) -> str:
    # a phase or delta under one pad always prints the same lines
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, ScalarTerm):
        x = _term_fields(x, list(x.phases), list(x.deltas))
    elif isinstance(x, ContractionPhase | Delta):
        text = memo.get((x, pad))
        if text is None:
            dump = _phase_to_json if isinstance(x, ContractionPhase) else _delta_to_json
            text = memo[x, pad] = _indented(dump(x), pad, memo)
        return text
    inner = pad + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        body = ",\n".join(f"{inner}{encode_basestring_ascii(k)}: "
                          f"{_indented(v, inner, memo)}" for k, v in x.items())
        return f"{{\n{body}\n{pad}}}"
    if isinstance(x, list):
        if not x:
            return "[]"
        body = ",\n".join(inner + _indented(v, inner, memo) for v in x)
        return f"[\n{body}\n{pad}]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def indented_json(x) -> str:
    """`json.dumps(x, indent=2)`, a ScalarTerm at any depth standing for its
    `term_to_json_dict`; each distinct phase and delta is rendered once."""
    return _indented(x, "", {})


def to_json_str(expr: ScalarExpr) -> str:
    return indented_json({"terms": list(expr.terms)})


def from_json_str(s: str) -> ScalarExpr:
    return from_json_dict(json.loads(s))


# ---------------------------------------------------------------------------
# LaTeX

def _label_tex(label: str) -> str:
    head = label.rstrip("0123456789")
    tail = label[len(head):]
    if head and tail:
        return f"{head}_{{{tail}}}"
    return label


def _atom_tex(atom: tuple) -> str:
    kind, a, b = atom
    if kind == ENERGY:
        return rf"\tilde{{\omega}}({_label_tex(a)})"
    if kind == DOT:
        return rf"{_label_tex(a)} \cdot {_label_tex(b)}"
    return rf"{_label_tex(a)} \cdot p"


def _signed_sum(parts: list) -> str:
    out = ""
    for text, coeff in parts:
        mag = abs(coeff)
        piece = text if mag == 1 else f"{mag} {text}"
        if not out:
            out = piece if coeff > 0 else f"-{piece}"
        else:
            out += f" + {piece}" if coeff > 0 else f" - {piece}"
    return out or "0"


def _time_tex(time: tuple) -> str:
    return _signed_sum([(_label_tex(t), c) for t, c in time])


def _arg_tex(arg: tuple) -> str:
    return _signed_sum([(_atom_tex(a), c) for a, c in arg])


def _phase_tex(ph: ContractionPhase) -> str:
    arg = ph.arg
    power = ""
    if arg and all(c < 0 for _, c in arg):
        arg = negated(arg)
        power = "^{-1}"
    body = rf"q_{{\lambda}}{power}\left({_time_tex(ph.time)},\, {_arg_tex(arg)}\right)"
    if ph.weighted:
        return rf"\tfrac{{1}}{{\lambda^{{2}}}}\, {body}"
    return body


def _delta_tex(d: Delta) -> str:
    if isinstance(d, MomentumDelta):
        return rf"\delta({_label_tex(d.a)} - {_label_tex(d.b)})"
    if isinstance(d, TimeDelta):
        return rf"\delta({_time_tex(d.comb)})"
    return rf"\delta\!\left({_arg_tex(d.arg)}\right)"


def _coeff_tex(c: RationalComplex) -> str:
    def frac(x: Fraction) -> str:
        if x.denominator == 1:
            return str(x.numerator)
        return rf"\tfrac{{{x.numerator}}}{{{x.denominator}}}"

    if c.im == 0:
        return frac(c.re)
    if c.re == 0:
        return frac(c.im) + "i"
    return rf"\left({frac(c.re)} + {frac(c.im)}i\right)"


def term_to_latex(term: ScalarTerm) -> str:
    factors = []
    coeff = _coeff_tex(term.coeff)
    if coeff != "1" or (not term.phases and not term.deltas
                        and term.two_pi_power == 0 and term.lambda_power == 0):
        factors.append(coeff)
    if term.two_pi_power:
        factors.append(rf"(2\pi)^{{{term.two_pi_power}}}"
                       if term.two_pi_power != 1 else r"2\pi")
    # weighted phases carry their own 1/lambda^2 marker; show any remainder
    residual = term.lambda_power + 2 * len(term.weighted_phases())
    if residual:
        factors.append(rf"\lambda^{{{residual}}}")
    factors.extend(_phase_tex(ph) for ph in term.phases)
    factors.extend(_delta_tex(d) for d in term.deltas)
    return r" \, ".join(factors)


def to_latex(expr: ScalarExpr) -> str:
    if not expr.terms:
        return "0"
    return "\n+ ".join(term_to_latex(t) for t in expr.terms)
