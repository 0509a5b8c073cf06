"""JSON and LaTeX serialization of scalar expressions.

The JSON AST is a plain dictionary tree mirroring the structural term
representation; `from_json_dict(to_json_dict(e))` reproduces `e` exactly.
LaTeX output renders phases as q_{\\lambda}(.., ..) and delta factors as
\\delta(..) for side-by-side reading against handwritten normal forms.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .scalars import (
    DOT, ENERGY, Atom, ContractionPhase, Delta, Dot, MomentumDelta, PhaseArg,
    PhaseDelta, RationalComplex, ScalarExpr, ScalarTerm, TimeComb, TimeDelta,
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


_ATOM_KINDS = ("energy", "dot", "pdot")  # JSON name of each Atom kind


def _atom_to_json(atom: Atom) -> dict:
    if atom.kind == DOT:
        return {"kind": "dot", "a": atom.a, "b": atom.b}
    return {"kind": _ATOM_KINDS[atom.kind], "k": atom.a}


def _atom_from_json(d: dict) -> Atom:
    kind = d["kind"]
    if kind == "dot":
        return Dot(_json_label(d["a"]), _json_label(d["b"]))
    if kind in ("energy", "pdot"):
        return Atom(_ATOM_KINDS.index(kind), _json_label(d["k"]))
    raise ValueError(f"unknown atom kind: {kind!r}")


def _arg_to_json(arg: PhaseArg) -> list:
    return [[_atom_to_json(a), c] for a, c in arg.items]


def _arg_from_json(items: list) -> PhaseArg:
    acc: dict = {}
    for atom_d, c in items:
        atom = _atom_from_json(atom_d)
        acc[atom] = acc.get(atom, 0) + _json_int(c, "phase coefficient")
    return PhaseArg.of(acc)


def _time_to_json(comb: TimeComb) -> list:
    return [[t, c] for t, c in comb.items]


def _time_from_json(items: list) -> TimeComb:
    acc: dict = {}
    for t, c in items:
        t = _json_label(t)
        acc[t] = acc.get(t, 0) + _json_int(c, "time coefficient")
    return TimeComb.of(acc)


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


def term_to_json_dict(term: ScalarTerm) -> dict:
    return {
        "coeff": [_frac_pair(term.coeff.re), _frac_pair(term.coeff.im)],
        "two_pi_power": term.two_pi_power,
        "lambda_power": term.lambda_power,
        "phases": [
            {
                "time": _time_to_json(ph.time),
                "arg": _arg_to_json(ph.arg),
                "weighted": ph.weighted,
            }
            for ph in term.phases
        ],
        "deltas": [_delta_to_json(d) for d in term.deltas],
    }


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


def to_json_str(expr: ScalarExpr) -> str:
    return json.dumps(to_json_dict(expr), indent=2)


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


def _atom_tex(atom: Atom) -> str:
    if atom.kind == ENERGY:
        return rf"\tilde{{\omega}}({_label_tex(atom.a)})"
    if atom.kind == DOT:
        return rf"{_label_tex(atom.a)} \cdot {_label_tex(atom.b)}"
    return rf"{_label_tex(atom.a)} \cdot p"


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


def _time_tex(comb: TimeComb) -> str:
    return _signed_sum([(_label_tex(t), c) for t, c in comb.items])


def _arg_tex(arg: PhaseArg) -> str:
    return _signed_sum([(_atom_tex(a), c) for a, c in arg.items])


def _phase_tex(ph: ContractionPhase) -> str:
    arg = ph.arg
    power = ""
    if arg.items and all(c < 0 for _, c in arg.items):
        arg = arg.negated()
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
