"""JSON and LaTeX serialization of scalar expressions.

The JSON AST is a plain dictionary tree mirroring the structural term
representation; `from_json_dict(to_json_dict(e))` reproduces `e` exactly,
a whole-number coefficient part read back as an int.  `indented_json`
writes the text of `json.dumps(x, indent=2)`, each term through one
template, rendering each distinct phase and delta once per call and pad.
LaTeX output renders phases as q_{\\lambda}(.., ..) and delta factors as
\\delta(..) for side-by-side reading against handwritten normal forms.
`to_latex` renders each distinct phase and delta once per call, and
`from_json_dict` reads each distinct phase once.
"""

from __future__ import annotations

import functools
import json
import marshal
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .scalars import (
    DOT, ENERGY, MOMENTUM, TIME, Dot, Energy, PDot, ScalarExpr, ScalarTerm,
    comb, momentum_delta, negated, phase_delta, time_delta,
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


def _json_rational(pair):
    """A [numerator, denominator] pair as an int if it is whole, else a Fraction."""
    num, den = pair
    x = Fraction(_json_int(num, "coefficient"), _json_int(den, "coefficient"))
    return x.numerator if x.denominator == 1 else x


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


def _delta_to_json(d: tuple) -> dict:
    if d[0] == MOMENTUM:
        return {"kind": "momentum", "a": d[1], "b": d[2]}
    tag, items = d
    if tag == TIME:
        return {"kind": "time", "comb": _time_to_json(items)}
    return {"kind": "phase", "arg": _arg_to_json(items)}


def _delta_from_json(d: dict) -> tuple:
    kind = d["kind"]
    if kind == "momentum":
        return momentum_delta(_json_label(d["a"]), _json_label(d["b"]))
    if kind == "time":
        return time_delta(_time_from_json(d["comb"]))
    if kind == "phase":
        return phase_delta(_arg_from_json(d["arg"]))
    raise ValueError(f"unknown delta kind: {kind!r}")


def _phase_to_json(ph: tuple) -> dict:
    time, arg, weighted = ph
    return {"time": _time_to_json(time), "arg": _arg_to_json(arg),
            "weighted": weighted}


def term_to_json_dict(term: tuple) -> dict:
    (re, im), two_pi_power, lambda_power, phases, deltas = term
    return {"coeff": [[re.numerator, re.denominator], [im.numerator, im.denominator]],
            "two_pi_power": two_pi_power, "lambda_power": lambda_power,
            "phases": list(map(_phase_to_json, phases)),
            "deltas": list(map(_delta_to_json, deltas))}


def _term_from_json(d: dict, memo: dict) -> tuple:
    re, im = d["coeff"]
    phases = []
    for ph in d["phases"]:
        try:  # marshal bytes record each value's exact type: 1, 1.0 and true differ
            key = marshal.dumps(ph)
        except ValueError:  # a type JSON never makes: read it every time
            key = object()
        if key not in memo:
            if not isinstance(ph["weighted"], bool):
                raise ValueError("phase 'weighted' must be true or false")
            memo[key] = (_time_from_json(ph["time"]), _arg_from_json(ph["arg"]),
                         ph["weighted"])
        phases.append(memo[key])
    deltas = tuple(_delta_from_json(x) for x in d["deltas"])
    return ScalarTerm((_json_rational(re), _json_rational(im)),
                      _json_int(d["two_pi_power"], "two_pi_power"),
                      _json_int(d["lambda_power"], "lambda_power"),
                      tuple(phases), deltas)


def to_json_dict(expr: ScalarExpr) -> dict:
    return {"terms": [term_to_json_dict(t) for t in expr.terms]}


def from_json_dict(d: dict) -> ScalarExpr:
    memo: dict = {}
    return ScalarExpr(tuple(_term_from_json(t, memo) for t in d["terms"]))


def _factor_list(items: tuple, dump, pad: str, memo: dict) -> str:
    """A term's phases or deltas under `pad`, each object rendered once: the memo
    keys it by id and keeps it, so no id is reused and 1 never prints as true."""
    inner = pad + "  "
    texts = [(memo.get((id(x), inner)) or memo.setdefault(
                 (id(x), inner), (x, _indented(dump(x), inner, memo))))[1]
             for x in items]
    return f"[\n{inner}" + f",\n{inner}".join(texts) + f"\n{pad}]" if texts else "[]"


def _term_json(term: tuple, pad: str, memo: dict) -> str:
    """`term_to_json_dict(term)` written under `pad` through one template."""
    (re, im), two_pi_power, lambda_power, phases, deltas = term
    i1 = pad + "  "
    template = memo.get(pad)
    if template is None:  # the term's lines under this pad, its fields left as %s
        i2, i3 = i1 + "  ", i1 + "    "
        pair = f"[\n{i3}%s,\n{i3}%s\n{i2}]"
        template = memo[pad] = (
            f"{{\n{i1}\"coeff\": [\n{i2}{pair},\n{i2}{pair}\n{i1}],\n"
            f"{i1}\"two_pi_power\": %s,\n{i1}\"lambda_power\": %s,\n"
            f"{i1}\"phases\": %s,\n{i1}\"deltas\": %s\n{pad}}}")
    ints = (re.numerator, re.denominator, im.numerator, im.denominator,
            two_pi_power, lambda_power)
    return template % (
        *[_indented(x, i1, memo) for x in ints],
        _factor_list(phases, _phase_to_json, i1, memo),
        _factor_list(deltas, _delta_to_json, i1, memo))


def json_term(term: tuple) -> tuple:
    """A term marked for `indented_json`, which writes its `term_to_json_dict`."""
    return (_term_json, term)


def _indented(x, pad: str, memo: dict) -> str:
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, tuple) and x and x[0] is _term_json:
        return _term_json(x[1], pad, memo)
    inner = pad + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        body = ",\n".join([f"{inner}{encode_basestring_ascii(k)}: "
                           f"{_indented(v, inner, memo)}" for k, v in x.items()])
        return f"{{\n{body}\n{pad}}}"
    if isinstance(x, list):
        if not x:
            return "[]"
        body = ",\n".join([inner + _indented(v, inner, memo) for v in x])
        return f"[\n{body}\n{pad}]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def indented_json(x) -> str:
    """`json.dumps(x, indent=2)`, a `json_term` at any depth standing for
    its `term_to_json_dict`; each distinct phase and delta is rendered once."""
    return _indented(x, "", {})


def to_json_str(expr: ScalarExpr) -> str:
    return indented_json({"terms": list(map(json_term, expr.terms))})


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


def _phase_tex(ph: tuple) -> str:
    time, arg, weighted = ph
    power = ""
    if arg and all(c < 0 for _, c in arg):
        arg = negated(arg)
        power = "^{-1}"
    body = rf"q_{{\lambda}}{power}\left({_time_tex(time)},\, {_arg_tex(arg)}\right)"
    if weighted:
        return rf"\tfrac{{1}}{{\lambda^{{2}}}}\, {body}"
    return body


def _delta_tex(d: tuple) -> str:
    if d[0] == MOMENTUM:
        return rf"\delta({_label_tex(d[1])} - {_label_tex(d[2])})"
    tag, items = d
    if tag == TIME:
        return rf"\delta({_time_tex(items)})"
    return rf"\delta\!\left({_arg_tex(items)}\right)"


def _coeff_tex(c: tuple) -> str:
    def frac(x) -> str:
        if x.denominator == 1:
            return str(x.numerator)
        return rf"\tfrac{{{x.numerator}}}{{{x.denominator}}}"

    re, im = c
    if im == 0:
        return frac(re)
    if re == 0:
        return frac(im) + "i"
    return rf"\left({frac(re)} + {frac(im)}i\right)"


def _term_tex(term: tuple, phase_tex, delta_tex) -> str:
    coeff, two_pi_power, lambda_power, phases, deltas = term
    factors = []
    coeff_text = _coeff_tex(coeff)
    if coeff_text != "1" or (not phases and not deltas
                             and two_pi_power == 0 and lambda_power == 0):
        factors.append(coeff_text)
    if two_pi_power:
        factors.append(rf"(2\pi)^{{{two_pi_power}}}"
                       if two_pi_power != 1 else r"2\pi")
    # weighted phases carry their own 1/lambda^2 marker; show any remainder
    residual = lambda_power + 2 * sum(1 for ph in phases if ph[2])
    if residual:
        factors.append(rf"\lambda^{{{residual}}}")
    factors.extend(map(phase_tex, phases))
    factors.extend(map(delta_tex, deltas))
    return r" \, ".join(factors)


def to_latex(expr: ScalarExpr) -> str:
    if not expr.terms:
        return "0"
    phase_tex, delta_tex = functools.cache(_phase_tex), functools.cache(_delta_tex)
    return "\n+ ".join(_term_tex(t, phase_tex, delta_tex) for t in expr.terms)
