"""Declarative document formats: presentations, algebroids, maps, comodules.

All files are UTF-8 INI documents.  A presentation file has sections
[base] (mode, p), [generators] (name = degree, in order), [relations]
(name or name^k = polynomial expression, "0" kills), [inverted]
(names = space-separated list) and [truncation] (D = bound).  Polynomial
expressions use integers, generator names, `+ - * ^` and parentheses;
exponents may be negative on inverted generators.

An algebroid file is a presentation file for Gamma extended with an
[algebroid] section (base = path of A's presentation file, morphisms =
the morphism generators) and a [maps] section: etaL/etaR one image
expression per A-generator, epsilon/c one per Gamma-generator, delta one
per morphism generator written as sums of l(expr)*r(expr) tensor words.
Image lists are semicolon-separated.

A map file points at two algebroid files ([map] source/target) and lists
[f0]/[f1] images.  A comodule file points at one algebroid and gives
[generators] plus [psi] coaction words `g(expr)(x)gen` (the literal
tensor glyph is also accepted).

Emission is deterministic (sorted monomials, fixed spacing), so
emit -> parse -> emit is byte-identical.
"""
from __future__ import annotations

import configparser
import os
import re

from .errors import InputError, ParseError, SolveFailure
from .hopf import HopfAlgebroid, TensorSquare
from .morita import HopfMap
from .presentation import BaseMode, GradedPresentation, RingMorphism

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9']*|\^|[()+\-*])")


def _tokenize(text):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"bad character at ...{text[pos:pos+12]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _ExprParser:
    """Recursive-descent parser over a presentation.

    `special` maps callable atom names (like "l", "r") to functions
    Element -> Element applied to a parenthesized subexpression; the
    subexpression itself is evaluated over `inner` (default: the same
    presentation)."""

    def __init__(self, pres, special=None, inner=None, bare_names=True):
        self.pres = pres
        self.special = special or {}
        self.inner = inner or pres
        self.bare_names = bare_names
        self._in_special = 0
        self.toks = []
        self.i = 0

    def parse(self, text):
        self.toks = _tokenize(text)
        self.i = 0
        e = self._expr(self.pres)
        if self.i != len(self.toks):
            raise ParseError(f"trailing input at token {self.toks[self.i]!r}")
        return e

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self):
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of expression")
        self.i += 1
        return t

    def _expr(self, P):
        t = self._peek()
        neg = False
        if t in ("+", "-"):
            self._next()
            neg = t == "-"
        acc = self._term(P)
        if neg:
            acc = -acc
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._term(P)
            acc = acc - rhs if op == "-" else acc + rhs
        return acc

    def _term(self, P):
        acc = self._factor(P)
        while self._peek() == "*":
            self._next()
            acc = acc * self._factor(P)
        return acc

    def _factor(self, P):
        base = self._atom(P)
        while self._peek() == "^":
            self._next()
            sign = 1
            if self._peek() == "-":
                self._next()
                sign = -1
            t = self._next()
            if not t.isdigit():
                raise ParseError(f"exponent expected, got {t!r}")
            try:
                base = base ** (sign * int(t))
            except SolveFailure:
                raise ParseError(
                    "negative power of a non-invertible element"
                ) from None
        return base

    def _atom(self, P):
        t = self._next()
        if t == "(":
            e = self._expr(P)
            if self._next() != ")":
                raise ParseError("missing )")
            return e
        if t == "-":
            return -self._atom(P)
        if t.isdigit():
            return P.scalar(int(t))
        if t in self.special and self._peek() == "(":
            self._next()
            self._in_special += 1
            e = self._expr(self.inner)
            self._in_special -= 1
            if self._next() != ")":
                raise ParseError("missing )")
            return self.special[t](e)
        if not self.bare_names and not self._in_special:
            raise ParseError(f"bare generator {t!r} not allowed here")
        if t in P.index:
            return P.gen(P.index[t])
        raise ParseError(f"unknown generator {t!r}")


def parse_expression(P, text, special=None, inner=None, bare_names=True):
    return _ExprParser(P, special, inner, bare_names).parse(text)


# ---------------------------------------------------------------------------
# writing expressions back out


def _mono_str(names, mono, skip=()):
    parts = []
    for i, e in enumerate(mono):
        if e == 0 or i in skip:
            continue
        parts.append(names[i] if e == 1 else f"{names[i]}^{e}")
    return "*".join(parts)


def _coeff_int(c):
    if hasattr(c, "denominator") and c.denominator != 1:
        raise ParseError(f"coefficient {c} has no integer file form")
    return int(c)


def _signed_sum(elem, spell):
    """`elem` as `t1 - t2 + ...` over its sorted terms, `spell(mono, |c|)`
    writing each term; "0" for zero."""
    out = ""
    for mono, c in sorted(elem.terms.items()):
        c = _coeff_int(c)
        if out:
            out += " - " if c < 0 else " + "
        elif c < 0:
            out = "-"
        out += spell(mono, abs(c))
    return out or "0"


def element_str(elem, names=None):
    """Deterministic expression string for an element (sorted monomials)."""
    names = names or elem.pres.names

    def spell(mono, mag):
        ms = _mono_str(names, mono)
        if not ms:
            return str(mag)
        return ms if mag == 1 else f"{mag}*{ms}"

    return _signed_sum(elem, spell)


# ---------------------------------------------------------------------------
# presentation files


def _int(text, what):
    """An integer read from a document; ParseError otherwise."""
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"{what}: {text!r} is not an integer") from exc


def read_config(path):
    """The INI document at `path`, read as UTF-8; ParseError if it is
    malformed."""
    cp = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    cp.optionxform = str
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc
    return cp


def _presentation_from_config(cp, name_hint=""):
    if not cp.has_section("base") or not cp.has_section("generators"):
        raise ParseError("presentation needs [base] and [generators]")
    kind = cp.get("base", "mode", fallback="int").strip()
    p = cp.get("base", "p", fallback=None) if kind != "int" else None
    try:
        mode = BaseMode(kind, None if p is None else _int(p, "p"))
    except InputError as exc:
        raise ParseError(str(exc)) from exc
    gens = [(n, _int(v, f"degree of {n}")) for n, v in cp.items("generators")]
    D = _int(cp.get("truncation", "D", fallback="64"), "D")
    inverted = []
    if cp.has_section("inverted"):
        inverted = cp.get("inverted", "names", fallback="").split()
    # first pass: a rule-free twin to read relation polynomials raw
    twin = GradedPresentation(
        mode, gens, inverted=inverted, truncation=D, name="twin"
    )
    relations = {}
    if cp.has_section("relations"):
        for key, val in cp.items("relations"):
            if "^" in key:
                gname, k = key.split("^", 1)
                power = _int(k, f"power of {gname}")
            else:
                gname, power = key, 1
            if gname not in twin.index:
                raise ParseError(f"relation for unknown generator {gname!r}")
            val = val.strip()
            rhs = []
            if val != "0":
                elem = parse_expression(twin, val)
                rhs = [(c, m) for m, c in sorted(elem.terms.items())]
            relations[gname] = (power, rhs)
    name = cp.get("base", "name", fallback=name_hint)
    return GradedPresentation(
        mode, gens, relations=relations, inverted=inverted, truncation=D,
        name=name,
    )


def parse_presentation(path):
    cp = read_config(path)
    return _presentation_from_config(cp, os.path.basename(path))


def emit_presentation(P):
    lines = ["[base]", f"mode = {P.mode.kind}"]
    if P.mode.p is not None:
        lines.append(f"p = {P.mode.p}")
    if P.name:
        lines.append(f"name = {P.name}")
    lines += ["", "[generators]"]
    for n, d in P.gens:
        lines.append(f"{n} = {d}")
    if P.rules:
        lines += ["", "[relations]"]
        for i in sorted(P.rules):
            rule = P.rules[i]
            key = P.names[i] if rule.power == 1 else f"{P.names[i]}^{rule.power}"
            if not rule.rhs:
                lines.append(f"{key} = 0")
            else:
                elem = P.element(list(rule.rhs))
                lines.append(f"{key} = {element_str(elem)}")
    if P.inverted:
        lines += ["", "[inverted]"]
        lines.append(
            "names = " + " ".join(P.names[i] for i in sorted(P.inverted))
        )
    lines += ["", "[truncation]", f"D = {P.truncation}", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# algebroid files


def _image_list(text, expect, what):
    imgs = [s.strip() for s in text.split(";")] if text.strip() else []
    if len(imgs) != expect:
        raise ParseError(f"{what} needs {expect} images, got {len(imgs)}")
    return imgs


def parse_algebroid(path):
    cp = read_config(path)
    if not cp.has_section("algebroid") or not cp.has_section("maps"):
        raise ParseError("algebroid file needs [algebroid] and [maps]")
    Gamma = _presentation_from_config(cp, os.path.basename(path))
    base_path = os.path.join(
        os.path.dirname(path), cp.get("algebroid", "base")
    )
    A = parse_presentation(base_path)
    morph_names = cp.get("algebroid", "morphisms").split()
    try:
        morphism_order = tuple(sorted(Gamma.index[n] for n in morph_names))
    except KeyError as exc:
        raise ParseError(f"unknown morphism generator {exc}") from exc

    na, ng = len(A.gens), len(Gamma.gens)
    etaL_imgs = [
        parse_expression(Gamma, t)
        for t in _image_list(cp.get("maps", "etaL"), na, "etaL")
    ]
    etaR_imgs = [
        parse_expression(Gamma, t)
        for t in _image_list(cp.get("maps", "etaR"), na, "etaR")
    ]
    eps_imgs = [
        parse_expression(A, t)
        for t in _image_list(cp.get("maps", "epsilon"), ng, "epsilon")
    ]
    c_imgs = [
        parse_expression(Gamma, t)
        for t in _image_list(cp.get("maps", "c"), ng, "c")
    ]
    etaL = RingMorphism(A, Gamma, etaL_imgs, name="etaL")
    etaR = RingMorphism(A, Gamma, etaR_imgs, name="etaR")
    eps = RingMorphism(Gamma, A, eps_imgs, name="eps")
    c = RingMorphism(Gamma, Gamma, c_imgs, name="c")
    ts = TensorSquare(A, Gamma, morphism_order, etaR)
    special = {"l": ts.incl_l, "r": ts.incl_r}
    delta_texts = _image_list(cp.get("maps", "delta"), len(morphism_order), "delta"
    )
    delta_images = {}
    for i, text in zip(morphism_order, delta_texts):
        delta_images[Gamma.names[i]] = parse_expression(
            ts.pres, text, special=special, inner=Gamma, bare_names=False
        )
    name = cp.get("algebroid", "name", fallback="")
    return HopfAlgebroid(
        A, Gamma, morphism_order, etaL, etaR, eps, c, delta_images, name=name
    )


def _delta_str(H, elem):
    names = H.Gamma.names

    def spell(mono, mag):
        halves = (_mono_str(names, half) for half in H.ts.split_monomial(mono))
        factors = [f"{side}({ms})" for side, ms in zip("lr", halves) if ms]
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        return "*".join(factors)

    return _signed_sum(elem, spell)


def emit_algebroid(H, base_filename):
    """The algebroid document (Gamma's presentation + [algebroid]/[maps]);
    A's presentation goes in a separate file named `base_filename`."""
    A, Gamma = H.A, H.Gamma
    lines = ["[algebroid]", f"base = {base_filename}"]
    lines.append(
        "morphisms = " + " ".join(Gamma.names[i] for i in H.morphism_order)
    )
    if H.name:
        lines.append(f"name = {H.name}")
    lines.append("")
    lines.append(emit_presentation(Gamma).rstrip("\n"))
    lines += ["", "[maps]"]
    lines.append(
        "etaL = " + "; ".join(
            element_str(H.etaL(A.gen(i))) for i in range(len(A.gens))
        )
    )
    lines.append(
        "etaR = " + "; ".join(
            element_str(H.etaR(A.gen(i))) for i in range(len(A.gens))
        )
    )
    lines.append(
        "epsilon = " + "; ".join(
            element_str(H.eps(Gamma.gen(i))) for i in range(len(Gamma.gens))
        )
    )
    lines.append(
        "c = " + "; ".join(
            element_str(H.c(Gamma.gen(i))) for i in range(len(Gamma.gens))
        )
    )
    lines.append(
        "delta = " + "; ".join(
            _delta_str(H, H.delta(Gamma.gen(i))) for i in H.morphism_order
        )
    )
    lines.append("")
    return "\n".join(lines)


def write_algebroid(H, out_dir, stem="algebroid", base_stem="base"):
    """Write <stem>.ini and <base_stem>.ini under out_dir; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    base_path = os.path.join(out_dir, base_stem + ".ini")
    alg_path = os.path.join(out_dir, stem + ".ini")
    with open(base_path, "w", encoding="utf-8") as fh:
        fh.write(emit_presentation(H.A))
    with open(alg_path, "w", encoding="utf-8") as fh:
        fh.write(emit_algebroid(H, base_stem + ".ini"))
    return alg_path, base_path


# ---------------------------------------------------------------------------
# map files


def parse_map(path):
    cp = read_config(path)
    for sec in ("map", "f0", "f1"):
        if not cp.has_section(sec):
            raise ParseError(f"map file needs [{sec}]")
    here = os.path.dirname(path)
    source = parse_algebroid(os.path.join(here, cp.get("map", "source")))
    target = parse_algebroid(os.path.join(here, cp.get("map", "target")))
    f0_imgs = [
        parse_expression(target.A, t)
        for t in _image_list(cp.get("f0", "images"), len(source.A.gens), "f0"
        )
    ]
    f1_imgs = [
        parse_expression(target.Gamma, t)
        for t in _image_list(cp.get("f1", "images"),
            len(source.Gamma.gens),
            "f1",
        )
    ]
    f0 = RingMorphism(source.A, target.A, f0_imgs, name="f0")
    f1 = RingMorphism(source.Gamma, target.Gamma, f1_imgs, name="f1")
    return HopfMap(
        source, target, f0, f1, name=cp.get("map", "name", fallback="")
    )


def emit_map(f, source_filename, target_filename):
    lines = [
        "[map]",
        f"source = {source_filename}",
        f"target = {target_filename}",
    ]
    if f.name:
        lines.append(f"name = {f.name}")
    lines += [
        "",
        "[f0]",
        "images = " + "; ".join(element_str(e) for e in f.f0.images),
        "",
        "[f1]",
        "images = " + "; ".join(element_str(e) for e in f.f1.images),
        "",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# comodule files

_TENSOR = re.compile(r"\(x\)|⊗")


def _parse_psi_words(H, text):
    """`c*g(expr)(x)gen +- ...` into [(Gamma-element, gen name)]."""
    out = []
    # split on top-level +/- (no parens nesting crosses a word boundary)
    terms, depth, cur, sign = [], 0, "", 1
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0:
            if cur.strip():
                terms.append((sign, cur))
            cur, sign = "", (1 if ch == "+" else -1)
        else:
            cur += ch
    if cur.strip():
        terms.append((sign, cur))
    for sgn, term in terms:
        m = _TENSOR.search(term)
        if m is None:
            raise ParseError(f"coaction word {term.strip()!r} lacks a tensor")
        head, gen = term[: m.start()].strip(), term[m.end():].strip()
        if not head.startswith("g(") and "g(" not in head:
            raise ParseError(f"coaction word {term.strip()!r} lacks g(...)")
        gamma = parse_expression(
            H.Gamma,
            head,
            special={"g": lambda e: e},
            bare_names=False,
        )
        if sgn < 0:
            gamma = -gamma
        out.append((gamma, gen))
    return out


def parse_comodule(path, H=None):
    from .comodule import Comodule

    cp = read_config(path)
    for sec in ("generators", "psi"):
        if not cp.has_section(sec):
            raise ParseError(f"comodule file needs [{sec}]")
    if H is None:
        if not cp.has_section("comodule") or not cp.has_option(
            "comodule", "algebroid"
        ):
            raise ParseError("comodule file needs [comodule] algebroid = path")
        H = parse_algebroid(
            os.path.join(
                os.path.dirname(path), cp.get("comodule", "algebroid")
            )
        )
    gens = [(n, _int(v, f"degree of {n}")) for n, v in cp.items("generators")]
    psi = {}
    for n, _ in gens:
        if not cp.has_option("psi", n):
            raise ParseError(f"missing coaction for generator {n}")
        psi[n] = _parse_psi_words(H, cp.get("psi", n))
    name = ""
    if cp.has_section("comodule"):
        name = cp.get("comodule", "name", fallback="")
    return Comodule(H, gens, psi, name=name or os.path.basename(path))


def emit_comodule(M, algebroid_filename):
    lines = ["[comodule]", f"algebroid = {algebroid_filename}"]
    if M.name:
        lines.append(f"name = {M.name}")
    lines += ["", "[generators]"]
    for n, d in M.gens:
        lines.append(f"{n} = {d}")
    lines += ["", "[psi]"]
    for n, _ in M.gens:
        words = []
        for other in sorted(M.psi[n]):
            gamma = M.psi[n][other]
            words.append(f"g({element_str(gamma)})(x){other}")
        lines.append(f"{n} = " + (" + ".join(words) if words else "0"))
    lines.append("")
    return "\n".join(lines)
