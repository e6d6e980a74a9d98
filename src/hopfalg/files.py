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
Image lists are semicolon-separated.  etaL, and epsilon and c on the base
generators, must be the images the algebroid derives (see `hopf`).

A map file points at two algebroid files ([map] source/target) and lists
[f0]/[f1] images.  A comodule file points at one algebroid and gives
[generators] plus [psi] coaction words `g(expr)(x)gen` (the literal
tensor glyph is also accepted).

Every document is laid out by one section writer, `_write`.  Emission
is deterministic (sorted monomials, fixed spacing), so emit -> parse ->
emit is byte-identical.
"""
from __future__ import annotations

import configparser
import functools
import os
import re

from .errors import (
    DegreeError,
    IllegalExponent,
    InputError,
    NotFreeOverA,
    ParseError,
    SolveFailure,
)
from .hopf import HopfAlgebroid
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
    presentation).  Where there are such atoms, a generator may appear
    only inside one of them."""

    def __init__(self, pres, special=None, inner=None):
        self.pres = pres
        self.special = special or {}
        self.inner = inner or pres
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
        if self.special and not self._in_special:
            raise ParseError(f"bare generator {t!r} not allowed here")
        if t in P.index:
            return P.gen(P.index[t])
        raise ParseError(f"unknown generator {t!r}")


def parse_expression(P, text, special=None, inner=None):
    return _ExprParser(P, special, inner).parse(text)


# ---------------------------------------------------------------------------
# writing expressions back out


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


def element_str(elem):
    """Deterministic expression string for an element (sorted monomials)."""

    def spell(mono, mag):
        if not any(mono):
            return str(mag)
        ms = elem.pres.format_monomial(mono)
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


def _option(cp, section, key):
    """The value of `key` in [section]; ParseError naming both if the
    document lacks it."""
    if not cp.has_option(section, key):
        raise ParseError(f"[{section}] needs {key}")
    return cp.get(section, key)


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


def _document(parse):
    """`parse`, with a DegreeError, IllegalExponent or NotFreeOverA from a
    malformed document raised as a ParseError; raised inside a computation,
    the same errors keep their class."""

    @functools.wraps(parse)
    def parse_document(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except (DegreeError, IllegalExponent, NotFreeOverA) as exc:
            raise ParseError(str(exc)) from exc

    return parse_document


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


@_document
def parse_presentation(path):
    cp = read_config(path)
    return _presentation_from_config(cp, os.path.basename(path))


def _write(sections):
    """The INI document of `sections`, (name, [(key, value)]) pairs, in
    order: a blank line between sections and one newline at the end.
    The one place a document's layout is written."""
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in entries)
        for name, entries in sections
    )


def _named(entries, name):
    """`entries` followed by `("name", name)` when the name is nonempty."""
    return entries + [("name", name)] if name else entries


def _presentation_sections(P):
    """P's sections, [base] to [truncation], for `_write`."""
    base = [("mode", P.mode.kind)]
    if P.mode.p is not None:
        base.append(("p", P.mode.p))
    sections = [("base", _named(base, P.name)), ("generators", list(P.gens))]
    if P.rules:
        relations = []
        for i in sorted(P.rules):
            rule = P.rules[i]
            key = P.names[i] if rule.power == 1 else f"{P.names[i]}^{rule.power}"
            relations.append((key, element_str(P.element(list(rule.rhs)))))
        sections.append(("relations", relations))
    if P.inverted:
        names = " ".join(P.names[i] for i in sorted(P.inverted))
        sections.append(("inverted", [("names", names)]))
    return sections + [("truncation", [("D", P.truncation)])]


def emit_presentation(P):
    return _write(_presentation_sections(P))


# ---------------------------------------------------------------------------
# algebroid files


# the [maps] image lists other than delta, read and written alike: (key,
# HopfAlgebroid attribute of the map, of its source, of its target)
_STRUCTURE_MAPS = (
    ("etaL", "etaL", "A", "Gamma"),
    ("etaR", "etaR", "A", "Gamma"),
    ("epsilon", "eps", "Gamma", "A"),
    ("c", "c", "Gamma", "Gamma"),
)


def _image_list(text, expect, what):
    imgs = [s.strip() for s in text.split(";")] if text.strip() else []
    if len(imgs) != expect:
        raise ParseError(f"{what} needs {expect} images, got {len(imgs)}")
    return imgs


def _images(cp, section, key, S, T, what):
    """The images in T of S's generators that [section] lists at `key`."""
    texts = _image_list(_option(cp, section, key), len(S.gens), what)
    return [parse_expression(T, t) for t in texts]


@_document
def parse_algebroid(path):
    """The algebroid built from etaR and the epsilon, c and delta images of
    the morphism generators.  Every other image the document lists (etaL,
    epsilon and c of a base generator) must be the derived one."""
    cp = read_config(path)
    if not cp.has_section("algebroid") or not cp.has_section("maps"):
        raise ParseError("algebroid file needs [algebroid] and [maps]")
    Gamma = _presentation_from_config(cp, os.path.basename(path))
    base_path = os.path.join(
        os.path.dirname(path), _option(cp, "algebroid", "base")
    )
    A = parse_presentation(base_path)
    morph_names = _option(cp, "algebroid", "morphisms").split()
    try:
        morphism_order = tuple(sorted(Gamma.index[n] for n in morph_names))
    except KeyError as exc:
        raise ParseError(f"unknown morphism generator {exc}") from exc

    rings = {"A": A, "Gamma": Gamma}
    images = {
        key: _images(cp, "maps", key, rings[src], rings[tgt], key)
        for key, _, src, tgt in _STRUCTURE_MAPS
    }
    etaR = RingMorphism(A, Gamma, images["etaR"], name="etaR")

    def delta(ts):
        special = {"l": ts.incl_l, "r": ts.incl_r}
        texts = _image_list(_option(cp, "maps", "delta"), len(morphism_order),
                            "delta")
        return {
            Gamma.names[i]: parse_expression(ts.pres, text, special, Gamma)
            for i, text in zip(morphism_order, texts)
        }

    eps, c = (
        {Gamma.names[i]: images[key][i] for i in morphism_order}
        for key in ("epsilon", "c")
    )
    H = HopfAlgebroid(
        A, Gamma, morphism_order, etaR, eps, c, delta,
        name=cp.get("algebroid", "name", fallback=""),
    )
    for key, attr, src, _ in _STRUCTURE_MAPS:
        m, S = getattr(H, attr), getattr(H, src)
        for i, img in enumerate(images[key]):
            want = m(S.gen(i))
            if img != want:
                raise ParseError(
                    f"{key}({S.names[i]}) = {element_str(img)}, but the "
                    f"derived {key} sends {S.names[i]} to {element_str(want)}"
                )
    return H


def _delta_str(H, elem):
    def spell(mono, mag):
        halves = H.ts.split_monomial(mono)
        factors = [f"{side}({H.Gamma.format_monomial(half)})"
                   for side, half in zip("lr", halves) if any(half)]
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        return "*".join(factors)

    return _signed_sum(elem, spell)


def emit_algebroid(H, base_filename):
    """The algebroid document (Gamma's presentation + [algebroid]/[maps]);
    A's presentation goes in a separate file named `base_filename`."""
    Gamma = H.Gamma
    morphisms = " ".join(Gamma.names[i] for i in H.morphism_order)
    maps = []
    for key, name, src, _ in _STRUCTURE_MAPS:
        m, S = getattr(H, name), getattr(H, src)
        images = (m(S.gen(i)) for i in range(len(S.gens)))
        maps.append((key, "; ".join(map(element_str, images))))
    maps.append(("delta", "; ".join(
        _delta_str(H, H.delta(Gamma.gen(i))) for i in H.morphism_order
    )))
    head = [("base", base_filename), ("morphisms", morphisms)]
    return _write(
        [("algebroid", _named(head, H.name))]
        + _presentation_sections(Gamma)
        + [("maps", maps)]
    )


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


@_document
def parse_map(path):
    cp = read_config(path)
    for sec in ("map", "f0", "f1"):
        if not cp.has_section(sec):
            raise ParseError(f"map file needs [{sec}]")
    here = os.path.dirname(path)
    source = parse_algebroid(os.path.join(here, _option(cp, "map", "source")))
    target = parse_algebroid(os.path.join(here, _option(cp, "map", "target")))
    f0, f1 = (
        RingMorphism(S, T, _images(cp, sec, "images", S, T, sec), name=sec)
        for sec, S, T in (
            ("f0", source.A, target.A), ("f1", source.Gamma, target.Gamma)
        )
    )
    return HopfMap(
        source, target, f0, f1, name=cp.get("map", "name", fallback="")
    )


def emit_map(f, source_filename, target_filename):
    head = [("source", source_filename), ("target", target_filename)]
    return _write([("map", _named(head, f.name))] + [
        (sec, [("images", "; ".join(element_str(e) for e in m.images))])
        for sec, m in (("f0", f.f0), ("f1", f.f1))
    ])


# ---------------------------------------------------------------------------
# comodule files

# a tensor glyph and the module generator after it, which end a word
_TENSOR = re.compile(r"(?:\(x\)|⊗)\s*([A-Za-z_][A-Za-z_0-9']*)")


def _parse_psi_words(H, text):
    """`c*g(expr)(x)gen +- ...` into [(Gamma-element, gen name)]: each
    word's signed head, `+- c*g(expr)`, parsed as an expression."""
    *words, tail = _TENSOR.split(text)
    if tail.strip():
        raise ParseError(f"coaction word {tail.strip()!r} lacks a tensor")
    out = []
    for head, gen in zip(words[::2], words[1::2]):
        if "g(" not in head:
            raise ParseError(f"coaction word {head.strip()!r} lacks g(...)")
        gamma = parse_expression(H.Gamma, head, special={"g": lambda e: e})
        out.append((gamma, gen))
    return out


@_document
def parse_comodule(path, H=None):
    from .comodule import Comodule

    cp = read_config(path)
    for sec in ("generators", "psi"):
        if not cp.has_section(sec):
            raise ParseError(f"comodule file needs [{sec}]")
    if H is None:
        H = parse_algebroid(os.path.join(
            os.path.dirname(path), _option(cp, "comodule", "algebroid")
        ))
    gens = [(n, _int(v, f"degree of {n}")) for n, v in cp.items("generators")]
    psi = {}
    for n, _ in gens:
        if not cp.has_option("psi", n):
            raise ParseError(f"missing coaction for generator {n}")
        psi[n] = _parse_psi_words(H, cp.get("psi", n))
    name = cp.get("comodule", "name", fallback="")
    return Comodule(H, gens, psi, name=name or os.path.basename(path))


def emit_comodule(M, algebroid_filename):
    psi = []
    for n, _ in M.gens:
        words = M.psi[n]
        if not words:
            raise InputError(f"coaction of {n} is empty: it fails the counit law")
        psi.append((n, " + ".join(
            f"g({element_str(words[o])})(x){o}" for o in sorted(words)
        )))
    return _write([
        ("comodule", _named([("algebroid", algebroid_filename)], M.name)),
        ("generators", list(M.gens)),
        ("psi", psi),
    ])
