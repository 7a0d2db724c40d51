"""Minimal symbolic kernel: expression trees with canonical forms.

Nodes are immutable; every constructor (``num``, ``sym``, ``add``, ``mul``,
``pow_``) returns a canonicalized tree, so any two expressions
built from the same mathematical content through these constructors compare
structurally equal.  Canonical form means:

  * n-ary sums/products are flattened and sorted by a fixed total order;
  * numeric content is kept exact (``Fraction``) and merged into a single
    leading constant per product / single constant term per sum;
  * like terms in a sum are collected; like bases in a product merge by
    adding exponents symbolically;
  * ``b^0 -> 1``, ``b^1 -> b``, ``(b^p)^q -> b^(p*q)``, and powers
    distribute over product bases;
  * a sum whose terms all share a power of a common base factors that
    power out (needed so composed solutions collapse to closed form).

Powers are real-valued: fractional exponents require a positive base (this
is what justifies the power-collapse and distribution rules above; every
formula handled here lives on positive bases).  Integer exponents accept
any nonzero base.  Products are never expanded over sums automatically;
``expand`` is a separate, explicit operation.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import DomainError, SamplingError, UnboundSymbolError

_KIND_NUM = 0
_KIND_SYM = 1
_KIND_POW = 2
_KIND_PRODUCT = 4
_KIND_SUM = 5


class Expr:
    """Base class of all expression nodes."""

    __slots__ = ("_hash", "_free")

    def sort_key(self):
        raise NotImplementedError

    def free_symbols(self) -> frozenset[str]:
        if self._free is None:
            self._free = self._compute_free()
        return self._free

    def _compute_free(self) -> frozenset[str]:
        raise NotImplementedError

    def __hash__(self):
        return self._hash

    # Arithmetic sugar; delegates to the canonicalizing constructors.
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, mul(_MINUS_ONE, as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), mul(_MINUS_ONE, self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return mul(self, pow_(as_expr(other), _MINUS_ONE))

    def __rtruediv__(self, other):
        return mul(as_expr(other), pow_(self, _MINUS_ONE))

    def __pow__(self, other):
        return pow_(self, as_expr(other))

    def __neg__(self):
        return mul(_MINUS_ONE, self)

    def __repr__(self):
        return to_text(self)


class Num(Expr):
    """Exact rational constant."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self.value = value
        self._hash = hash((_KIND_NUM, value))
        self._free = frozenset()

    def sort_key(self):
        return (_KIND_NUM, self.value)

    def _compute_free(self):
        return frozenset()

    def __eq__(self, other):
        return isinstance(other, Num) and self.value == other.value

    __hash__ = Expr.__hash__


class Sym(Expr):
    """Reference to a named symbol."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash((_KIND_SYM, name))
        self._free = frozenset((name,))

    def sort_key(self):
        return (_KIND_SYM, self.name)

    def _compute_free(self):
        return frozenset((self.name,))

    def __eq__(self, other):
        return isinstance(other, Sym) and self.name == other.name

    __hash__ = Expr.__hash__


class Power(Expr):
    __slots__ = ("base", "exponent", "_key")

    def __init__(self, base: Expr, exponent: Expr):
        self.base = base
        self.exponent = exponent
        self._hash = hash((_KIND_POW, base, exponent))
        self._free = None
        self._key = None

    def sort_key(self):
        if self._key is None:
            self._key = (_KIND_POW, self.base.sort_key(), self.exponent.sort_key())
        return self._key

    def _compute_free(self):
        return self.base.free_symbols() | self.exponent.free_symbols()

    def __eq__(self, other):
        return (
            isinstance(other, Power)
            and self._hash == other._hash
            and self.base == other.base
            and self.exponent == other.exponent
        )

    __hash__ = Expr.__hash__


class Product(Expr):
    __slots__ = ("factors", "_key")

    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors
        self._hash = hash((_KIND_PRODUCT, factors))
        self._free = None
        self._key = None

    def sort_key(self):
        if self._key is None:
            self._key = (_KIND_PRODUCT, tuple(f.sort_key() for f in self.factors))
        return self._key

    def _compute_free(self):
        out = frozenset()
        for f in self.factors:
            out |= f.free_symbols()
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Product)
            and self._hash == other._hash
            and self.factors == other.factors
        )

    __hash__ = Expr.__hash__


class Sum(Expr):
    __slots__ = ("terms", "_key", "_signed")

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms
        self._hash = hash((_KIND_SUM, terms))
        self._free = None
        self._key = None
        self._signed = None

    def sort_key(self):
        if self._key is None:
            self._key = (_KIND_SUM, tuple(t.sort_key() for t in self.terms))
        return self._key

    def _compute_free(self):
        out = frozenset()
        for t in self.terms:
            out |= t.free_symbols()
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Sum)
            and self._hash == other._hash
            and self.terms == other.terms
        )

    __hash__ = Expr.__hash__


# ---------------------------------------------------------------------------
# canonicalizing constructors


def num(value) -> Num:
    """Exact constant. Floats are read as their shortest decimal literal,
    so ``num(0.1) == Fraction(1, 10)``."""
    if isinstance(value, Fraction):
        return Num(value)
    if isinstance(value, int):
        return Num(Fraction(value))
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite constant {value!r}")
        return Num(Fraction(repr(value)))
    if isinstance(value, str):
        return Num(Fraction(value))
    raise TypeError(f"cannot make a numeric constant from {value!r}")


def sym(name: str) -> Sym:
    if not name.isidentifier():
        raise ValueError(f"bad symbol name {name!r}")
    return Sym(name)


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return num(value)


# A constant integer power folds to one Num only while the result has at
# most this many bits (about 19,700 decimal digits): pow_(num(2), 10**9)
# would otherwise build a billion-bit integer.
FOLD_BITS = 1 << 16

ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))
_MINUS_ONE = Num(Fraction(-1))

# Results of the pure canonicalizing functions (pow_, mul, _add_terms,
# _diff), keyed by a tag and the arguments after as_expr, so a float never
# becomes a key: 0.1 equals the Fraction of its binary value, num(0.1) is
# 1/10.  The key holds every input, so a hit returns what the body would
# build.  The table grows for as long as nobody clears it; the CLI clears
# it after each command, library callers call clear_memo() between
# unrelated workloads.
_MEMO: dict[tuple, Expr] = {}


def clear_memo() -> None:
    """Drop every memoized constructor and derivative result."""
    _MEMO.clear()


def pow_(base, exponent) -> Expr:
    b = as_expr(base)
    p = as_expr(exponent)
    key = ("pow", b, p)
    out = _MEMO.get(key)
    if out is None:
        out = _MEMO[key] = _canonical_pow(b, p)
    return out


def _canonical_pow(b: Expr, p: Expr) -> Expr:
    if isinstance(p, Num):
        if p.value == 0:
            return ONE
        if p.value == 1:
            return b
    if isinstance(b, Num):
        if b.value == 1:
            return ONE
        if b.value == 0:
            if isinstance(p, Num) and p.value > 0:
                return ZERO
            return Power(b, p)  # 0^negative / 0^symbolic: error at eval time
        if isinstance(p, Num):
            folded = _int_power(b.value, p.value)
            if folded is not None:
                return Num(folded)
    if isinstance(b, Power):
        return pow_(b.base, mul(b.exponent, p))
    if isinstance(b, Product):
        # integer powers distribute unconditionally; fractional/symbolic
        # ones assume positive factors, so a negative coefficient must
        # stay inside the power or (-1)^p would leave the real domain
        integral = isinstance(p, Num) and p.value.denominator == 1
        if integral or not (
            isinstance(b.factors[0], Num) and b.factors[0].value < 0
        ):
            return mul(*[pow_(f, p) for f in b.factors])
    return Power(b, p)


def _int_power(v: Fraction, p: Fraction) -> Fraction | None:
    """v^p exactly for an integer p, or None: for a fractional p, for 0 to
    a negative power, and for a result of more than about FOLD_BITS bits."""
    if p.denominator != 1 or v == 0 and p < 0:
        return None
    n = abs(p.numerator)
    # n log2 of the larger of |numerator| and denominator is about the bits
    # of the folded value, and at least n for a base other than -1 or 0, so
    # a huge n never reaches float arithmetic; past the bound the power stays
    mag = max(abs(v.numerator), v.denominator)
    if mag <= 1 or n <= FOLD_BITS and n * math.log2(mag) <= FOLD_BITS:
        return v ** p.numerator
    return None


def mul(*factors) -> Expr:
    key = ("mul", *map(as_expr, factors))
    out = _MEMO.get(key)
    if out is None:
        out = _MEMO[key] = _canonical_product(key[1:])
    return out


def _canonical_product(factors: tuple[Expr, ...]) -> Expr:
    flat: list[Expr] = []
    for e in factors:
        if isinstance(e, Product):
            flat.extend(e.factors)
        else:
            flat.append(e)

    coeff, rebuilt = _merge_powers(flat)
    while len({f.base if isinstance(f, Power) else f for f in rebuilt}) < len(rebuilt):
        # a sign-normalized or aligned sum became the base of another factor
        # ((1+2y) next to (-1-2y)); merge again until no base repeats
        extra, rebuilt = _merge_powers(rebuilt)
        coeff *= extra
    if coeff == 0:
        return ZERO
    if not rebuilt:
        return Num(coeff)
    # a lone sum scaled by a constant absorbs the constant termwise, so the
    # two ways of writing -(p + q) canonicalize identically
    if len(rebuilt) == 1 and isinstance(rebuilt[0], Sum) and coeff != 1:
        c = Num(coeff)
        return add(*[mul(c, t) for t in rebuilt[0].terms])
    if len(rebuilt) == 1 and coeff == 1:
        return rebuilt[0]
    rebuilt.sort(key=lambda e: e.sort_key())
    if coeff != 1:
        rebuilt.insert(0, Num(coeff))
    return Product(tuple(rebuilt))


def _merge_powers(flat: list[Expr]) -> tuple[Fraction, list[Expr]]:
    """Collect the exponents of each base of a flat factor list.

    Returns the numeric coefficient and the non-numeric factors, one per
    base in first-met order, with bare sums sign-normalized and negated
    sum bases aligned (``_align_negated_sums``).
    """
    coeff = Fraction(1)
    bases: list[Expr] = []
    exps: dict[Expr, list[Expr]] = {}
    for f in flat:
        if isinstance(f, Num):
            coeff *= f.value
            continue
        if isinstance(f, Power):
            b, e = f.base, f.exponent
        else:
            b, e = f, ONE
        if b in exps:
            exps[b].append(e)
        else:
            exps[b] = [e]
            bases.append(b)
    if coeff == 0:
        return coeff, []

    rebuilt: list[Expr] = []
    sums: list[int] = []  # where the factors with a sum base are
    for b in bases:
        elist = exps[b]
        f = pow_(b, elist[0] if len(elist) == 1 else add(*elist))
        if isinstance(f, Num):
            coeff *= f.value
        elif isinstance(f, Product):
            # pow_ distributed over a product base; fold its pieces back in
            for g in f.factors:
                if isinstance(g, Num):
                    coeff *= g.value
                else:
                    if isinstance(g, Sum) or isinstance(g, Power) and isinstance(g.base, Sum):
                        sums.append(len(rebuilt))
                    rebuilt.append(g)
        elif isinstance(f, Sum):
            # sign-normalize bare sum factors so that s and -s cannot both
            # appear as canonical factors (e.g. (y^2-x^2) vs (x^2-y^2))
            flipped = add(*[mul(_MINUS_ONE, t) for t in f.terms])
            if isinstance(flipped, Sum) and flipped.sort_key() < f.sort_key():
                coeff = -coeff
                f = flipped
            sums.append(len(rebuilt))
            rebuilt.append(f)
        else:
            if isinstance(b, Sum):
                sums.append(len(rebuilt))
            rebuilt.append(f)
    if len(sums) > 1 and _align_negated_sums(rebuilt, sums):
        coeff = -coeff
    return coeff, rebuilt


def _align_negated_sums(factors: list[Expr], sums: list[int]) -> bool:
    """Rewrite in place a factor (-b)^n with an integer n as b^n where b is
    the sum base of another factor, for ``_canonical_product`` to merge;
    return whether the signs (-1)^n taken out multiply to -1.  ``sums``
    are the positions of the factors with a sum base.  Of two integer
    powers, the base with the smaller sort key stays, as for a bare sum."""
    def base(k: int) -> Expr:
        return factors[k].base if isinstance(factors[k], Power) else factors[k]

    odd = False
    seen: dict[int, list[int]] = {}  # every position by hash: hash(-1) == hash(-2)
    for i in sums:
        bi = base(i)
        terms, negated = bi._signed or _signed_hashes(bi)
        want = {(t, -c) for t, c in _term_pairs(bi)} if negated in seen else None
        j = next((k for k in seen.get(negated, ()) if set(_term_pairs(base(k))) == want), None)
        if j is None:
            seen.setdefault(terms, []).append(i)
            continue
        bj = base(j)
        ni, nj = (f.exponent if isinstance(f, Power) else ONE for f in (factors[i], factors[j]))
        int_i, int_j = (isinstance(n, Num) and n.value.denominator == 1 for n in (ni, nj))
        if int_j and not (int_i and bi.sort_key() > bj.sort_key()):
            flip, n, keep = j, nj, bi
        elif int_i:
            flip, n, keep = i, ni, bj
        else:
            continue
        factors[flip] = pow_(keep, n)
        odd ^= n.value.numerator % 2 == 1
    return odd


def _term_pairs(b: Sum) -> list[tuple[Expr, Fraction]]:
    """(the term without its coefficient, the coefficient) for each term
    of a sum, the constant under ONE."""
    return [(ONE, t.value) if isinstance(t, Num) else _strip_coeff(t)[::-1] for t in b.terms]


def _signed_hashes(b: Sum) -> tuple[int, int]:
    """Hashes of the sets of ``_term_pairs`` of b and of -b, kept on the sum
    (two ints: keeping the sets themselves raised the peak RSS of large
    grids by about 1 MB)."""
    pairs = _term_pairs(b)
    b._signed = hash(frozenset(pairs)), hash(frozenset((t, -c) for t, c in pairs))
    return b._signed


def _strip_coeff(term: Expr) -> tuple[Fraction, Expr]:
    """Split a canonical non-Num term into (numeric coefficient, rest)."""
    if isinstance(term, Product) and isinstance(term.factors[0], Num):
        c = term.factors[0].value
        rest = term.factors[1:]
        return c, (rest[0] if len(rest) == 1 else Product(rest))
    return Fraction(1), term


def _power_pairs(term: Expr) -> tuple[Fraction, dict[Expr, Expr]]:
    """Decompose a canonical term into coefficient and {base: exponent}."""
    coeff = Fraction(1)
    pairs: dict[Expr, Expr] = {}
    factors = term.factors if isinstance(term, Product) else (term,)
    for f in factors:
        if isinstance(f, Num):
            coeff *= f.value
        elif isinstance(f, Power):
            pairs[f.base] = f.exponent
        else:
            pairs[f] = ONE
    return coeff, pairs


def _factor_common(terms: tuple[Expr, ...]) -> Expr | None:
    """Factor powers of bases common to every term of a sum.

    A base qualifies when it occurs in all terms and the pairwise exponent
    differences are numeric; the smallest exponent is pulled out.  Returns
    the factored product, or None when nothing qualifies.
    """
    decomps = [_power_pairs(t) for t in terms]
    first = decomps[0][1]
    extracted: list[tuple[Expr, Expr]] = []
    for base in first:
        if not all(base in d for _, d in decomps[1:]):
            continue
        e0 = first[base]
        diffs: list[Fraction] = []
        ok = True
        for _, d in decomps:
            delta = add(d[base], mul(_MINUS_ONE, e0))
            if isinstance(delta, Num):
                diffs.append(delta.value)
            else:
                ok = False
                break
        if not ok:
            continue
        m = add(e0, Num(min(diffs)))
        if isinstance(m, Num) and m.value == 0:
            continue
        extracted.append((base, m))
    if not extracted:
        return None
    common = {b: m for b, m in extracted}
    reduced = []
    for (coeff, pairs), _t in zip(decomps, terms):
        parts = [Num(coeff)]
        for b, e in pairs.items():
            if b in common:
                e = add(e, mul(_MINUS_ONE, common[b]))
            parts.append(pow_(b, e))
        reduced.append(mul(*parts))
    return mul(*[pow_(b, m) for b, m in extracted], add(*reduced))


def add(*terms) -> Expr:
    return _add_terms(terms, factor=True)


def _add_terms(terms, factor: bool) -> Expr:
    key = ("add", factor, *map(as_expr, terms))
    out = _MEMO.get(key)
    if out is None:
        out = _MEMO[key] = _canonical_sum(key[2:], factor)
    return out


def _canonical_sum(terms: tuple[Expr, ...], factor: bool) -> Expr:
    flat: list[Expr] = []
    for e in terms:
        if isinstance(e, Sum):
            flat.extend(e.terms)
        else:
            flat.append(e)

    const = Fraction(0)
    order: list[Expr] = []
    coeffs: dict[Expr, Fraction] = {}
    for t in flat:
        if isinstance(t, Num):
            const += t.value
            continue
        c, key = _strip_coeff(t)
        if key in coeffs:
            coeffs[key] += c
        else:
            coeffs[key] = c
            order.append(key)

    rebuilt: list[Expr] = []
    for key in order:
        c = coeffs[key]
        if c == 0:
            continue
        rebuilt.append(key if c == 1 else mul(Num(c), key))
    if not rebuilt:
        return Num(const)
    if const == 0 and len(rebuilt) == 1:
        return rebuilt[0]
    if factor and const == 0 and len(rebuilt) > 1:
        factored = _factor_common(tuple(rebuilt))
        if factored is not None:
            return factored
    if const != 0:
        rebuilt.append(Num(const))
    rebuilt.sort(key=lambda e: e.sort_key())
    return Sum(tuple(rebuilt))


def simplify(e: Expr) -> Expr:
    """Rebuild bottom-up through the canonicalizing constructors.

    Idempotent: constructor output is already canonical.
    """
    if isinstance(e, (Num, Sym)):
        return e
    if isinstance(e, Sum):
        return add(*[simplify(t) for t in e.terms])
    if isinstance(e, Product):
        return mul(*[simplify(f) for f in e.factors])
    if isinstance(e, Power):
        return pow_(simplify(e.base), simplify(e.exponent))
    raise TypeError(f"not an expression: {e!r}")


def is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0


# ---------------------------------------------------------------------------
# calculus and substitution


def diff(e: Expr, wrt) -> Expr:
    """Partial derivative; every other symbol is held constant."""
    name = wrt.name if isinstance(wrt, Sym) else wrt
    return _diff(e, name)


def _diff(e: Expr, name: str) -> Expr:
    key = ("diff", e, name)
    out = _MEMO.get(key)
    if out is None:
        out = _MEMO[key] = _derivative(e, name)
    return out


def _derivative(e: Expr, name: str) -> Expr:
    if name not in e.free_symbols():
        return ZERO
    if isinstance(e, Sym):
        return ONE
    if isinstance(e, Sum):
        return add(*[_diff(t, name) for t in e.terms])
    if isinstance(e, Product):
        parts = []
        for i, f in enumerate(e.factors):
            if name not in f.free_symbols():
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            parts.append(mul(_diff(f, name), *rest))
        return add(*parts)
    if isinstance(e, Power):
        b, p = e.base, e.exponent
        if name in p.free_symbols():
            # its derivative needs log b, which is not in the language
            raise ValueError(f"exponent {to_text(p)} depends on {name}")
        return mul(p, pow_(b, add(p, _MINUS_ONE)), _diff(b, name))
    raise TypeError(f"not an expression: {e!r}")


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous one-pass substitution followed by canonicalization.

    Replacements are never re-substituted, so swaps like
    ``{x: y, y: x}`` behave as expected.
    """
    table: dict[str, Expr] = {}
    for k, v in bindings.items():
        name = k.name if isinstance(k, Sym) else k
        table[name] = as_expr(v)
    return _substitute(e, table)


def _substitute(e: Expr, table: dict[str, Expr]) -> Expr:
    if not (e.free_symbols() & table.keys()):
        return e
    if isinstance(e, Sym):
        return table.get(e.name, e)
    if isinstance(e, Sum):
        return add(*[_substitute(t, table) for t in e.terms])
    if isinstance(e, Product):
        return mul(*[_substitute(f, table) for f in e.factors])
    if isinstance(e, Power):
        return pow_(_substitute(e.base, table), _substitute(e.exponent, table))
    raise TypeError(f"not an expression: {e!r}")


def expand(e: Expr) -> Expr:
    """Explicitly expand products (and small integer powers) over sums.

    Not part of canonicalization; used where cancellation across sum
    terms must become visible, e.g. collecting a reduced equation.  The
    result is a flat sum of monomial-like terms: the common-factor rule
    of ``add`` is suspended here, since re-nesting would undo the work.
    Feeding the result back through the constructors (or ``simplify``)
    re-canonicalizes it.
    """
    if isinstance(e, (Num, Sym)):
        return e
    if isinstance(e, Sum):
        return _add_terms([expand(t) for t in e.terms], factor=False)
    if isinstance(e, Product):
        buckets: list[list[Expr]] = [[]]
        for f in e.factors:
            f = expand(f)
            if isinstance(f, Sum):
                buckets = [b + [t] for b in buckets for t in f.terms]
            else:
                for b in buckets:
                    b.append(f)
        return _add_terms([mul(*b) for b in buckets], factor=False)
    if isinstance(e, Power):
        b = expand(e.base)
        p = expand(e.exponent)
        r = pow_(b, p)
        if not isinstance(r, Power):
            return expand(r)
        if (
            isinstance(r.base, Sum)
            and isinstance(r.exponent, Num)
            and r.exponent.value.denominator == 1
            and 2 <= r.exponent.value <= 16
        ):
            # cross-multiply term lists; going through mul() on whole sums
            # would just re-merge them into the original power
            cross: list[Expr] = list(r.base.terms)
            for _ in range(int(r.exponent.value) - 1):
                cross = [mul(t1, t2) for t1 in cross for t2 in r.base.terms]
            return _add_terms([expand(t) for t in cross], factor=False)
        return r
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# numeric evaluation


def _real_pow(b: float, p: float) -> float:
    if b > 0.0:
        try:
            return math.pow(b, p)
        except OverflowError as exc:
            raise DomainError(f"overflow in {b!r}^{p!r}") from exc
    if b == 0.0:
        if p > 0.0:
            return 0.0
        if p == 0.0:
            return 1.0
        raise DomainError("0 raised to a negative power")
    if p == int(p):
        try:
            return math.pow(b, p)
        except OverflowError as exc:
            raise DomainError(f"overflow in {b!r}^{p!r}") from exc
    raise DomainError(f"fractional power of negative base {b!r}")


def eval_at(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate to an IEEE double.  Every free symbol must be bound."""
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return float(env[e.name])
        except KeyError:
            raise UnboundSymbolError(f"symbol {e.name!r} not bound") from None
    if isinstance(e, Sum):
        total = 0.0
        for t in e.terms:
            total += eval_at(t, env)
        return total
    if isinstance(e, Product):
        out = 1.0
        for f in e.factors:
            out *= eval_at(f, env)
        if math.isinf(out):
            raise DomainError("overflow in product")
        return out
    if isinstance(e, Power):
        b = eval_at(e.base, env)
        if isinstance(e.exponent, Num) and e.exponent.value.denominator == 1:
            n = e.exponent.value.numerator
            if b == 0.0 and n < 0:
                raise DomainError("0 raised to a negative power")
            try:
                return float(b) ** n
            except OverflowError as exc:
                raise DomainError(f"overflow in {b!r}^{n}") from exc
        return _real_pow(b, eval_at(e.exponent, env))
    raise TypeError(f"not an expression: {e!r}")


def _compile(roots: tuple[Expr, ...], arg_names: Iterable[str], body,
             constants: Mapping[str, Fraction] | None = None) -> Callable:
    """A Python function of ``arg_names`` (positional) returning ``body(ref,
    let)``, where every free symbol of ``roots`` must be an argument or a
    name of ``constants``, a table of exact values: ``ref(node)`` is the
    text of a subexpression's value, and ``let(rhs)`` assigns the text
    ``rhs`` to a slot, reusing the slot of an identical ``rhs``.  The body
    is straight-line code with one slot per distinct compound
    subexpression, in the order a left-to-right walk first meets them.

    A subtree free of the arguments is a constant: a Sum, a Product or an
    integer Power of constants folds exactly, in Fraction arithmetic, to
    one float literal (unless that literal would overflow).  The folded
    factors of a Product become one leading coefficient, left out where it
    is 1; a Product with a 0 factor is 0 and drops out of its Sum, as
    under ``substitute``.  A Power whose exponent folds to a positive even
    integer calls ``math.pow`` directly as ``_mpow``, which gives what
    ``_real_pow`` gives for every double base; its one overflow becomes
    DomainError through a handler around the whole body (float ``+ * /``,
    ``abs`` and ``max`` give inf rather than raise).  Every other power
    calls ``_real_pow`` as ``_pow``, which differs from ``math.pow`` at
    -0.0 and 0.0.

    Where no compound subtree folds and each Product's number leads, as in
    canonical form, each slot keeps its node's operand order and power
    call, so every finite value is ``eval_at``'s (bit for bit, but for the
    sign of a zero sum: ``eval_at`` sums from 0.0).  Folding
    gives the values of the tree with the constants substituted, up to the
    rounding of another operation order."""
    names = list(arg_names)
    table = {name: Fraction(v) for name, v in (constants or {}).items()}
    missing = (frozenset().union(*(r.free_symbols() for r in roots))
               - set(names) - set(table))
    if missing:
        raise UnboundSymbolError(f"unbound symbols {sorted(missing)}")
    args = frozenset(names)
    prefix = "_t"
    while any(n.startswith(prefix) for n in names):
        prefix += "_"
    slots: dict[Expr, str] = {}  # structural hash/eq: equal subtrees share a slot
    by_rhs: dict[str, str] = {}  # equal text shares a slot: subtrees that fold alike
    folds: dict[Expr, Fraction | None] = {}
    zeros: set[Expr] = set()  # subtrees whose text is a folded 0: their Sum drops them
    lines: list[str] = []

    def let(rhs: str) -> str:
        slot = by_rhs.get(rhs)
        if slot is None:
            slot = by_rhs[rhs] = f"{prefix}{len(lines)}"
            lines.append(f"        {slot} = {rhs}")
        return slot

    def literal(value: Fraction) -> str | None:
        try:
            return f"({float(value)!r})"
        except OverflowError:
            return None

    def constant(node: Expr) -> Fraction | None:
        """The exact value of a subtree free of the arguments, or None where
        Fraction arithmetic does not reach it or its float would overflow."""
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Sym):
            return table[node.name]
        if node in folds:
            return folds[node]
        out = None
        if isinstance(node, Power):
            b, p = constant(node.base), constant(node.exponent)
            if b is not None and p is not None:
                out = _int_power(b, p)
        else:
            values = [constant(t) for t in (node.terms if isinstance(node, Sum) else node.factors)]
            if not any(v is None for v in values):
                out = (sum(values, Fraction(0)) if isinstance(node, Sum)
                       else math.prod(values, start=Fraction(1)))
        if out is not None and literal(out) is None:
            out = None
        folds[node] = out
        return out

    # the check for missing symbols above has computed ``_free`` on every
    # node of the roots, so the walk reads it directly.  With no table it
    # calls no ``constant``: the constructors have folded every subtree free
    # of symbols that it would fold, and a Product's number leads, so the
    # code is the same as with a table of symbols the roots do not hold
    def ref(node: Expr) -> str:
        if isinstance(node, Num):
            return f"({float(node.value)!r})"
        if isinstance(node, Sym):
            return node.name if node.name in args else f"({float(table[node.name])!r})"
        text = slots.get(node)
        if text is not None:
            return text
        value = constant(node) if table and args.isdisjoint(node._free) else None
        if value is not None:
            text = literal(value)
            if not value:
                zeros.add(node)
        elif isinstance(node, Power):
            e = node.exponent
            if isinstance(e, Num):
                p = e.value
            else:
                p = constant(e) if table and args.isdisjoint(e._free) else None
            if p is None:
                text = let(f"_pow({ref(node.base)}, {ref(node.exponent)})")
            else:
                even = p.denominator == 1 and p > 0 and p.numerator % 2 == 0
                text = let(f"{'_mpow' if even else '_pow'}({ref(node.base)}, {float(p)!r})")
        elif isinstance(node, Sum):
            parts = [ref(t) for t in node.terms]
            if zeros:
                parts = [text for t, text in zip(node.terms, parts) if t not in zeros]
            if not parts:
                text = "(0.0)"
                zeros.add(node)
            else:  # a Sum or Product left with one part is that part: no new slot
                text = parts[0] if len(parts) == 1 else let(" + ".join(parts))
        elif isinstance(node, Product):
            values = ([constant(f) if args.isdisjoint(f._free) else None for f in node.factors]
                      if table else ())
            folded = [v for v in values if v is not None]
            coeff = folded[0] if len(folded) == 1 else math.prod(folded)
            if not folded:
                parts = [ref(f) for f in node.factors]
            elif not coeff:
                parts = ["(0.0)"]
                zeros.add(node)
            elif (lead := literal(coeff)) is None:
                # folded factors that overflow together are multiplied per call
                parts = [ref(f) for f in node.factors]
            else:
                parts = [lead] if coeff != 1 else []
                parts += [ref(f) for f, v in zip(node.factors, values) if v is None]
            text = parts[0] if len(parts) == 1 else let(" * ".join(parts))
        else:
            raise TypeError(f"not an expression: {node!r}")
        slots[node] = text
        return text

    result = body(ref, let)
    source = "\n".join([
        f"def _f({', '.join(names)}):",
        "    try:",
        *lines,
        f"        return {result}",
        "    except OverflowError as exc:",
        "        raise _DomainError('overflow in an even power') from exc",
    ])
    namespace = {"_pow": _real_pow, "_mpow": math.pow, "_isfinite": math.isfinite,
                 "_nonfinite": _nonfinite, "_DomainError": DomainError}
    exec(compile(source, "<liesym>", "exec"), namespace)  # noqa: S102
    return namespace["_f"]


def to_callable(e: Expr, arg_names: Iterable[str]) -> Callable[..., float]:
    """Compile to a positional-argument Python function (see ``_compile``).

    Off the real domain (a fractional power of a negative base, 0 to a
    negative power, an overflowing power) it raises DomainError as
    ``eval_at`` does.  An overflowing product is the one difference:
    ``eval_at`` raises DomainError, the compiled product is ``inf``.  So
    every consumer treats a non-finite value as off the domain:
    ``to_cancellation`` raises DomainError, and the sampled verdicts
    redraw the point."""
    return _compile((e,), arg_names, lambda ref, let: ref(e))


def _nonfinite():
    raise DomainError("non-finite cancellation sum")


def to_cancellation(e: Expr, arg_names: Iterable[str], *values: Expr,
                    constants: Mapping[str, Fraction] | None = None) -> Callable:
    """Compile a residual's cancellation measure, which residual grids and
    ``check_onshell_symmetry`` evaluate: the signed sum of its terms from
    0.0 in term order, over (1 + the largest term magnitude), the scale of
    the roundoff in the sum.  The terms are those of a Sum; canonical
    factoring makes many residuals a Product, and one with exactly one Sum
    factor has as terms (the other factors) x (each term of that sum).
    Any other residual is its own term.  A non-finite result (an infinite
    or NaN term, or a sum that overflows) raises DomainError: the point is
    off the domain.

    With ``values``, the function returns ``(measure, *values)`` from one
    body, so a subexpression the roots share is computed once per call;
    each value is what ``to_callable`` would give, and DomainError from
    any root is raised.

    ``constants`` gives exact values to symbols that are not arguments;
    ``_compile`` folds what they make constant.  The terms are still those
    of ``e`` as it stands, so a residual kept over symbolic parameters is
    measured over the terms of its symbolic form, whatever the numbers
    would make of it under ``substitute``."""
    def body(ref, let):
        sums = [f for f in e.factors if isinstance(f, Sum)] if isinstance(e, Product) else []
        if len(sums) == 1:
            others = [ref(f) for f in e.factors if f is not sums[0]]
            rest = let(" * ".join(others)) if len(others) > 1 else others[0]
            terms = [let(f"{rest} * {ref(t)}") for t in sums[0].terms]
        else:
            terms = [ref(t) for t in (e.terms if isinstance(e, Sum) else (e,))]
        total = let(" + ".join(["0.0", *terms]))
        scale = let(f"max(0.0, {', '.join(f'abs({t})' for t in terms)})")
        result = let(f"{total} / (1.0 + {scale})")
        measure = f"{result} if _isfinite({result}) else _nonfinite()"
        if not values:
            return measure
        return f"({measure}, {', '.join(ref(v) for v in values)})"

    return _compile((e, *values), arg_names, body, constants)


# ---------------------------------------------------------------------------
# randomized identity testing


class RejectionSampler:
    """Seeded rejection sampling behind every sampled verdict: iterating
    yields ``evaluate(draw(rng))`` for ``count`` accepted points, in draw
    order, so a caller may stop early.  None or DomainError from
    ``evaluate`` redraws the point; ``resampled`` counts the redraws of
    the last iteration, and redraw number ``10 * count`` raises
    SamplingError."""

    __slots__ = ("count", "seed", "draw", "evaluate", "resampled")

    def __init__(self, count: int, seed: int, draw: Callable[[random.Random], object],
                 evaluate: Callable[[object], object]):
        if count < 1:
            raise ValueError("need at least one sample")
        self.count = count
        self.seed = seed
        self.draw = draw
        self.evaluate = evaluate
        self.resampled = 0

    def __iter__(self):
        rng = random.Random(self.seed)
        self.resampled = 0
        accepted = 0
        while accepted < self.count:
            try:
                value = self.evaluate(self.draw(rng))
            except DomainError:
                value = None
            if value is None:
                self.resampled += 1
                if self.resampled >= 10 * self.count:
                    raise SamplingError(f"exceeded retry budget ({10 * self.count}) "
                                        f"after {accepted}/{self.count} samples")
                continue
            accepted += 1
            yield value


_DEFAULT_INTERVAL = (0.5, 2.0)


class SampleSpec:
    """How to sample environments for randomized identity testing.

    Symbols default to the positive interval [0.5, 2]; individual
    symbols can be widened through ``intervals``.  ``accept`` can
    restrict sampling to a joint region (a rejected draw counts
    against the retry budget, like a domain error).
    """

    __slots__ = ("count", "rel_tol", "seed", "intervals", "accept")

    def __init__(self, count: int = 64, rel_tol: float = 1e-9, seed: int = 0,
                 intervals: Mapping[str, tuple[float, float]] | None = None,
                 accept: Callable[[dict[str, float]], bool] | None = None):
        self.count = count
        self.rel_tol = rel_tol
        self.seed = seed
        self.intervals = {} if intervals is None else intervals
        self.accept = accept


class EquivResult(NamedTuple):
    equivalent: bool
    samples: int
    witness: dict[str, float] | None = None

    def __bool__(self):
        return self.equivalent


def equiv_numeric(e1: Expr, e2: Expr, spec: SampleSpec | None = None) -> EquivResult:
    """Decide equality of two expressions on random samples.

    True iff |e1 - e2| <= tol * (1 + max(|e1|, |e2|)) at every sampled
    point; the first failing environment is returned as a witness.
    Points outside ``accept`` or the real domain, and points where
    either side is not finite, are redrawn.
    """
    spec = spec or SampleSpec()
    names = sorted(e1.free_symbols() | e2.free_symbols())
    f1 = to_callable(e1, names)
    f2 = to_callable(e2, names)

    def draw(rng):
        return {n: rng.uniform(*spec.intervals.get(n, _DEFAULT_INTERVAL)) for n in names}

    def evaluate(env):
        if spec.accept is not None and not spec.accept(env):
            return None
        point = [env[n] for n in names]
        v1 = f1(*point)
        v2 = f2(*point)
        if not (math.isfinite(v1) and math.isfinite(v2)):
            return None
        return env, v1, v2

    samples = RejectionSampler(spec.count, spec.seed, draw, evaluate)
    for good, (env, v1, v2) in enumerate(samples, 1):
        if abs(v1 - v2) > spec.rel_tol * (1.0 + max(abs(v1), abs(v2))):
            return EquivResult(False, good, env)
    return EquivResult(True, spec.count)


# ---------------------------------------------------------------------------
# printing (the parser in parsing.py reads this format back)


def _digits(n: int) -> str:
    """str(n), also for integers longer than the interpreter's default
    limit on int-to-str conversion (4300 digits): 2^46656 is a Num."""
    try:
        return str(n)
    except ValueError:
        high, low = divmod(abs(n), 10 ** 4000)
        return ("-" if n < 0 else "") + _digits(high) + f"{low:04000d}"


def _format_fraction(v: Fraction) -> str:
    if v.denominator == 1:
        return _digits(v.numerator)
    return f"{_digits(v.numerator)}/{_digits(v.denominator)}"


def _paren_base(e: Expr) -> str:
    # power bases: symbols print bare, anything compound gets parens
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Num) and e.value.denominator == 1 and e.value >= 0:
        return _digits(e.value.numerator)
    return f"({to_text(e)})"


def _paren_exponent(e: Expr) -> str:
    if isinstance(e, Num) and e.value.denominator == 1:
        text = _digits(e.value.numerator)
        return text if e.value >= 0 else f"({text})"
    return f"({to_text(e)})"


def _product_text(factors: tuple[Expr, ...], coeff: Fraction) -> str:
    parts = []
    if coeff != 1:
        parts.append(_format_fraction(coeff))
    for f in factors:
        parts.append(f"({to_text(f)})" if isinstance(f, Sum) else to_text(f))
    return "*".join(parts)


def to_text(e: Expr) -> str:
    """Serialize to the grammar the parser accepts; canonical expressions
    round-trip exactly."""
    if isinstance(e, Num):
        return _format_fraction(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Power):
        return f"{_paren_base(e.base)}^{_paren_exponent(e.exponent)}"
    if isinstance(e, Product):
        coeff, rest = _strip_coeff(e)
        factors = rest.factors if isinstance(rest, Product) else (rest,)
        if coeff < 0:
            inner = _product_text(factors, -coeff)
            return f"-{inner}"
        return _product_text(factors, coeff)
    if isinstance(e, Sum):
        out = []
        for i, t in enumerate(e.terms):
            coeff = t.value if isinstance(t, Num) else _strip_coeff(t)[0]
            if i == 0:
                out.append(to_text(t))
            elif coeff < 0:
                out.append(f" - {to_text(mul(_MINUS_ONE, t))}")
            else:
                out.append(f" + {to_text(t)}")
        return "".join(out)
    raise TypeError(f"not an expression: {e!r}")
