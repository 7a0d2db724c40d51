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

import functools
import math
import random
import sys
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
    __slots__ = ("terms", "_key")

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms
        self._hash = hash((_KIND_SUM, terms))
        self._free = None
        self._key = None

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

# The pure canonicalizing bodies and _derivative are functools caches keyed
# by their arguments after as_expr, so a float never becomes a key: 0.1
# equals the Fraction of its binary value, num(0.1) is 1/10.  The key holds
# every input, so a hit returns the object the body built, and a body that
# raises stores nothing.  The caches grow for as long as nobody clears
# them; the CLI clears them after each command, library callers call
# clear_memo() between unrelated workloads.


def clear_memo() -> None:
    """Empty the caches of the canonicalizing constructors and ``diff``."""
    for body in (_canonical_pow, _canonical_product, _canonical_sum, _derivative):
        body.cache_clear()


def pow_(base, exponent) -> Expr:
    return _canonical_pow(as_expr(base), as_expr(exponent))


@functools.cache
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
    return _canonical_product(*map(as_expr, factors))


@functools.cache
def _canonical_product(*factors: Expr) -> Expr:
    flat: list[Expr] = []
    for e in factors:
        if isinstance(e, Product):
            flat.extend(e.factors)
        else:
            flat.append(e)

    coeff, rebuilt = _merge_powers(flat)
    while len(dict(monomial(rebuilt)[1])) < len(rebuilt):
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
    rebuilt.sort(key=lambda e: e.sort_key())
    return _term(coeff, tuple(rebuilt))


def _term(c: Fraction, factors: tuple[Expr, ...]) -> Expr:
    """The canonical term c·factors, for c != 0 and factors in sort_key
    order with distinct bases, none a Num, and a lone Sum only at c = 1:
    the coefficient leads where it is not 1, and a lone factor is bare.
    With ``_sum_of``, the one place a Product or Sum node is made."""
    if c != 1:
        return Product((Num(c), *factors))
    return factors[0] if len(factors) == 1 else Product(factors)


def _sum_of(terms: list[Expr], const: Fraction) -> Expr:
    """The canonical sum of distinct non-Num terms and a constant: the
    terms in sort_key order, the constant among them where it is not 0,
    and a lone term or a lone constant bare.  Builds the node in ``terms``,
    the constant appended and the list sorted in place."""
    if not terms:
        return Num(const)
    if not const and len(terms) == 1:
        return terms[0]
    if const:
        terms.append(Num(const))
    terms.sort(key=lambda t: t.sort_key())
    return Sum(tuple(terms))


def _merge_powers(flat: list[Expr]) -> tuple[Fraction, list[Expr]]:
    """Collect the exponents of each base of a flat factor list.

    Returns the numeric coefficient and the non-numeric factors, one per
    base in first-met order, with bare sums sign-normalized and negated
    sum bases aligned (``_align_negated_sums``).
    """
    coeff, pairs = monomial(flat)
    if coeff == 0:
        return coeff, []
    exps: dict[Expr, list[Expr]] = {}
    for b, e in pairs:
        exps.setdefault(b, []).append(e)

    rebuilt: list[Expr] = []
    sums: list[int] = []  # where the factors with a sum base are
    for b, elist in exps.items():
        f = pow_(b, elist[0] if len(elist) == 1 else add(*elist))
        if isinstance(f, Num):
            coeff *= f.value
        elif isinstance(f, Product):
            # pow_ distributed over a product base; fold its pieces back in
            c, pieces = monomial(f)
            coeff *= c
            for gb, ge in pieces:
                if isinstance(gb, Sum):
                    sums.append(len(rebuilt))
                rebuilt.append(pow_(gb, ge))
        elif isinstance(f, Sum):
            # sign-normalize bare sum factors so that s and -s cannot both
            # appear as canonical factors (e.g. (y^2-x^2) vs (x^2-y^2))
            flipped = _negated(f)
            if flipped.sort_key() < f.sort_key():
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
    pairs = monomial(factors)[1]  # no factor is a Num: one pair per factor
    odd = False
    unmatched: list[int] = []
    for i in sums:
        bi, ni = pairs[i]
        same = [k for k in unmatched if len(pairs[k][0].terms) == len(bi.terms)]
        negated = _negated(bi) if same else None
        j = next((k for k in same if pairs[k][0] == negated), None)
        if j is None:
            unmatched.append(i)
            continue
        bj, nj = pairs[j]
        int_i, int_j = (isinstance(n, Num) and n.value.denominator == 1 for n in (ni, nj))
        if int_j and not (int_i and bi.sort_key() > bj.sort_key()):
            flip, n, keep = j, nj, bi
        elif int_i:
            flip, n, keep = i, ni, bj
        else:
            continue
        factors[flip] = pow_(keep, n)
        pairs[flip] = (keep, n)
        odd ^= n.value.numerator % 2 == 1
    return odd


def _negated(b: Sum) -> Sum:
    """-b term by term, with no common factor pulled out."""
    return _add_terms([mul(_MINUS_ONE, t) for t in b.terms], factor=False)


def _strip_coeff(term: Expr) -> tuple[Fraction, tuple[Expr, ...]]:
    """Split a canonical non-Num term into (numeric coefficient, factors),
    the arguments ``_term`` rebuilds it from; ``_canonical_sum`` collects
    like terms by the factors."""
    if not isinstance(term, Product):
        return Fraction(1), (term,)
    if isinstance(term.factors[0], Num):
        return term.factors[0].value, term.factors[1:]
    return Fraction(1), term.factors


def monomial(factors) -> tuple[Fraction, list[tuple[Expr, Expr]]]:
    """Read a factor list, or one term as its factors, as a monomial: the
    product of its numeric factors and, for every other factor in order,
    its (base, exponent) pair; a factor that is not a Power is its own
    base to the power 1.  The bases of a canonical term are distinct."""
    if isinstance(factors, Expr):
        factors = factors.factors if isinstance(factors, Product) else (factors,)
    coeff = Fraction(1)
    pairs: list[tuple[Expr, Expr]] = []
    for f in factors:
        if isinstance(f, Num):
            coeff *= f.value
        elif isinstance(f, Power):
            pairs.append((f.base, f.exponent))
        else:
            pairs.append((f, ONE))
    return coeff, pairs


def _factor_common(terms: tuple[Expr, ...]) -> Expr | None:
    """Factor powers of bases common to every term of a sum.

    A base qualifies when it occurs in all terms and the pairwise exponent
    differences are numeric; the smallest exponent is pulled out.  Returns
    the factored product, or None when nothing qualifies.
    """
    decomps = [(c, dict(pairs)) for c, pairs in map(monomial, terms)]
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
    return _canonical_sum(factor, *map(as_expr, terms))


@functools.cache
def _canonical_sum(factor: bool, *terms: Expr) -> Expr:
    flat: list[Expr] = []
    for e in terms:
        if isinstance(e, Sum):
            flat.extend(e.terms)
        else:
            flat.append(e)

    const = Fraction(0)
    coeffs: dict[tuple[Expr, ...], Fraction] = {}  # in first-met order
    for t in flat:
        if isinstance(t, Num):
            const += t.value
            continue
        c, key = _strip_coeff(t)
        if key in coeffs:
            coeffs[key] += c
        else:
            coeffs[key] = c

    rebuilt = [_term(c, key) for key, c in coeffs.items() if c]
    if factor and const == 0 and len(rebuilt) > 1:
        factored = _factor_common(tuple(rebuilt))
        if factored is not None:
            return factored
    return _sum_of(rebuilt, const)


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
    return _derivative(e, wrt.name if isinstance(wrt, Sym) else wrt)


@functools.cache
def _derivative(e: Expr, name: str) -> Expr:
    if name not in e.free_symbols():
        return ZERO
    if isinstance(e, Sym):
        return ONE
    if isinstance(e, Sum):
        return add(*[_derivative(t, name) for t in e.terms])
    if isinstance(e, Product):
        parts = []
        for i, f in enumerate(e.factors):
            if name not in f.free_symbols():
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            parts.append(mul(_derivative(f, name), *rest))
        return add(*parts)
    if isinstance(e, Power):
        b, p = e.base, e.exponent
        if name in p.free_symbols():
            # its derivative needs log b, which is not in the language
            raise ValueError(f"exponent {to_text(p)} depends on {name}")
        return mul(p, pow_(b, add(p, _MINUS_ONE)), _derivative(b, name))
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


def bind_expanded(e: Expr, numbers: Mapping) -> Expr:
    """``expand(substitute(e, numbers))``, the same tree, for numbers bound
    to the symbols of an expanded sum that is bound again and again.

    The terms of e are read once into a plan (``_bind_plan``): a term is
    a ``Fraction`` coefficient, factors in the bound symbols alone, and
    atoms, each a power of another symbol whose exponent is a number or an
    expression in the bound symbols.  Binding multiplies the coefficients
    exactly, evaluates the exponents, and builds the canonical sum of the
    monomials directly.  An e the plan cannot read (a sum or a bound
    symbol as a base, say), a binding the plan cannot evaluate to a number
    (0 to a negative power, a fractional power of a number) and numbers
    other than ints and Fractions take the general route.
    """
    result = None
    if all(isinstance(v, (int, Fraction)) for v in numbers.values()):
        # a float or an expression is bound as substitute binds it
        values = {(k.name if isinstance(k, Sym) else k): Fraction(v) for k, v in numbers.items()}
        plan = _bind_plan(e, tuple(values))
        result = None if plan is None else _bind_terms(plan, values)
    return expand(substitute(e, numbers)) if result is None else result


# The plans of the expanded derivations in family.KEPT, each bound to every
# instance; clear_memo leaves them, as it leaves the table.  The bound holds
# every one of them (tests/test_family.py::TestRemainderCache).
@functools.lru_cache(maxsize=16)
def _bind_plan(e: Expr, names: tuple[str, ...]):
    """e's terms read for binding ``names``, or None where a term is not
    such a monomial: the expressions in the bound symbols, each evaluated
    once per binding; the atoms, each (base, position of its exponent);
    and per term its coefficient, the positions of its bound factors and
    the positions of its atoms."""
    params = frozenset(names)
    exprs: dict[Expr, int] = {}
    atoms: dict[tuple[Sym, int], int] = {}
    terms = []
    for t in e.terms if isinstance(e, Sum) else (e,):
        coeff, pairs = monomial(t)
        factors: list[int] = []
        bases: dict[Sym, int] = {}
        for b, p in pairs:
            if b.free_symbols() | p.free_symbols() <= params:
                factors.append(exprs.setdefault(pow_(b, p), len(exprs)))
            elif (not isinstance(b, Sym) or b.name in params or b in bases
                    or not p.free_symbols() <= params):
                return None
            else:
                atom = (b, exprs.setdefault(p, len(exprs)))
                bases[b] = atoms.setdefault(atom, len(atoms))
        terms.append((coeff, tuple(factors), tuple(bases.values())))
    return tuple(exprs), tuple(atoms), tuple(terms)


def _bind_terms(plan, values: dict[str, Fraction]) -> Expr | None:
    """The canonical sum that ``expand`` builds of a plan's terms bound to
    ``values``: like monomials collected, zero coefficients dropped,
    factors and terms in sort_key order.  None where an expression of the
    plan binds to no number."""
    exprs, atoms, terms = plan
    folds: dict[Expr, Fraction | None] = {}
    vals = [_fold(p, values, folds) for p in exprs]
    if any(v is None for v in vals):
        return None
    # each atom bound once: dropped at exponent 0, the bare symbol at 1;
    # atoms that bind equal (u^c1 and u^c2 at c1 = c2) share one rank
    bound_atoms = [None if not vals[i] else b if vals[i] == 1 else Power(b, Num(vals[i]))
                   for b, i in atoms]
    ranked = sorted({f for f in bound_atoms if f is not None}, key=lambda f: f.sort_key())
    rank = {f: k for k, f in enumerate(ranked)}
    ranks = [None if f is None else rank[f] for f in bound_atoms]

    const = Fraction(0)
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for coeff, factors, term_atoms in terms:
        for i in factors:
            coeff *= vals[i]
        if not coeff:
            continue
        key = tuple(sorted(ranks[j] for j in term_atoms if ranks[j] is not None))
        if not key:
            const += coeff
        elif key in coeffs:
            coeffs[key] += coeff
        else:
            coeffs[key] = coeff
    return _sum_of([_term(c, tuple(ranked[k] for k in key)) for key, c in coeffs.items() if c],
                   const)


def _fold(node: Expr, table: Mapping[str, Fraction],
          folds: dict[Expr, Fraction | None]) -> Fraction | None:
    """The exact value of an expression in the symbols of ``table``, or
    None where Fraction arithmetic does not reach it (a power that
    ``_int_power`` does not fold).  Where it gives a value, substituting
    ``table`` gives the Num of that value.  ``folds`` keeps the value of
    each subtree worked out."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Sym):
        return table[node.name]
    if node in folds:
        return folds[node]
    out = None
    if isinstance(node, Power):
        b, p = _fold(node.base, table, folds), _fold(node.exponent, table, folds)
        if b is not None and p is not None:
            out = _int_power(b, p)
    else:
        values = [_fold(t, table, folds)
                  for t in (node.terms if isinstance(node, Sum) else node.factors)]
        if not any(v is None for v in values):
            out = (sum(values, Fraction(0)) if isinstance(node, Sum)
                   else math.prod(values, start=Fraction(1)))
    folds[node] = out
    return out


# ---------------------------------------------------------------------------
# numeric evaluation


def _double(value) -> float:
    """The double of an exact number, or the infinity of its sign past the
    double range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _exponent_double(p: Fraction) -> float:
    """The double of an exact exponent.  An integer past the double range
    maps to the double of its sign and parity farthest from 0 (the largest
    double is even), so the power still reads 0, 1 or an overflow, with
    the sign of an odd power."""
    if p.denominator == 1 and abs(p) > sys.float_info.max:
        far = 2 ** 53 - 1 if p.numerator % 2 else sys.float_info.max
        return float(far if p > 0 else -far)
    return _double(p)


def _real_pow(b: float, p: float) -> float:
    """``math.pow`` on its real domain: a positive base, an integer
    exponent, or a zero base to a positive exponent.  Anything else, 0 to
    a negative power and an overflowing value raise DomainError."""
    if b > 0.0 or float(p).is_integer() or (b == 0.0 and p > 0.0):
        try:
            return math.pow(b, p)
        except OverflowError as exc:
            raise DomainError(f"overflow in {b!r}^{p!r}") from exc
        except ValueError as exc:
            raise DomainError("0 raised to a negative power") from exc
    raise DomainError(f"no real value of {b!r}^{p!r}")


def eval_at(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate to an IEEE double.  Every free symbol must be bound.

    Numbers, exponents and powers take the compiled code's rule
    (``_double``, ``_exponent_double``, ``_real_pow``), and a Sum adds
    from its first term, so every value is the compiled code's bit for
    bit; the one difference is that a product that overflows raises
    DomainError here and is ``inf`` there.  A value of ``env`` past the
    double range raises DomainError."""
    if isinstance(e, Num):
        return _double(e.value)
    if isinstance(e, Sym):
        try:
            value = env[e.name]
        except KeyError:
            raise UnboundSymbolError(f"symbol {e.name!r} not bound") from None
        try:
            return float(value)
        except OverflowError as exc:
            raise DomainError(f"overflow in the value of {e.name}") from exc
    if isinstance(e, Sum):
        total = eval_at(e.terms[0], env)
        for t in e.terms[1:]:
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
        p = e.exponent
        return _real_pow(eval_at(e.base, env),
                         _exponent_double(p.value) if isinstance(p, Num) else eval_at(p, env))
    raise TypeError(f"not an expression: {e!r}")


# _compile keeps the code of this many distinct source texts, the least
# recently used dropped first.  A 12-second claims run of the benchmark
# compiles 70 to 74 shapes (70 at seeds 11 and 64, 74 at seed 4242) and a
# 12-second grid sweep 23 (seeds 11 and 64), each of a few kB.
COMPILED_SHAPES = 128


@functools.lru_cache(maxsize=COMPILED_SHAPES)
def _shape_code(source: str):
    """The code of ``_compile``'s module text: one ``compile`` per shape."""
    return compile(source, "<liesym>", "exec")


def _walk(roots: tuple[Expr, ...], arg_names: Iterable[str], body,
          constants: Mapping[str, Fraction] | None):
    """The walk behind ``_compile`` and ``to_row_kernel``: ``(names,
    prefix, lines, result, bound)``, where ``result`` is ``body(ref,
    let)``, ``lines`` holds the slots in walk order as (name, rhs, bits,
    parts), ``bits`` being the arguments the slot reads (bit i for
    argument i), and ``bound`` holds the numbers in the order of their
    names ``{prefix}k0``, ``{prefix}k1``, ...  ``let(rhs, *parts)``
    takes the texts that ``rhs`` is made of, so each slot knows what it
    reads."""
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
    by_rhs: dict[str, str] = {}  # equal text shares a slot: equal powers of a base
    reads = {name: 1 << i for i, name in enumerate(names)}  # text -> bits of the arguments it reads
    folds: dict[Expr, Fraction | None] = {}
    zeros: set[Expr] = set()  # subtrees whose value is a folded 0: their Sum drops them
    lines: list[tuple[str, str, int, tuple[str, ...]]] = []
    bound: list[float] = []  # the numbers, in the order of _make's parameters
    powers: dict[Fraction, str] = {}  # the name of each numeric exponent

    def let(rhs: str, *parts: str) -> str:
        slot = by_rhs.get(rhs)
        if slot is None:
            slot = by_rhs[rhs] = f"{prefix}{len(lines)}"
            bits = 0
            for part in parts:
                bits |= reads.get(part, 0)
            reads[slot] = bits
            lines.append((slot, rhs, bits, parts))
        return slot

    def number(value) -> str:
        """A new name bound to ``_double(value)``."""
        bound.append(_double(value))
        return f"{prefix}k{len(bound) - 1}"

    def exponent(p: Fraction) -> str:
        name = powers.get(p)
        if name is None:
            name = powers[p] = number(_exponent_double(p))
        return name

    def power(base: str, p: str, integer: bool) -> str:
        if integer:
            return let(f"_mpow({base}, {p})", base, p)
        return let(f"(_mpow({base}, {p}) if {base} > 0.0 else _pow({base}, {p}))", base, p)

    def constant(node: Expr) -> Fraction | None:
        return _fold(node, table, folds)

    # the check for missing symbols above has computed ``_free`` on every
    # node of the roots, so the walk reads it directly.  With no table it
    # calls no ``constant``: the constructors have folded every subtree free
    # of symbols that it would fold, and a Product's number leads, so the
    # code is the same as with a table of symbols the roots do not hold
    def ref(node: Expr) -> str:
        if isinstance(node, Num):
            return number(node.value)
        if isinstance(node, Sym):
            return node.name if node.name in args else number(table[node.name])
        text = slots.get(node)
        if text is not None:
            return text
        value = constant(node) if table and args.isdisjoint(node._free) else None
        if value is not None:
            text = number(value)
            if not value:
                zeros.add(node)
        elif isinstance(node, Power):
            e = node.exponent
            if isinstance(e, Num):
                p = e.value
            else:
                p = constant(e) if table and args.isdisjoint(e._free) else None
            base = ref(node.base)
            if p is None:
                text = power(base, ref(e), False)
            else:
                text = power(base, exponent(p), p.denominator == 1)
        elif isinstance(node, Sum):
            parts = [ref(t) for t in node.terms]
            if zeros:
                parts = [text for t, text in zip(node.terms, parts) if t not in zeros]
            if not parts:
                text = "(0.0)"
                zeros.add(node)
            else:  # a Sum or Product left with one part is that part: no new slot
                text = parts[0] if len(parts) == 1 else let(" + ".join(parts), *parts)
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
            else:
                parts = [number(coeff)] if coeff != 1 else []
                parts += [ref(f) for f, v in zip(node.factors, values) if v is None]
            text = parts[0] if len(parts) == 1 else let(" * ".join(parts), *parts)
        else:
            raise TypeError(f"not an expression: {node!r}")
        slots[node] = text
        return text

    result = body(ref, let)
    return names, prefix, lines, result, bound


def _bind(prefix: str, bound: list[float], code: list[str]):
    """Run ``def _make(...)`` with the lines ``code`` as its body and the
    names of ``bound`` as its parameters (its code compiled once per
    shape), and return what ``_make(*bound)`` returns."""
    source = "\n".join([f"def _make({', '.join(f'{prefix}k{i}' for i in range(len(bound)))}):",
                        *code])
    # the builtins the code calls go by names that no argument can take
    namespace = {f"_{f.__name__}": f for f in (abs, max, len, enumerate, OverflowError, ValueError)}
    namespace.update(_pow=_real_pow, _mpow=math.pow, _isfinite=math.isfinite,
                     _DomainError=DomainError, _inf=math.inf,
                     _hypot=math.hypot, _generator=seeded_generator, _exhausted=_exhausted)
    exec(_shape_code(source), namespace)  # noqa: S102
    return namespace["_make"](*bound)


def _compile(roots: tuple[Expr, ...], arg_names: Iterable[str], body,
             constants: Mapping[str, Fraction] | None = None) -> Callable:
    """A Python function of ``arg_names`` (positional) returning ``body(ref,
    let)``, where every free symbol of ``roots`` must be an argument or a
    name of ``constants``, a table of exact values: ``ref(node)`` is the
    text of a subexpression's value, and ``let(rhs, *parts)`` assigns the
    text ``rhs``, made of the texts ``parts``, to a slot, reusing the slot
    of an identical ``rhs``.  The body is straight-line code with one slot
    per distinct compound subexpression, in the order a left-to-right walk
    first meets them.  ``to_row_kernel`` emits the same walk as a loop
    over the nodes of a grid.

    The text holds no number of the roots: each reaches the body as a
    name bound to its double (``_double``, and ``_exponent_double`` for an
    exponent), so the tree with the constants substituted and the folded
    tree compile alike.  A coefficient, a Num leaf and a constant
    symbol take a name of their own wherever the walk meets them, and a
    numeric exponent takes one name per distinct value, so equal powers
    still have equal text.  The text is the function's shape: the code of
    each shape is compiled once per process and kept (COMPILED_SHAPES,
    ``_shape_code``), and every function of that shape binds its own
    numbers to it, with globals of its own.

    A subtree free of the arguments is a constant: a Sum, a Product or an
    integer Power of constants folds exactly, in Fraction arithmetic, to
    one number.  The folded factors of a Product become one leading
    coefficient, left out where it is 1; a Product with a 0 factor is 0
    and drops out of its Sum, as under ``substitute``.  A Power whose
    exponent folds to an integer calls ``math.pow`` directly as ``_mpow``,
    as ``_real_pow`` does for every base there.  Every other power is
    ``(_mpow(b, p) if b > 0.0 else _pow(b, p))``, with ``_real_pow`` as
    ``_pow``: ``_real_pow`` bit for bit with one Python call less where
    b > 0.  ``math.pow`` raises OverflowError where its value overflows, as
    does an int argument past the double range where it meets a float, and
    ValueError at 0 to a negative integer power, which become DomainError
    through handlers around the whole body (float ``+ * /``, ``abs`` and
    ``max`` give inf rather than raise).  So a zero, a unit coefficient,
    an integer power and equal exponents shape the text; other numbers do
    not.

    Where no compound subtree folds and each Product's number leads, as in
    canonical form, each slot keeps its node's operand order and power
    call, so every value is ``eval_at``'s bit for bit, or DomainError
    where ``eval_at`` raises it, but for an overflowing product (see
    ``eval_at``).  Folding gives the values of the tree with the constants
    substituted, up to the rounding of another operation order."""
    names, prefix, lines, result, bound = _walk(roots, arg_names, body, constants)
    return _bind(prefix, bound, [
        f"    def _f({', '.join(names)}):",
        "        try:",
        *(f"            {slot} = {rhs}" for slot, rhs, _, _ in lines),
        f"            return {result}",
        "        except _OverflowError as exc:",
        "            raise _DomainError('overflow past the double range') from exc",
        "        except _ValueError as exc:",
        "            raise _DomainError('0 raised to a negative power') from exc",
        "    return _f",
    ])


def to_callable(e: Expr, arg_names: Iterable[str]) -> Callable[..., float]:
    """Compile to a positional-argument Python function (see ``_compile``).
    No pipeline calls it: the sampled checks compile ``to_measure_loop``
    and residual grids ``to_row_kernel``.

    Off the real domain (a fractional power of a negative base, 0 to a
    negative power, an overflowing power, an argument past the double
    range) it raises DomainError as ``eval_at`` does, and every other
    value is ``eval_at``'s bit for bit but for an overflowing product,
    which is ``inf`` here where ``eval_at`` raises DomainError.  The value
    is a double also where the body does no float operation on int
    arguments: ``1.0 *`` changes no double and converts an int, or raises
    OverflowError past the double range, inside the body's handlers."""
    return _compile((e,), arg_names, lambda ref, let: f"1.0 * {ref(e)}")


def _cancellation(e: Expr, ref, let) -> str:
    """The slot of the cancellation measure of ``e``, a residual: the
    signed sum of its terms from 0.0 in term order, over (1 + the largest
    term magnitude), the scale of the roundoff in the sum.  The terms are
    those of a Sum, and any other residual is its own term: a Product
    measures as one term, so a caller that wants its roundoff scaled by
    the terms of its sums expands it first, as
    ``ConstraintSystem.restrict`` and ``equiv_numeric`` do.  Under a table
    of constants the terms are still those of ``e`` as it stands, so a
    residual kept over symbolic parameters is measured over the terms of
    its symbolic form, whatever the numbers would make of it under
    ``substitute``.  A non-finite measure (an infinite or NaN term, or a
    sum that overflows) is for the caller to refuse: ``to_row_kernel``
    masks its node and ``to_measure_loop`` redraws its point."""
    terms = [ref(t) for t in (e.terms if isinstance(e, Sum) else (e,))]
    total = let(" + ".join(["0.0", *terms]), *terms)
    scale = let(f"_max(0.0, {', '.join(f'_abs({t})' for t in terms)})", *terms)
    return let(f"{total} / (1.0 + {scale})", total, scale)


_ERRORS = "(_DomainError, _OverflowError, _ValueError)"  # what a slot without a value raises


def _admit(names: Iterable[str], lines: list, tests: list[str]) -> tuple[list[str], str]:
    """(the code of ``_admit(*names)``, its test): whether every text of
    ``tests`` is > 0.0, False where a slot of ``lines`` has no value."""
    test = " and ".join([f"{t} > 0.0" for t in tests]) or "True"
    return [f"    def _admit({', '.join(names)}):", "        try:",
            *(f"            {slot} = {rhs}" for slot, rhs, _, _ in lines),
            f"            return {test}",
            f"        except {_ERRORS}:", "            return False"], test


def to_predicate(positive: tuple[Expr, ...], arg_names: Iterable[str],
                 constants: Mapping[str, Fraction] | None = None) -> Callable[..., bool]:
    """Compile ``_admit``: whether each of ``positive`` has a value > 0."""
    names, p, lines, tests, bound = _walk(positive, arg_names,
                                          lambda ref, let: [ref(c) for c in positive], constants)
    return _bind(p, bound, [*_admit(names, lines, tests)[0], "    return _admit"])


def to_row_kernel(e: Expr, arg_names: tuple[str, str], *values: Expr,
                  positive: tuple[Expr, ...] = (),
                  constants: Mapping[str, Fraction] | None = None) -> Callable:
    """Compile the cancellation measure of ``e`` (``_cancellation``) and
    ``values`` for the nodes of a grid over the two arguments (x, y).
    The result is ``kernel(xs)``, which returns ``row(y)``; ``row(y)``
    works the nodes (x, y) for x in ``xs`` and returns ``(numbers, keep,
    off_real)``.  A node is admitted where every expression of ``positive``
    has a value > 0.0 (as ``to_predicate``), and kept where it is admitted,
    every other slot has a value and the measure is finite.  ``numbers``
    holds ``(*values, measure)`` of each kept node in column order,
    ``keep[i]`` is 1 where the node of column i is kept and 0 elsewhere,
    and ``off_real`` counts the admitted nodes that are not kept.  The
    code comes from ``_compile``'s walk, with the roots in one body: each
    number is the double its root gives compiled alone, and a slot the
    roots share is computed once.

    Each slot is placed by the arguments it reads: a slot of x alone, or
    of neither, is computed once per column, in ``kernel``; a slot of y
    alone once per row; every other slot once per node, the conditions'
    first.  A DomainError, an overflow or 0 to a negative power in a slot
    of x alone or of y alone leaves its column or row unkept, and in a
    slot of neither every node; ``_admit`` tests those nodes alone."""
    def body(ref, let):
        return _cancellation(e, ref, let), [ref(v) for v in values], [ref(c) for c in positive]

    (x, y), p, lines, (measure, roots, tests), bound = _walk((e, *values, *positive), arg_names,
                                                             body, constants)
    need = set(tests)  # the slots the conditions read
    for slot, _, _, parts in reversed(lines):
        if slot in need:
            need.update(parts)
    by_reads: dict[int, list[str]] = {1: [], 2: [], 3: [], 4: []}  # 4: a condition's, per node
    for slot, rhs, bits, _ in lines:  # a constant slot is worked with the columns
        by_reads[4 if bits == 3 and slot in need else bits or 1].append(f"{slot} = {rhs}")
    read_per_node = {measure, *roots, *tests}.union(*(parts for _, _, bits, parts in lines
                                                      if bits == 3))
    column = ", ".join([f"{p}i", x, *(slot for slot, _, bits, _ in lines
                                       if bits == 1 and slot in read_per_node)])

    def block(code: list[str], indent: int) -> list[str]:
        return [" " * indent + line for line in code or ["pass"]]

    admit, test = _admit((x, y), [line for line in lines if line[0] in need], tests)
    return _bind(p, bound, [
        *admit,
        f"    def _kernel({p}xs):",
        f"        {p}n = _len({p}xs)",
        f"        {p}cols = []",
        f"        {p}bad = []",
        f"        for {p}i, {x} in _enumerate({p}xs):",
        "            try:",
        *block(by_reads[1], 16),
        f"                {p}cols.append(({column},))",
        f"            except {_ERRORS}:",
        f"                {p}bad.append({x})",
        f"        def _row({y}):",
        f"            {p}keep = [0] * {p}n",
        f"            {p}out = []",
        f"            {p}off = 0",
        f"            for {x} in {p}bad:",
        f"                if _admit({x}, {y}):",
        f"                    {p}off += 1",
        f"            if not {p}cols:",
        f"                return {p}out, {p}keep, {p}off",
        "            try:",
        *block(by_reads[2], 16),
        f"            except {_ERRORS}:",
        f"                for {p}c in {p}cols:",
        f"                    if _admit({p}c[1], {y}):",
        f"                        {p}off += 1",
        f"                return {p}out, {p}keep, {p}off",
        f"            for {column} in {p}cols:",
        "                try:",
        *block(by_reads[4], 20),
        f"                except {_ERRORS}:",
        "                    continue",
        f"                if {test}:",
        "                    try:",
        *block(by_reads[3], 24),
        f"                        if _isfinite({measure}):",
        f"                            {p}out += ({', '.join([*roots, measure])},)",
        f"                            {p}keep[{p}i] = 1",
        "                            continue",
        f"                    except {_ERRORS}:",
        "                        pass",
        f"                    {p}off += 1",
        f"            return {p}out, {p}keep, {p}off",
        "        return _row",
        "    return _kernel",
    ])


# ---------------------------------------------------------------------------
# randomized identity testing


def seeded_generator(count: int, seed: int) -> random.Random:
    """The generator of a sampled check of ``count`` draws, seeded with
    ``seed``: every sampled verdict draws from one built here, and none
    takes fewer than one sample."""
    if count < 1:
        raise ValueError("need at least one sample")
    return random.Random(seed)


def _exhausted(accepted: int, count: int) -> SamplingError:
    """The error of redraw number ``10 * count``, after ``accepted`` draws."""
    return SamplingError(f"exceeded retry budget ({10 * count}) after {accepted}/{count} samples")


def to_draw_loop(roots: tuple[Expr, ...], arg_names: Iterable[str],
                 boxes: tuple[tuple[float, float], ...], body,
                 constants: Mapping[str, Fraction] | None = None) -> Callable:
    """Compile a sampled check's whole draw loop: ``loop(count, seed)``
    draws points from ``seeded_generator(count, seed)`` until ``count`` of
    them have a value, and returns ``(max, total, worst, redrawn)``.  The
    code is ``_compile``'s walk of ``roots``, inlined into the loop.

    ``boxes`` holds ``(lo, span)`` per argument: coordinate i of a draw
    is ``lo + span * random()``, in argument order, the formula of
    ``rng.uniform``.  ``body(ref, let)`` returns ``(value, fallback)``,
    texts made of slots and of the arguments the roots hold.  A draw's
    value is ``value``; where a slot has no value (DomainError, an
    overflow, 0 to a negative power) it is ``fallback``, and where
    ``fallback`` is None, or the value is not below inf (an infinity or
    a NaN), the draw is redrawn.  Redraw number ``10 * count`` raises
    SamplingError.  Of the values, which must be >= 0, ``total`` is the
    sum in draw order from 0.0, ``max`` the first strict maximum from
    -1.0 and ``worst`` its point, a list in argument order.  A coordinate
    that no root holds is drawn and mapped only into a new ``worst``."""
    names, p, lines, (value, fallback), bound = _walk(roots, arg_names, body, constants)
    held = frozenset().union(*(r.free_symbols() for r in roots))
    first = len(bound)
    bound += [v for box in boxes for v in box]
    draws, point = [], []
    for i, name in enumerate(names):
        lo, span = f"{p}k{first + 2 * i}", f"{p}k{first + 2 * i + 1}"
        if name in held:
            draws.append(f"{name} = {lo} + {span} * {p}random()")
            point.append(name)
        else:
            draws.append(f"{p}d{i} = {p}random()")
            point.append(f"{lo} + {span} * {p}d{i}")
    return _bind(p, bound, [
        f"    def _loop({p}count, {p}seed):",
        f"        {p}random = _generator({p}count, {p}seed).random",
        f"        {p}n = {p}redrawn = 0",
        f"        {p}total = 0.0",
        f"        {p}max = -1.0",
        f"        {p}worst = None",
        f"        while {p}n < {p}count:",
        *(f"            {line}" for line in draws),
        "            try:",
        *(f"                {slot} = {rhs}" for slot, rhs, _, _ in lines),
        f"                {p}v = {value}",
        f"            except {_ERRORS}:",
        f"                {p}v = {'_inf' if fallback is None else fallback}",
        f"            if {p}v < _inf:",
        f"                {p}n += 1",
        f"                {p}total += {p}v",
        f"                if {p}v > {p}max:",
        f"                    {p}max = {p}v",
        f"                    {p}worst = [{', '.join(point)}]",
        "                continue",
        f"            {p}redrawn += 1",
        f"            if {p}redrawn >= 10 * {p}count:",
        f"                raise _exhausted({p}n, {p}count)",
        f"        return {p}max, {p}total, {p}worst, {p}redrawn",
        "    return _loop",
    ])


def to_measure_loop(e: Expr, arg_names: Iterable[str],
                    boxes: tuple[tuple[float, float], ...],
                    positive: tuple[Expr, ...] = ()) -> Callable:
    """``to_draw_loop`` of |the cancellation measure of ``e``|
    (``_cancellation``): a draw off the real domain, where the measure is
    not finite or where an expression of ``positive`` has no value > 0.0
    (as ``to_predicate``) takes the value ``_inf``, so it is redrawn."""
    def body(ref, let):
        measure = f"_abs({_cancellation(e, ref, let)})"
        tests = " and ".join([f"{ref(c)} > 0.0" for c in positive])
        return (f"({measure} if {tests} else _inf)" if tests else measure), None

    return to_draw_loop((e, *positive), arg_names, boxes, body)


_DEFAULT_INTERVAL = (0.5, 2.0)


class SampleSpec:
    """How to sample environments for randomized identity testing.

    Symbols default to the positive interval [0.5, 2]; individual
    symbols can be widened through ``intervals``.  ``positive`` can
    restrict sampling to the joint region where each of its expressions
    is > 0, as ``ClosedFormSolution.positive`` (a draw outside counts
    against the retry budget, like a domain error).
    """

    __slots__ = ("count", "rel_tol", "seed", "intervals", "positive")

    def __init__(self, count: int = 64, rel_tol: float = 1e-9, seed: int = 0,
                 intervals: Mapping[str, tuple[float, float]] | None = None,
                 positive: tuple[Expr, ...] = ()):
        self.count = count
        self.rel_tol = rel_tol
        self.seed = seed
        self.intervals = {} if intervals is None else intervals
        self.positive = positive


class EquivResult(NamedTuple):
    equivalent: bool
    samples: int
    witness: dict[str, float] | None = None

    def __bool__(self):
        return self.equivalent


def equiv_numeric(e1: Expr, e2: Expr, spec: SampleSpec | None = None) -> EquivResult:
    """Decide equality of two expressions on random samples.

    True iff the cancellation measure of the expanded e1 - e2 is at
    most ``rel_tol`` in magnitude at each of ``count`` sampled points,
    drawn in one compiled loop (``to_measure_loop``) over the sorted
    symbols of e1, e2 and ``positive``; where it is not, the witness is
    the point of the largest magnitude.  Points outside ``positive`` or
    the real domain, and points where the measure is not finite, are
    redrawn.  Equal trees are not subtracted, and a difference that
    expands to a structural 0 is neither compiled nor sampled.
    """
    spec = spec or SampleSpec()
    if spec.count < 1:  # ahead of a structural 0, which draws nothing
        raise ValueError("need at least one sample")
    if e1 == e2:
        return EquivResult(True, spec.count)
    difference = expand(add(e1, mul(_MINUS_ONE, e2)))
    if is_zero(difference):
        return EquivResult(True, spec.count)
    names = sorted(frozenset().union(e1.free_symbols(), e2.free_symbols(),
                                     *(c.free_symbols() for c in spec.positive)))
    # (lo, hi - lo): each coordinate is drawn by rng.uniform's formula
    boxes = tuple((lo, hi - lo) for lo, hi in (spec.intervals.get(n, _DEFAULT_INTERVAL)
                                               for n in names))
    max_abs, _, worst, _ = to_measure_loop(difference, names, boxes,
                                           spec.positive)(spec.count, spec.seed)
    if max_abs <= spec.rel_tol:
        return EquivResult(True, spec.count)
    return EquivResult(False, spec.count, dict(zip(names, worst)))


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
    if coeff != 1 or not factors:
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
        coeff, factors = _strip_coeff(e)
        return f"-{_product_text(factors, -coeff)}" if coeff < 0 else _product_text(factors, coeff)
    if isinstance(e, Sum):
        out = [to_text(e.terms[0])]
        for t in e.terms[1:]:
            coeff, factors = (t.value, ()) if isinstance(t, Num) else _strip_coeff(t)
            out.append(f" - {_product_text(factors, -coeff)}" if coeff < 0
                       else f" + {_product_text(factors, coeff)}")
        return "".join(out)
    raise TypeError(f"not an expression: {e!r}")
