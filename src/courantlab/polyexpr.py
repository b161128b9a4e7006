"""Exact multivariate polynomials over the rationals.

Every symbolic object in this package (sections, anchors, brackets, base
maps) reduces to arithmetic here.  A polynomial is stored as

    Polynomial = number of variables + {packed monomial key -> coefficient}

A monomial x1^e1 ... xn^en is packed into one int (the Kronecker
substitution, as in Monagan & Pearce, "Parallel sparse polynomial
multiplication using heaps", ISSAC 2009): variable i owns the bit field
[16 i, 16 i + 16), the first variable the lowest bits.  Multiplying two
monomials adds their keys.  The top bit of each field is a guard bit.
Stored exponents stay below it (at most `MAX_EXPONENT`), so the sum of two
keys never carries from one field into the next, and a product whose
exponent reaches the guard bit raises `ExponentOverflowError` instead of aliasing
into the next variable.  A key does not depend on the variable count, so
appending variables leaves keys unchanged and `lift` is a shift.

Substitution has one path: `compose` expands each term as the product of
the powers of the substituted polynomials, formed by `_power` and cached
per call, so a power that reaches the guard bit raises
`ExponentOverflowError` as `**` does.  Substituting the identity map in the
same variables (`_is_identity`) returns a copy of the terms, which is what
the expansion gives.

Coefficients are ints when integral and `fractions.Fraction` otherwise,
never floats.  The zero polynomial has an empty term map, and every
operation deletes a term when it cancels, so structural equality is
polynomial identity.  Terms keep insertion order: a product runs its outer
loop over the left factor and its inner loop over the right one.  Powers
have one order too: `**` and `compose` both form q^e by binary powering
(`_power`).  Printing sorts terms, and no output depends on term order:
every certificate witness is the least failing tuple in one order
(courant_core).

The public `terms` attribute is a read-only `types.MappingProxyType` over
a dict {exponent tuple: Fraction}, built in term order on each read: every
key is decoded and every coefficient converted then, so even its len()
costs a pass over the terms.  `constant_value()` and `eval()` return
`Fraction` too.

`Frozen` is the base of every immutable record of the package: assigning
an attribute raises AttributeError, and a constructor fills the slots
with `_set`.

A `PolyMap` is a tuple of polynomials sharing one input arity: a polynomial
map R^n -> R^k.  It serves both as the coefficient vector of a bundle
section and as a base map between bundle bases.

The text format accepted by `parse` (and produced by `Polynomial.__str__`):

    expr   := ['-'] term (('+'|'-') ['-'] term)*
    term   := factor ('*' factor)*
    factor := base ('^' nonneg-int)?
    base   := rational-literal | identifier | '(' expr ')'
    rational-literal := int ('/' positive-int)?

Whitespace is insignificant.  Identifiers must appear in the declared
variable list.  There is no general division: '/' only joins two integer
literals into a rational literal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import zip_longest
from math import comb, prod
from operator import or_
from types import MappingProxyType
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

__all__ = ["Polynomial", "PolyMap", "ParseError", "parse", "monomials_up_to",
           "poly_sum", "MAX_EXPONENT", "ExponentOverflowError"]


def monomials_up_to(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= degree, graded lexicographic."""
    if num_vars == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, budget: int):
        if remaining == 1:
            for e in range(budget + 1):
                out.append(prefix + (e,))
            return
        for e in range(budget + 1):
            rec(prefix + (e,), remaining - 1, budget - e)

    by_degree: dict[int, list[tuple[int, ...]]] = {}
    rec((), num_vars, degree)
    for exps in out:
        by_degree.setdefault(sum(exps), []).append(exps)
    return [e for d in sorted(by_degree) for e in sorted(by_degree[d])]


class ExponentOverflowError(OverflowError):
    """A product needs an exponent above MAX_EXPONENT in some variable."""


def _shown(value) -> str:
    """repr(value), cut to 80 characters: an error line names the value it
    refuses, not a whole file of it."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


class ParseError(ValueError):
    """Syntax or name error in a polynomial expression, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- packed monomial keys and the term-dict kernel -----------------------------
#
# The functions below work on bare term dicts {key: int | Fraction}.  They
# serve Polynomial here and the operations of CourantStructure in
# courant_core.  None of them mutates an argument other than `dst`.

_BITS = 16
_FIELD = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1     # the bit above is the guard bit
MAX_POWER_BITS = 1 << 20    # the parser's bound on the size of a power or product (`_size_bits`)
MAX_PARSE_BITS = 20 * MAX_POWER_BITS    # the parser's bound on their total in one text


@lru_cache(maxsize=None)
def _guard_mask(num_vars: int) -> int:
    return sum(1 << (_BITS * v + _BITS - 1) for v in range(num_vars))


def _pack(exps: Sequence[int]) -> int:
    key = 0
    for v, e in enumerate(exps):
        if not 0 <= e <= MAX_EXPONENT:
            raise ValueError(
                f"exponent {e} in {tuple(exps)} is outside 0..{MAX_EXPONENT}"
            )
        key |= e << (_BITS * v)
    return key


def _unpack(key: int, num_vars: int) -> tuple[int, ...]:
    return tuple((key >> (_BITS * v)) & _FIELD for v in range(num_vars))


def _coeff(value) -> Scalar:
    """An exact coefficient: int when integral, Fraction otherwise."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return int(value.numerator) if value.denominator == 1 else value


def _checked(terms: dict, num_vars: int) -> dict:
    """Return `terms`, or raise if a key has reached a guard bit."""
    if terms and reduce(or_, terms) & _guard_mask(num_vars):
        raise ExponentOverflowError(
            f"a product has an exponent above {MAX_EXPONENT}, "
            f"the per-variable limit of the packed monomial keys"
        )
    return terms


def _scaled(terms: dict, scale) -> dict:
    """`terms` times a nonzero scalar, integral Fractions turned into ints."""
    out = {key: c * scale for key, c in terms.items()}
    # an int +-1 keeps every coefficient's type and denominator
    return out if type(scale) is int and abs(scale) == 1 else _normalised(out)


def _add_into(dst: dict, src: dict) -> None:
    """dst += src, in src's order, deleting terms that cancel."""
    for key, c in src.items():
        cur = dst.get(key)
        if cur is None:
            dst[key] = c
        else:
            cur = cur + c
            if not cur:
                del dst[key]
            elif type(cur) is Fraction and cur.denominator == 1:
                dst[key] = cur.numerator
            else:
                dst[key] = cur


def _mul_into(dst: dict, p: dict, q: dict) -> None:
    """dst += p * q: outer loop over p, inner loop over q."""
    for kp, cp in p.items():
        for kq, cq in q.items():
            key = kp + kq
            cur = dst.get(key)
            if cur is None:
                dst[key] = cp * cq
            else:
                cur = cur + cp * cq
                if cur:
                    dst[key] = cur
                else:
                    del dst[key]


def _product(p: dict, q: dict, num_vars: int) -> dict:
    """p * q as a new dict, in `_mul_into` order, overflow-checked."""
    if len(p) == 1:
        # a monomial factor maps distinct keys to distinct keys: no merging
        (kp, cp), = p.items()
        if not kp and cp == 1:
            return dict(q)      # the unit; q is canonical and checked
        out = {kp + kq: cp * cq for kq, cq in q.items()}
    elif len(q) == 1:
        (kq, cq), = q.items()
        if not kq and cq == 1:
            return dict(p)
        out = {kp + kq: cp * cq for kp, cp in p.items()}
    else:
        out = {}
        _mul_into(out, p, q)
    return _checked(_normalised(out), num_vars)


def _normalised(terms: dict) -> dict:
    """Turn integral Fraction coefficients into ints, in place; return `terms`."""
    for key, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[key] = c.numerator
    return terms


def _deriv(terms: dict, var: int) -> dict:
    """Partial derivative, not normalised; no two keys merge."""
    shift = _BITS * var
    one = 1 << shift
    out = {}
    for key, c in terms.items():
        e = (key >> shift) & _FIELD
        if e:
            out[key - one] = c * e
    return out


class Frozen:
    """Base of the immutable records: assigning or deleting an attribute
    raises AttributeError("<Class> is immutable")."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _set(self, *values):
        """Fill the slots in order from `values`, those after them with None."""
        for slot, value in zip_longest(self.__slots__, values):
            object.__setattr__(self, slot, value)


class Polynomial(Frozen):
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("num_vars", "_packed")

    def __init__(self, num_vars: int, terms=None):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        clean: dict[int, Scalar] = {}
        if terms:
            for exps, coeff in (terms.items() if hasattr(terms, "items") else terms):
                exps = tuple(exps)
                if len(exps) != num_vars:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {num_vars}"
                    )
                coeff = _coeff(coeff)
                if coeff:
                    _add_into(clean, {_pack(exps): coeff})
        _set_num_vars(self, num_vars)
        _set_packed(self, clean)

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {exponent tuple: Fraction} map of the terms, in term order."""
        n = self.num_vars
        return MappingProxyType({_unpack(key, n): Fraction(c) for key, c in self._packed.items()})

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, num_vars: int, value: Scalar) -> "Polynomial":
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        value = _coeff(value)
        return _raw(num_vars, {0: value} if value else {})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} variables")
        return _raw(num_vars, {1 << (_BITS * index): 1})

    @classmethod
    def monomial(cls, num_vars: int, exps: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        return cls(num_vars, {tuple(exps): coeff})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def is_constant(self) -> bool:
        return not any(self._packed)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (errors otherwise)."""
        if not self.is_constant():
            raise ValueError(f"polynomial {self} is not constant")
        return Fraction(self._packed.get(0, 0))

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        n = self.num_vars
        return max((sum(_unpack(key, n)) for key in self._packed), default=0)

    # -- ring arithmetic -------------------------------------------------

    def _check_arity(self, other: "Polynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"variable-count mismatch: {self.num_vars} vs {other.num_vars}"
            )

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            self._check_arity(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.num_vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._packed)
        _add_into(out, other._packed)
        return _raw(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.num_vars, _scaled(self._packed, -1))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._packed)
        _add_into(out, _scaled(other._packed, -1))
        return _raw(self.num_vars, out)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_arity(other)
            return _raw(self.num_vars, _product(self._packed, other._packed, self.num_vars))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        other = _coeff(other)
        if not other:
            return Polynomial(self.num_vars)
        return _raw(self.num_vars, _scaled(self._packed, other))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        return _power(self, exponent, _power_cache(self))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.num_vars, other)
        return self.num_vars == other.num_vars and self._packed == other._packed

    def __hash__(self):
        """A constant hashes as its value, which it equals; see `__eq__`."""
        if not any(self._packed):
            return hash(self._packed.get(0, 0))
        return hash((self.num_vars, frozenset(self._packed.items())))

    # -- calculus ---------------------------------------------------------

    def diff(self, var_index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable `var_index`."""
        if not 0 <= var_index < self.num_vars:
            raise ValueError(
                f"variable index {var_index} out of range for {self.num_vars} variables"
            )
        return _raw(self.num_vars, _normalised(_deriv(self._packed, var_index)))

    def gradient(self) -> list["Polynomial"]:
        return [self.diff(i) for i in range(self.num_vars)]

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        """Exact evaluation: the sum of c * prod(x_i ** e_i) over the terms,
        which no order of summation changes."""
        n = self.num_vars
        if len(point) != n:
            raise ValueError(f"point has {len(point)} coordinates, expected {n}")
        point = [Fraction(v) for v in point]
        return sum((c * prod(map(pow, point, _unpack(key, n))) for key, c in self._packed.items()),
                   Fraction(0))

    def compose(self, maps: "PolyMap | Sequence[Polynomial]") -> "Polynomial":
        """Substitute `maps[i]` for variable i; exact expansion.

        The result lives in the variables of the substituted maps.  A zero
        or constant polynomial has no variable to substitute: once the
        arity and the variable counts are checked, it returns a copy of its
        terms without substitution.  Otherwise term c * x^e becomes
        c * prod(q_i^e_i), the powers q_i^e_i formed by binary powering
        (`_power`) and cached for the call, one cache for each variable
        that occurs, and the images are summed in the order of the terms.
        A power or product whose exponent reaches the guard bit raises
        `ExponentOverflowError`, as in `**`.

        When the maps are x_1, ..., x_n in these same n variables, in order
        and with coefficient 1 (`_is_identity`), the copy of the terms is
        returned without expansion, and it is exact: each x_i^e_i is the
        single term of key e_i << 16 i, the keys of distinct variables
        occupy distinct fields, so their product is the one term of key
        `key` and coefficient 1, and c times it is the term itself.  The
        images of distinct terms have distinct keys and nothing cancels, so
        the sum keeps the keys, coefficients and order of the terms.  No
        exponent can reach the guard bit, as every stored exponent is below
        it.
        """
        is_map = isinstance(maps, PolyMap)
        outputs = maps.outputs if is_map else tuple(maps)
        if len(outputs) != self.num_vars:
            raise ValueError(
                f"composition arity mismatch: {len(outputs)} maps for {self.num_vars} variables"
            )
        if is_map:
            inner_vars = maps.num_inputs    # the map checked its outputs against it
        else:
            inner_vars = outputs[0].num_vars if outputs else 0
            for q in outputs:
                if q.num_vars != inner_vars:
                    raise ValueError("substituted maps disagree on variable count")
        return self._substituted(outputs, inner_vars, _is_identity(inner_vars, outputs))

    def _substituted(self, outputs: tuple, inner_vars: int, identity: bool) -> "Polynomial":
        """`compose` once the arity is checked, `identity` the verdict of
        `_is_identity` on the outputs, which `PolyMap.compose` reads once
        for all of its own."""
        packed = self._packed
        if identity or not packed or (len(packed) == 1 and 0 in packed):
            return _raw(inner_vars, dict(packed))
        # cache powers of each substituted polynomial, formed as q ** e forms
        # them, from the first term in which its variable occurs
        powers, out = {}, {}
        for key, coeff in self._packed.items():
            factor = None
            for i, e in enumerate(_unpack(key, self.num_vars)):
                if e:
                    if i not in powers:
                        powers[i] = _power_cache(outputs[i])
                    qe = _power(outputs[i], e, powers[i])
                    factor = qe if factor is None else factor * qe
            if factor is None:
                _add_into(out, {0: coeff})
            else:
                _add_into(out, _scaled(factor._packed, coeff))
        return _raw(inner_vars, out)

    def lift(self, new_num_vars: int, offset: int = 0) -> "Polynomial":
        """Reinterpret in a larger variable set, variable i -> i + offset."""
        if offset < 0 or offset + self.num_vars > new_num_vars:
            raise ValueError("lift target does not fit")
        shift = _BITS * offset
        return _raw(new_num_vars, {key << shift: c for key, c in self._packed.items()})

    # -- printing ----------------------------------------------------------

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if names is not None and len(names) != self.num_vars:
            raise ValueError("wrong number of variable names")
        if not self._packed:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.num_vars)]
        terms = [(_unpack(key, self.num_vars), c) for key, c in self._packed.items()]
        terms.sort(key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))
        parts: list[str] = []
        for exps, coeff in terms:
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Polynomial({self.num_vars}, {self.to_string()!r})"


# The slot setters write past `Frozen.__setattr__`, which refuses every write;
# `_raw` and the constructor call them directly, as `_set` costs a loop.
_set_num_vars = Polynomial.num_vars.__set__
_set_packed = Polynomial._packed.__set__


def _raw(num_vars: int, packed: dict) -> Polynomial:
    """Internal: wrap an already-canonical packed term dict without copying."""
    p = object.__new__(Polynomial)
    _set_num_vars(p, num_vars)
    _set_packed(p, packed)
    return p


def _is_identity(num_vars: int, outputs) -> bool:
    """Whether `outputs`, polynomials in `num_vars` variables, are those
    variables x_1, ..., x_n in order: output i is the single term of key
    1 << 16 i with coefficient 1.  A permutation of the variables, a scaled
    variable or the variables of a larger space is not."""
    return len(outputs) == num_vars and all(
        q._packed == {1 << (_BITS * i): 1} for i, q in enumerate(outputs))


def _power_cache(q: Polynomial) -> dict:
    return {0: Polynomial.constant(q.num_vars, 1), 1: q}


def _power(q: Polynomial, e: int, cache: dict) -> Polynomial:
    """q ** e by binary powering, low bit first, as one fixed power order.

    q^e is the product of the squares q^(2^t) over the set bits of e,
    multiplied on in increasing t, and q^(2^t) = q^(2^(t-1)) * q^(2^(t-1)).
    `q ** e` and the power cache of `compose` both go through here, so they
    give the same terms in the same order, and both form exactly the squares
    up to the top bit of e (the products that can raise
    `ExponentOverflowError`).  `cache` holds {0: 1, 1: q} and every power
    formed so far; it is extended in place.
    """
    result = cache.get(e)
    if result is not None:
        return result
    square, bit, done = q, 1, 0
    while True:
        if e & bit:
            done += bit
            p = cache.get(done)
            if p is None:
                p = square if result is None else result * square
                cache[done] = p
            result = p
        bit <<= 1
        if bit > e:
            return result
        p = cache.get(bit)
        if p is None:
            p = square * square
            cache[bit] = p
        square = p


def poly_sum(num_vars: int, polys: Iterable[Polynomial]) -> Polynomial:
    """The sum of `polys`, accumulated in place.

    The terms and their order are those of the chain
    Polynomial(num_vars) + p1 + p2 + ..., without a copy per addition.
    """
    out: dict = {}
    for p in polys:
        if p.num_vars != num_vars:
            raise ValueError(f"variable-count mismatch: {p.num_vars} vs {num_vars}")
        _add_into(out, p._packed)
    return _raw(num_vars, out)


class PolyMap(Frozen):
    """A polynomial map R^num_inputs -> R^k, one polynomial per output."""

    __slots__ = ("num_inputs", "outputs")

    def __init__(self, num_inputs: int, outputs: Iterable[Polynomial]):
        outputs = tuple(outputs)
        for p in outputs:
            if p.num_vars != num_inputs:
                raise ValueError(
                    f"component has {p.num_vars} variables, expected {num_inputs}"
                )
        # two direct writes: a PolyMap is built too often for the loop of `_set`
        object.__setattr__(self, "num_inputs", num_inputs)
        object.__setattr__(self, "outputs", outputs)

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls(n, [Polynomial.variable(n, i) for i in range(n)])

    @classmethod
    def zero(cls, num_inputs: int, num_outputs: int) -> "PolyMap":
        return cls(num_inputs, [Polynomial(num_inputs)] * num_outputs)

    @classmethod
    def constant(cls, num_inputs: int, values: Sequence[Scalar]) -> "PolyMap":
        return cls(num_inputs, [Polynomial.constant(num_inputs, v) for v in values])

    @classmethod
    def from_exprs(cls, texts: Sequence[str], variables: Sequence[str]) -> "PolyMap":
        return cls(len(variables), [parse(t, variables) for t in texts])

    def __len__(self):
        return len(self.outputs)

    def __iter__(self):
        return iter(self.outputs)

    def __getitem__(self, i) -> Polynomial:
        return self.outputs[i]

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.num_inputs == other.num_inputs and self.outputs == other.outputs

    def __hash__(self):
        return hash((self.num_inputs, self.outputs))

    def eval(self, point: Sequence[Scalar]) -> tuple[Fraction, ...]:
        return tuple(p.eval(point) for p in self.outputs)

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self after inner: (self . inner)(x) = self(inner(x))."""
        if inner.num_inputs < 0 or len(inner.outputs) != self.num_inputs:
            raise ValueError(
                f"composition arity mismatch: inner has {len(inner.outputs)} outputs, "
                f"outer expects {self.num_inputs}"
            )
        n, outputs = inner.num_inputs, inner.outputs
        identity = _is_identity(n, outputs)
        return PolyMap(n, [p._substituted(outputs, n, identity) for p in self.outputs])

    def jacobian(self) -> list[list[Polynomial]]:
        """Matrix of partials, entry (i, j) = d outputs[i] / d x_j; the row
        of a constant output is zero without differentiating."""
        zero = Polynomial(self.num_inputs)
        return [[zero if p.is_constant() else p.diff(j) for j in range(self.num_inputs)]
                for p in self.outputs]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.outputs)

    def to_strings(self, names: Sequence[str] | None = None) -> list[str]:
        return [p.to_string(names) for p in self.outputs]

    def __repr__(self):
        body = ", ".join(self.to_strings())
        return f"PolyMap({self.num_inputs} -> {len(self.outputs)}: [{body}])"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        """(kind, value, position); kind in {int, ident, op, end}."""
        self._skip_ws()
        start = self.pos
        if start >= len(self.text):
            return ("end", "", start)
        ch = self.text[start]
        if ch.isdecimal():
            end = start
            while end < len(self.text) and self.text[end].isdecimal():
                end += 1
            return ("int", self.text[start:end], start)
        if ch.isalpha() or ch == "_":
            end = start
            while end < len(self.text) and (self.text[end].isalnum() or self.text[end] == "_"):
                end += 1
            return ("ident", self.text[start:end], start)
        if ch in "+-*/^()":
            return ("op", ch, start)
        raise ParseError(f"unexpected character {ch!r}", start)

    def next(self):
        kind, value, start = self.peek()
        self.pos = start + len(value) if kind != "end" else start
        return (kind, value, start)


def _integer(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:      # more digits than int() converts from a string
        raise ParseError(f"integer literal of {len(digits)} digits is too long", pos) from None


def _coefficient_bits(p: Polynomial) -> int:
    """The largest bit length of a numerator or denominator of p."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in p._packed.values()), default=0)


def _size_bits(p: Polynomial) -> int:
    """The size of p: its term count times its largest coefficient bits."""
    return len(p._packed) * _coefficient_bits(p)


def _power_bits(p: Polynomial, e: int) -> int:
    """`_size_bits` of p^e, estimated before powering.

    With t terms, p^e has at most C(e + t - 1, t - 1) terms, and at most
    prod_v (e deg_v + 1) for the degree deg_v of p in each variable v.  Each
    coefficient is a sum of at most t^e products of e coefficients of p, so
    it has about e (b + ceil(log2 t)) bits, b the largest of p's.  For one
    term the estimate is e b.
    """
    t = len(p._packed)
    if not t:
        return 0
    degrees = [max(exps) for exps in zip(*(_unpack(k, p.num_vars) for k in p._packed))]
    count = min(comb(e + t - 1, t - 1), prod(e * d + 1 for d in degrees))
    return count * e * (_coefficient_bits(p) + (t - 1).bit_length())


def parse(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression over the named variables into a Polynomial.

    Raises ParseError on syntax errors (with position), unknown identifiers,
    negative or malformed exponents, and on powers too large to form:
    before powering, an exponent above `MAX_EXPONENT` is rejected for every
    base, and so is a power whose term count times coefficient bits could
    exceed `MAX_POWER_BITS` = 2^20 (`_power_bits`; for a constant c^e, the
    bit length of c's numerator or denominator times e).  A product is
    rejected once its running value's term count times coefficient bits
    passes `MAX_POWER_BITS`.  Every power's estimate and every running
    product's size is charged to one total, and the text is rejected once
    that passes `MAX_PARSE_BITS`, so that input text cannot ask for
    unbounded memory or time, however long it is.  An integer literal
    longer than int() converts is rejected too.

    A text made only of decimal digits is its own constant and skips the
    grammar.
    """
    names = list(variables)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    if text.isdecimal():
        return Polynomial.constant(len(names), _integer(text, 0))
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    lex = _Lexer(text)
    spent = 0

    def charge(bits: int, what: str, pos: int) -> None:
        nonlocal spent
        if bits > MAX_POWER_BITS:
            raise ParseError(f"{what} above {MAX_POWER_BITS} bits", pos)
        spent += bits
        if spent > MAX_PARSE_BITS:
            raise ParseError(f"powers and products above {MAX_PARSE_BITS} bits in all", pos)

    def parse_expr() -> Polynomial:
        acc = parse_signed_term()
        while True:
            kind, value, _ = lex.peek()
            if kind == "op" and value in "+-":
                lex.next()
                rhs = parse_signed_term()
                acc = acc + rhs if value == "+" else acc - rhs
            else:
                return acc

    def parse_signed_term() -> Polynomial:
        kind, value, _ = lex.peek()
        if kind == "op" and value == "-":
            lex.next()
            return -parse_term()
        return parse_term()

    def parse_term() -> Polynomial:
        acc = parse_factor()
        while True:
            kind, value, pos = lex.peek()
            if kind == "op" and value == "*":
                lex.next()
                rhs = parse_factor()
                try:
                    acc = acc * rhs
                except ExponentOverflowError as exc:
                    raise ParseError(str(exc), pos) from None
                charge(_size_bits(acc), "product", pos)
            else:
                return acc

    def parse_factor() -> Polynomial:
        base = parse_base()
        kind, value, pos = lex.peek()
        if kind == "op" and value == "^":
            lex.next()
            kind, value, pos = lex.next()
            if kind == "op" and value == "-":
                raise ParseError("negative exponent", pos)
            if kind != "int":
                raise ParseError("expected a non-negative integer exponent", pos)
            exponent = _integer(value, pos)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent above {MAX_EXPONENT}", pos)
            charge(_power_bits(base, exponent),
                   f"{'constant ' if base.is_constant() else ''}power", pos)
            try:
                return base ** exponent
            except ExponentOverflowError as exc:
                raise ParseError(str(exc), pos) from None
        return base

    def parse_base() -> Polynomial:
        kind, value, pos = lex.next()
        if kind == "int":
            numerator = _integer(value, pos)
            kind2, value2, pos2 = lex.peek()
            if kind2 == "op" and value2 == "/":
                lex.next()
                kind3, value3, pos3 = lex.next()
                denominator = _integer(value3, pos3) if kind3 == "int" else 0
                if denominator == 0:
                    raise ParseError("expected a positive integer denominator", pos3)
                return Polynomial.constant(n, Fraction(numerator, denominator))
            return Polynomial.constant(n, numerator)
        if kind == "ident":
            if value not in index:
                raise ParseError(f"unknown identifier {_shown(value)}", pos)
            return Polynomial.variable(n, index[value])
        if kind == "op" and value == "(":
            inner = parse_expr()
            kind2, value2, pos2 = lex.next()
            if kind2 != "op" or value2 != ")":
                raise ParseError("expected ')'", pos2)
            return inner
        raise ParseError(f"expected a number, variable, or '('", pos)

    result = parse_expr()
    kind, value, pos = lex.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {_shown(value)}", pos)
    return result
