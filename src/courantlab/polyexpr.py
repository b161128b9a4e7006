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

The same linearity makes substitution cheap when each substituted
polynomial is one term c_i * x^(k_i) or zero, as for the zero-section base
maps x -> (x, 0): `compose` then sends the key e of each term to
sum e_i k_i and its coefficient c to c * prod(c_i^e_i), in one pass and
without polynomial products.  If some term's sum of e_i times the largest
exponent of output i could pass `MAX_EXPONENT`, the whole call falls back
to the general expansion, which raises `ExponentOverflowError` exactly as
before.

Coefficients are ints when integral and `fractions.Fraction` otherwise,
never floats.  The zero polynomial has an empty term map, and every
operation deletes a term when it cancels, so structural equality is
polynomial identity.  Terms keep insertion order: a product runs its outer
loop over the left factor and its inner loop over the right one.  Powers
have one order too: `**` and `compose` both form q^e by binary powering
(`_power`).  Printing sorts terms; the one output that depends on term
order is an axiom witness (courant_core), the first term of a defect.

The public `terms` attribute is a read-only view of the same map with
exponent-tuple keys and `Fraction` values.  Its len() is O(1); keys are
decoded only while iterating.  `constant_value()` and `eval()` return
`Fraction` too.

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

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
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


def _monomial_table(outputs) -> tuple | None:
    """Per output (shift, key or None for zero, coeff, largest exponent) when
    every output is a single term or zero; None when some output is not."""
    table = []
    for i, q in enumerate(outputs):
        if len(q._packed) > 1:
            return None
        if q._packed:
            (k, c), = q._packed.items()
            top = max(_unpack(k, q.num_vars), default=0)
            table.append((_BITS * i, k, c, top))
        else:
            table.append((_BITS * i, None, 0, 0))
    return tuple(table)


def _substitute_monomials(terms: dict, table: tuple) -> dict | None:
    """`terms` with variable i replaced by the single term or zero that
    `table[i]` describes (see `_monomial_table`), by key arithmetic; None if
    a term could overflow a key field."""
    out: dict = {}
    for key, coeff in terms.items():
        new_key = 0
        bound = 0
        dropped = False
        for shift, k, c, top in table:
            e = (key >> shift) & _FIELD
            if not e:
                continue
            if k is None:
                dropped = True
                continue
            bound += e * top
            new_key += e * k
            if c != 1:
                coeff = coeff * c ** e
        if bound > MAX_EXPONENT:
            return None
        if dropped:
            continue
        if type(coeff) is Fraction and coeff.denominator == 1:
            coeff = coeff.numerator
        _add_into(out, {new_key: coeff})
    return out


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


class _TermsView(Mapping):
    """Read-only {exponent tuple: Fraction} view of a packed term dict."""

    __slots__ = ("_packed", "_num_vars")

    def __init__(self, packed: dict, num_vars: int):
        self._packed = packed
        self._num_vars = num_vars

    def __len__(self):
        return len(self._packed)

    def __iter__(self):
        n = self._num_vars
        return (_unpack(key, n) for key in self._packed)

    def __getitem__(self, exps):
        try:
            if len(exps) != self._num_vars:
                raise KeyError(exps)
            return Fraction(self._packed[_pack(exps)])
        except (TypeError, ValueError):
            raise KeyError(exps) from None

    def items(self):
        """A list of (exponent tuple, Fraction) pairs, in term order."""
        n = self._num_vars
        return [(_unpack(key, n), Fraction(c)) for key, c in self._packed.items()]

    def __repr__(self):
        return repr(dict(self.items()))


class Polynomial:
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

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> Mapping:
        """Read-only {exponent tuple: Fraction} view of the terms."""
        return _TermsView(self._packed, self.num_vars)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars)

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
        """Exact evaluation by recursive Horner accumulation."""
        if len(point) != self.num_vars:
            raise ValueError(
                f"point has {len(point)} coordinates, expected {self.num_vars}"
            )
        point = [Fraction(v) for v in point]
        return _horner(list(self._packed.items()), point, 0)

    def compose(self, maps: "PolyMap | Sequence[Polynomial]") -> "Polynomial":
        """Substitute `maps[i]` for variable i; exact expansion.

        The result lives in the variables of the substituted maps.  A zero
        or constant polynomial has no variable to substitute: once the
        arity and the variable counts are checked, it returns a copy of its
        terms without substitution.  When every substituted polynomial is a
        single term c_i * x^(k_i) or zero, the substitution is a linear map
        on the packed keys: term c * x^e goes to c * prod(c_i^e_i) *
        x^(sum e_i k_i), and to nothing if it has a positive exponent on a
        zero output.  That path runs in one pass over the terms, from a
        table of (shift, key, coefficient, largest exponent) per output; a
        `PolyMap` forms that table on its first substitution and keeps it,
        so composing many polynomials with one map forms it once.  A call
        where some term could reach the guard bit (sum of e_i times the
        largest exponent of output i, over the nonzero outputs, above
        `MAX_EXPONENT`) takes the general path, which raises
        `ExponentOverflowError` exactly when an intermediate product
        overflows.  All paths give the same terms in the same order.
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
        packed = self._packed
        if not packed or (len(packed) == 1 and 0 in packed):
            return _raw(inner_vars, dict(packed))
        table = maps._monomials if is_map else _monomial_table(outputs)
        if table is not None:
            out = _substitute_monomials(packed, table)
            if out is not None:
                return _raw(inner_vars, out)
        # cache powers of each substituted polynomial, formed as q ** e forms them
        powers = [_power_cache(q) for q in outputs]
        out = {}
        for key, coeff in self._packed.items():
            factor = None
            for i, e in enumerate(_unpack(key, self.num_vars)):
                if e:
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
        if names is None:
            names = [f"x{i + 1}" for i in range(self.num_vars)]
        elif len(names) != self.num_vars:
            raise ValueError("wrong number of variable names")
        if not self._packed:
            return "0"
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


# The slot setters write past Polynomial.__setattr__, which refuses every write.
_set_num_vars = Polynomial.num_vars.__set__
_set_packed = Polynomial._packed.__set__


def _raw(num_vars: int, packed: dict) -> Polynomial:
    """Internal: wrap an already-canonical packed term dict without copying."""
    p = object.__new__(Polynomial)
    _set_num_vars(p, num_vars)
    _set_packed(p, packed)
    return p


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


def _horner(items, point, var: int):
    """Recursive Horner evaluation over packed keys, grouping on one variable."""
    if not items:
        return Fraction(0)
    if var == len(point):
        return sum((c for _, c in items), Fraction(0))
    shift = _BITS * var
    groups: dict[int, list] = {}
    for key, coeff in items:
        groups.setdefault((key >> shift) & _FIELD, []).append((key, coeff))
    x = point[var]
    acc = Fraction(0)
    prev = None
    for e in sorted(groups, reverse=True):
        if prev is not None:
            acc = acc * x ** (prev - e)
        acc = acc + _horner(groups[e], point, var + 1)
        prev = e
    if prev:
        acc = acc * x ** prev
    return acc


class PolyMap:
    """A polynomial map R^num_inputs -> R^k, one polynomial per output."""

    __slots__ = ("num_inputs", "outputs", "_table")

    def __init__(self, num_inputs: int, outputs: Iterable[Polynomial]):
        outputs = tuple(outputs)
        for p in outputs:
            if p.num_vars != num_inputs:
                raise ValueError(
                    f"component has {p.num_vars} variables, expected {num_inputs}"
                )
        object.__setattr__(self, "num_inputs", num_inputs)
        object.__setattr__(self, "outputs", outputs)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMap is immutable")

    @property
    def _monomials(self) -> tuple | None:
        """`_monomial_table` of the outputs, formed on the first substitution."""
        try:
            return self._table
        except AttributeError:
            table = _monomial_table(self.outputs)
            object.__setattr__(self, "_table", table)
            return table

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
        return PolyMap(inner.num_inputs, [p.compose(inner) for p in self.outputs])

    def jacobian(self) -> list[list[Polynomial]]:
        """Matrix of partials, entry (i, j) = d outputs[i] / d x_j."""
        return [[p.diff(j) for j in range(self.num_inputs)] for p in self.outputs]

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
        if ch.isdigit():
            end = start
            while end < len(self.text) and self.text[end].isdigit():
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


def parse(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression over the named variables into a Polynomial.

    Raises ParseError on syntax errors (with position), unknown identifiers,
    and negative or malformed exponents.
    """
    names = list(variables)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    lex = _Lexer(text)

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
            try:
                return base ** int(value)
            except ExponentOverflowError as exc:
                raise ParseError(str(exc), pos) from None
        return base

    def parse_base() -> Polynomial:
        kind, value, pos = lex.next()
        if kind == "int":
            numerator = int(value)
            kind2, value2, pos2 = lex.peek()
            if kind2 == "op" and value2 == "/":
                lex.next()
                kind3, value3, pos3 = lex.next()
                if kind3 != "int" or int(value3) == 0:
                    raise ParseError("expected a positive integer denominator", pos3)
                return Polynomial.constant(n, Fraction(numerator, int(value3)))
            return Polynomial.constant(n, numerator)
        if kind == "ident":
            if value not in index:
                raise ParseError(f"unknown identifier {value!r}", pos)
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
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    return result
