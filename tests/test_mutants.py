"""Mutants of the certificate and front-end shortcuts, each killed by a
named oracle.

Each row of MUTANTS replaces a private function or constant of the package
with a mutated copy kept below, which drops one condition a shortcut rests
on, and names the oracle test of another test module (such as
`test_certificate_oracle.py`, `test_morphisms.py` or `test_courant_core.py`)
that must fail under it.  The oracle runs in-process on a fixed example,
not on a hypothesis search, so the table is deterministic; without the
mutant the same call passes.  A mutant is killed when the oracle's
assertion fails, or when the package raises one of the internal
inconsistencies it still checks (`STILL_RAISED`).  The certificates read
every witness's defect from the frame tables; the oracles compare it with
the plain re-expansion kept in `conftest`, so a mutant that changes a
defect but not its tuple is killed there.  The slot-rule rows keep
`_slot_tables` and take the contributions of one term of the five rules
back out of its tables; the tag decoder they once patched in the package
lives in `conftest` with the tagged references.
"""

import argparse
import inspect
import itertools
import textwrap
from fractions import Fraction

import pytest

from courantlab import (_csvtext, bundles, cli, courant_core, intrinsic, linalg, morphisms, phsim,
                        polyexpr, pullback, scene)
from courantlab.bundles import BundleMorphism, Section, TrivialBundle
from courantlab.courant_core import CourantStructure, scaled_structure, standard_structure
from courantlab.intrinsic import pontryagin_embedding
from courantlab.polyexpr import _BITS, Polynomial, PolyMap, _checked, _unpack, parse, poly_sum

import conftest
import test_bundles
import test_certificate_oracle as oracles
import test_compose
import test_courant_core
import test_intrinsic
import test_linalg
import test_morphisms
import test_phsim
import test_phsim_reference
import test_pullback
import test_scene_cli

least_skew_failure = courant_core._least_skew_failure
frame_jacobiator = courant_core._frame_jacobiator
frame_witness = courant_core._frame_witness
slot_tables = courant_core._slot_tables
_mul_at, _scaled = courant_core._mul_at, courant_core._scaled
metric_failure = morphisms._metric_failure
along_image, selected = morphisms.along_image, morphisms.AlongImage.selected
witness_order = morphisms._witness_order
decided_scope, parse_vector = courant_core._decided_scope, cli._parse_vector
canonical, rational = cli._canonical, scene._rational
pivot_product = linalg._pivot_product


def skew_failure_without_i_equals_j(table, mirror, arity):
    """(iii) read only off pairs i != j, as a loop over i < j would."""
    if mirror == (1, 0, 2):
        table = {key: entry for key, entry in table.items() if key[0] != key[1]}
    return least_skew_failure(table, mirror, arity)


def skew_failure_without_the_mirror(table, mirror, arity):
    """(ii) read only off the keys of the table, not their mirrors."""
    if mirror == (1, 0, 2):
        return least_skew_failure(table, mirror, arity)
    return min((key[:arity] for key, entry in table.items()
                if table.get(tuple(key[p] for p in mirror), {})
                != courant_core._scaled(entry, -1)), default=None)


def leibniz_witness_with(g_may_be_f=False, f_minus_g=False):
    """`_leibniz_witness` with g drawn from the members from f = e_0 on, so
    that g = f where column 0 is nonzero, or with the defect formed as
    x^beta A_aj (f - g)."""
    def mutant(s):
        n, k, a = s.bundle.base_dim, s.bundle.rank, s.rows[2]
        j = min((col for row in a for col in row), default=None)
        if j is None:
            return None
        members = courant_core._degree_1_members(n)
        _, beta, text = members[0 if j or g_may_be_f else 1]
        x, _, lam = next(m for m in members[1:] if j in a[m[0]])
        sign = -1 if f_minus_g else 1
        cross = _checked({key + beta: cf for key, cf in courant_core._packed(a[x][j]).items()}, n)
        defect = [{} for _ in range(k)]
        defect[j] = _checked({key + beta: sign * cf for key, cf in cross.items()}, n)
        polyexpr._add_into(defect[0], _scaled(cross, -sign))
        return {"f": courant_core._member(k, 0),
                "g": courant_core._member(k, j, text), "lam": lam, "mu": "1",
                "defect": [polyexpr._raw(n, p).to_string() for p in defect]}
    return mutant


def frame_defect_negated(axiom):
    """`_frame_witness` with the defect of `axiom` negated: the entries it
    reads, c_ij^h for (iii), c_ijm for (ii) or J_ijk^l for (i), taken with
    the opposite sign."""
    negated = ("iii", "ii", "i").index(axiom)

    def mutant(s, name, frame, *tables):
        if name == axiom:
            tables = [{key: _scaled(p, -1) for key, p in table.items()} if t == negated else table
                      for t, table in enumerate(tables)]
        return frame_witness(s, name, frame, *tables)
    return mutant


def least_tuple_without_the_degree(bundle, degree_cap, defect, slots, fixed=()):
    """`_least_failing_tuple` ordering tuples by their tags alone."""
    n = bundle.base_dim
    tuples = [fixed + _unpack(key >> (_BITS * n), slots) for terms in defect for key in terms]
    least = min(tuples, default=None)
    return None if least is None else tuple(
        conftest.decode_tag(bundle, degree_cap, t) for t in least)


def frame_jacobiator_without_the_d_term(s, c, lowered):
    """The fifth identity without its term -D(c_ijk)^l."""
    return frame_jacobiator(s, c, {})


def slot_tables_without(term):
    """`_slot_tables` with the contributions of one term of the slot rules
    taken back out; `term` lists them as {(i, j, k, a, b, c): {h: terms}}."""
    def mutant(s, c, lowered, rho_d, anomaly):
        removed = term(s, c, lowered, rho_d)
        for i, table in enumerate(slot_tables(s, c, lowered, rho_d, anomaly)):
            for key, row in removed.items():
                for h, p in row.items() if key[0] == i else ():
                    courant_core._subtract_into(table.setdefault(key[1:], {}).setdefault(h, {}), p)
            yield courant_core._pruned(table)
    return mutant


def metric_pairs(s):
    return [(x, y, g) for x, row in enumerate(s.metric) for y, g in enumerate(row) if g]


def ii_times_d_mu(s, c, lowered, rho_d):
    """II(f,g,h) D(mu) of J(f, mu g, h): II_ijk = -(c_ijk + c_ikj)."""
    out = {}
    for (x, y, z), entry in lowered.items():
        for h, row in enumerate(s._dual_rows):
            for v, p in row:
                for key in ((x, y, z, None, v, None), (x, z, y, None, v, None)):
                    _mul_at(out, key, h, _scaled(entry, -1), p)
    return out


def rho_h_times_iii(s, c, lowered, rho_d):
    """rho(h)(lam) III(f,g) of J(lam f, g, h)."""
    out = {}
    for (x, y, h), p in c.items():
        for x, y in ((x, y), (y, x)):
            for m, column in enumerate(s._frame_tables[0]):
                for v, target in column:
                    _mul_at(out, (x, y, m, v, None, None), h, target, p)
    return out


def pairing_times_iii_of_d_lam(s, c, lowered, rho_d):
    """-<f,g> III(D(lam), h) of J(lam f, g, h)."""
    out = {}
    for (x, y, h), p in c.items():
        for x, y in ((x, y), (y, x)):
            for v, dual in s._dual_rows[x]:
                for i, j, g in metric_pairs(s):
                    _mul_at(out, (i, j, y, v, None, None), h, _scaled(dual, -g), p)
    return out


def ii_and_iii_times_d_lam(s, c, lowered, rho_d):
    """-(II(g,h,f) + <h, III(f,g)>) D(lam) = -(c_ijk - c_jki) D(lam) of J(lam f, g, h)."""
    out = {}
    for (x, y, z), entry in lowered.items():
        for h, row in enumerate(s._dual_rows):
            for v, p in row:
                _mul_at(out, (x, y, z, v, None, None), h, _scaled(entry, -1), p)
                _mul_at(out, (z, x, y, v, None, None), h, entry, p)
    return out


def rho_d_mu_of_lam(s, c, lowered, rho_d):
    """-<g,h> rho(D(mu))(lam) f of J(lam f, mu g, h), which K_{lam f}(mu)'s
    -rho(D(mu))(lam) f contributes."""
    out = {}
    for (b, a), r in rho_d.items():
        for x, y, g in metric_pairs(s):
            for i in range(s.bundle.rank):
                _mul_at(out, (i, x, y, b, a, None), i, {0: -g}, r)
    return out


def walk_second_slot_major(s, c, lowered, rho_d, anomaly):
    """`_axiom_i_witness` walking the degree-1 tuples with the second slot
    major instead of the first, on the plain defect."""
    n = s.bundle.base_dim
    family = [Section.frame(s.bundle, i, Polynomial.monomial(n, alpha))
              for i, alpha in courant_core.monomial_frame_basis(s.bundle, 1)]
    for g, f, h in itertools.product(family, repeat=3):
        if not oracles.axiom_defect_vanishes(s, "i", (f, g, h)):
            return conftest.reference_axiom_witness(s, "i", [f, g, h])
    return None


def walk_with(pairs_in_table_order=False, m_outside_a2=False, place_0_only=False):
    """`_axiom_i_witness` taking the table's frame pairs in the order the
    table first holds them instead of ascending, nesting its loops as
    a1, j, m, a2, a3 instead of a1, j, a2, m, a3, or visiting place 0 alone
    in each slot, as if no slot differentiated any variable."""
    def mutant(s, c, lowered, rho_d, anomaly):
        n, k = s.bundle.base_dim, s.bundle.rank
        members = courant_core._degree_1_members(n)
        options = [[(None, key)] + ([(t, 0)] if t is not None else []) for t, key, _ in members]
        places = range(1 if place_0_only else len(members))
        for i, table in enumerate(courant_core._slot_tables(s, c, lowered, rho_d, anomaly)):
            partners = {}
            pairs = dict.fromkeys(key[:2] for key in table)
            for j, m in pairs if pairs_in_table_order else sorted(pairs):
                partners.setdefault(j, []).append(m)
            walk = [(a1, j, a2, m, a3)
                    for a1, (j, ms) in itertools.product(places, partners.items())
                    for a2, m, a3 in itertools.product(places, ms, places)]
            if m_outside_a2:
                walk.sort(key=lambda t: (t[0], t[1], t[3], t[2], t[4]))
            for a1, j, a2, m, a3 in walk:
                out = {}
                for choice in itertools.product(options[a1], options[a2], options[a3]):
                    grads, keys = zip(*choice)
                    for h, p in table.get((j, m, *grads), {}).items():
                        polyexpr._add_into(out.setdefault(h, {}), {
                            key + sum(keys): cf for key, cf in _checked(p, n).items()})
                if any(out.values()):
                    return courant_core._witness(
                        s, [courant_core._member(k, frame, members[a][2])
                            for frame, a in ((i, a1), (j, a2), (m, a3))],
                        [out.get(h, {}) for h in range(k)], True)
        return None
    return mutant


def metric_failure_with_d_transposed(s1, s2, phi, general=False):
    """`_metric_failure` reporting the general-base pair of D's entry (j, i)."""
    failure = metric_failure(s1, s2, phi, general)
    if general and failure is not None:
        failure.witness["f1"], failure.witness["f2"] = failure.witness["f2"], failure.witness["f1"]
    return failure


def metric_failure_with_plus_d(s1, s2, phi, general=False):
    """`_metric_failure` reporting the general-base pair's defect as +D_ij."""
    failure = metric_failure(s1, s2, phi, general)
    if general and failure is not None:
        failure.defect = [str(-parse(text, s1.bundle.var_names())) for text in failure.defect]
    return failure


def witness_order_without_the_degree(rank, members, frames=True):
    """`_witness_order` ordering pairs by their tags alone."""
    tags = [(i, a) for i in range(rank) for a in range(len(members))]
    return list(itertools.product(tags, repeat=2))


def witness_order_without_the_frame_pairs(rank, members, frames=True):
    """`_witness_order` leaving out the frame pairs also where Delta does
    not vanish."""
    return witness_order(rank, members, False)


def scope_decided_at_degree_0(degree_cap):
    """`_decided_scope` deciding every cap at degree 0, as if the defects
    were of order 0, so that any cap claims constant sections only."""
    decided_scope(degree_cap)
    return decided_scope(0)


def scope_without_the_cap_0_scope(degree_cap):
    """`_decided_scope` deciding every cap at degree 1, so that cap 0
    claims all smooth sections as well."""
    decided_scope(degree_cap)
    return decided_scope(max(degree_cap, 1))


def vector_without_the_z0_check(text, expected, what):
    """`_parse_vector` leaving --z0 unread, which no byte of `project` reads."""
    return None if what == "--z0" else parse_vector(text, expected, what)


def derived_terms_dropped(v_l, w):
    """Gamma without its term G2^-1 Q^T w_ij."""
    return ()


def degree_1_holds_without_t_or_p(d):
    """The pass check without "T = 0 or P = 0"."""
    return morphisms._pairing_terms_agree(d)


def first_slot_without_the_w_term(d, a, i, j):
    """R_aij without its term -W_ij V e_a."""
    return [d.g1[i].get(j, 0) * d.u_t[a].get(h, 0) - d.t[a].get(j, 0) * row.get(i, 0)
            for h, row in enumerate(d.p)]


def pair_defect_with_the_t_line_at_x_b(d, members, xs, pair):
    """`_pair_defect` with the line x_a T_bi P e_j read as x_b T_bi P e_j."""
    (i, a), (j, b) = pair
    terms = [(xs[a] * xs[b], d.delta[i, j])] if (i, j) in d.delta else []
    if b:
        terms.append((xs[b] * d.t[members[b][0]].get(i, 0), [row.get(j, 0) for row in d.p]))
    if a:
        terms.append((xs[b], morphisms._first_slot(d, members[a][0], i, j)))
    return [poly_sum(xs[0].num_vars, (s * v[h] for s, v in terms)) for h in range(len(d.p))]


def tangency_defect_on_whole_fibers(p):
    """Hypothesis (a) read as N A(phi0), the anchor on whole fibers."""
    return p._record.normal(p._record.a2, p._record.q)


def nonzero_by_truthiness(pairs):
    """The kernel's canonical form with its zero test by truthiness, which a
    zero Polynomial passes."""
    return {j: linalg.entry(v) for j, v in pairs if v}


def identity_up_to_a_permutation(num_vars, outputs):
    """`_is_identity` over the set of outputs, which a permutation of the
    variables passes."""
    return len(outputs) == num_vars and {frozenset(q._packed.items()) for q in outputs} \
        == {frozenset({(1 << (_BITS * i), 1)}) for i in range(num_vars)}


def identity_by_its_keys(num_vars, outputs):
    """`_is_identity` reading the keys only, which 2 x_i passes."""
    return len(outputs) == num_vars and all(
        list(q._packed) == [1 << (_BITS * i)] for i, q in enumerate(outputs))


def splitting_in_source_order(n, m):
    """`canonical_splitting` writing its rows in source order, without the
    reorder (v, p, e, eps) -> (v, e, p, eps)."""
    splitting = object.__new__(intrinsic.SplittingIso)
    splitting._fill(n, m, [{c: 1} for c in range(2 * n + 2 * m)])
    return splitting


def along_image_without_the_target(s2, phi):
    """`along_image` returning the kept record whatever its target."""
    if phi._along is not None:
        return phi._along[1]
    return along_image(s2, phi)


def selection_off_by_one(record, phi, cols):
    """The column selection shifted by one column."""
    return selected(record, phi, [(c + 1) % record.k1 for c in cols])


def gram_without_the_metric(metric, subspace):
    """`_maximally_isotropic` with the Gram matrix B B^T, the metric left out."""
    basis = linalg.sparse(subspace.basis)
    gram = linalg.pmat_mul(basis, linalg.pmat_transpose(basis, len(metric)))
    return subspace.dim == len(metric) // 2 and not any(gram)


def isotropic_of_any_dimension(metric, subspace):
    """`_maximally_isotropic` without its test dim == k / 2."""
    basis = linalg.sparse(subspace.basis)
    gram = linalg.pmat_mul(linalg.pmat_mul(basis, metric),
                           linalg.pmat_transpose(basis, len(metric)))
    return not any(gram)


def coordinate_columns_of_doubled_units(phi):
    """`_coordinate_columns` accepting a unit column scaled by 2."""
    units = {}
    for r, row in enumerate(phi.fiber_rows):
        for c, x in row.items():
            units[c] = r if c not in units and type(x) is int and x in (1, 2) else None
    if phi.is_identity_base() and len(units) == phi.source.rank and None not in units.values():
        return [units[c] for c in range(phi.source.rank)]
    return None


def compose_without_substitution(a, inner):
    """Row composition leaving every non-constant entry unsubstituted."""
    return [dict(row) for row in a]


def canonical_with_unsorted_keys(value, out, newline="\n"):
    """`_canonical` listing a dict's keys in insertion order."""
    if type(value) is not dict or not value:
        return canonical(value, out, newline)
    separator, inner = "{" + newline + "  ", newline + "  "
    for key in value:
        out += (separator, cli._quote(key), ": ")
        canonical_with_unsorted_keys(value[key], out, inner)
        separator = "," + inner
    out += (newline, "}")
    return out


def canonical_joining_strings_without_the_indent(value, out, newline="\n"):
    """`_canonical` joining a list of strings with bare line breaks, which
    drop the indent of every item after the first."""
    if type(value) is not list or not value or not all(type(x) is str for x in value):
        return canonical(value, out, newline)
    out += ("[", newline + "  ", ",\n".join(map(cli._quote, value)), newline, "]")
    return out


def quotient_by_floor(x, p):
    """`linalg._quotient` flooring without checking that p divides x."""
    return x // p


def expr_keyed_on_the_arity(text, variables, where, seen):
    """`_expr` with its memo keyed on the number of variables, not their names."""
    if not isinstance(text, str):
        raise scene.SceneError(f"{where}: expected an expression string, got {text!r}")
    key = (text, len(variables))
    if key not in seen:
        seen[key] = scene._built(where, scene.parse, text, variables)
    return seen[key]


def rational_keyed_on_the_value(value, where, seen):
    """`_rational` with its memo keyed on the value alone, where true equals 1."""
    key = value if isinstance(value, (int, str)) else None
    if key not in seen:
        seen[key] = rational(value, where, {})
    return seen[key]


def reader_without(check):
    """`cli._read` without one check: "required" reads an argv that lacks a
    required flag, "repeat" keeps the first value of a repeated flag, and
    "dash" takes a value starting with "-" after a separate flag."""
    def mutant(name, argv):
        flags, values, tokens = cli._FLAGS[name], {}, iter(argv)
        for token in tokens:
            option, eq, value = token.partition("=")
            flag = flags.get(option)
            if flag is None:
                return None
            dest, kind = flag[:2]
            if dest in values:
                if check != "repeat":
                    return None
                if kind is not bool and not eq:
                    next(tokens, None)
                continue
            if kind is bool:
                if eq:
                    return None
                values[dest] = True
                continue
            value = value if eq else next(tokens, "-")
            if value == "--" or value.startswith("-") and not eq and check != "dash":
                return None
            try:
                values[dest] = kind(value) if kind else value
            except ValueError:
                return None
        for dest, _, required, default, _ in flags.values():
            if dest not in values:
                if required and check != "required":
                    return None
                values[dest] = default
        return argparse.Namespace(command=name, **values)
    return mutant


def scene_row_with(store_zeros=False, keep_as_read=False):
    """`scene._row` storing an anchor's zero literal as 0 (a zero stored in
    G would stop its reduction), or keeping a nonzero literal as read
    instead of its canonical entry: a constant Polynomial, and an integral
    Fraction, kept as they are."""
    def mutant(row, texts, read, *args):
        out = {}
        for j, v in enumerate(row):
            x = texts.get(v) if type(v) is str else None
            if x is None:
                x = read(v, *args)
                x = 0 if linalg.is_zero(x) else x if keep_as_read else linalg.entry(x)
                if type(v) is str:
                    texts[v] = x
            if x or store_zeros and read is scene._expr:
                out[j] = x
        return out
    return mutant


def reduce_with(factor_of, signed_swap):
    """`linalg._reduce` with the factor factor_of(entry, pivot) and, unless
    `signed_swap`, a row swap that leaves the sign."""
    def mutant(m, cols):
        rows = len(m)
        pivots = []
        sign = 1
        for col in range(cols):
            r = len(pivots)
            if r == rows:
                break
            for found in range(r, rows):
                if col in m[found]:
                    break
            else:
                continue
            if found != r:
                m[r], m[found] = m[found], m[r]
                sign = -sign if signed_swap else sign
            top = m[r]
            p = top[col]
            for i, row in enumerate(m):
                if i != r and col in row:
                    factor = factor_of(row[col], p)
                    for j, y in top.items():
                        x = row.get(j, 0) - factor * y
                        if x:
                            row[j] = x
                        else:
                            del row[j]
            pivots.append(col)
        return pivots, sign
    return mutant


def pivot_product_without_the_sign(m, sign):
    """`linalg._pivot_product` ignoring the sign of the row swaps."""
    return pivot_product(m, 1)


class QuotientsKeyedOnTheEntry(dict):
    """`linalg._Quotients` keyed on the entry alone, so an entry read off
    over a second pivot takes the first one's quotient."""

    def __getitem__(self, key):
        return self.setdefault(key[0], linalg._quotient(*key))


def symmetric_over_upper_entries(a):
    """`linalg.is_symmetric` reading only the stored entries above the
    diagonal, as a loop over j > i would."""
    return all(a[j].get(i) == x for i, row in enumerate(a) for j, x in row.items() if j > i)


def bumped(base, bump, value=Fraction(3, 2)):
    return CourantStructure(base.bundle, base.anchor, base.metric, {bump: value})


def inner(test):
    """The body of a hypothesis test, callable on a fixed example."""
    return test.hypothesis.inner_test


def emit_writing(old, new):
    """`phsim._emit` with `old` written as `new` in the source it gives: a
    shared term's name starts with w, and no other name does."""
    emit = phsim._emit

    def mutant(rows):
        at = emit(rows)
        return lambda point, tag: [[src.replace(old, new) for src in part]
                                   for part in at(point, tag)]
    return mutant


# a shared negative term added after another term, and one that opens a sum
# written -name
EMIT_ADDING = emit_writing(" - w", " + w")
EMIT_UNARY_MINUS = emit_writing("-1.0*w", "-w")
QUARTIC_CASE, SHARED_IN_F_CASE = (
    next(case for case in test_phsim_reference.BITWISE_CASES if case[0] == name)
    for name in ("quartic", "shared_in_f"))


def source_with(module, name, old, new):
    """`module.name` compiled from its source with the one occurrence of
    `old` written as `new`, in the module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), f"<mutant of {name}>", "exec"), namespace)
    return namespace[name]


CSV_CASE = test_phsim.TestCSVDigits().test_a_named_value_is_written_as_the_reference


SCALED1 = scaled_structure(standard_structure(1), Fraction(-2, 5))


def doubled_tangent_row():
    """(s1, s2, phi): Pontryagin(1, 1) with its tangent row doubled, so that
    D = P^T G2 P - G1 = [[0, 1], [1, 0]] is first nonzero at (0, 1)."""
    phi = pontryagin_embedding(1, 1)
    fiber = [list(row) for row in phi.fiber_matrix]
    fiber[0] = [2 * p for p in fiber[0]]
    return (standard_structure(1), standard_structure(2),
            BundleMorphism(phi.source, phi.target, phi.base_map, fiber, phi.retraction))


def hidden_d_identity():
    """(check, s1, s2, phi): a line with G1 = [1] and no anchor included into
    diag(1, 1) with anchor [0 1]; only the D-identity fails, and the bracket
    fails on (x1 e_0, e_0) but on no frame pair."""
    line, plane = TrivialBundle(1, 1, "L"), TrivialBundle(1, 2, "M")
    return (morphisms.check_identity_base, CourantStructure(line, [[0]], [[1]]),
            CourantStructure(plane, [[0, 1]], [[1, 0], [0, 1]]),
            BundleMorphism.constant(line, plane, [[1], [0]]))



def line_stretch():
    """(s, s, phi): P = diag(x1, 1) on standard(1) over the identity."""
    s = standard_structure(1)
    x1, one, zero = Polynomial.variable(1, 0), Polynomial.constant(1, 1), Polynomial(1)
    return s, s, BundleMorphism(s.bundle, s.bundle, PolyMap.identity(1), [[x1, zero], [zero, one]])


def signed_zero_section():
    """(s1, s2, phi): standard(1) into standard(2) along x -> (x, 0), with
    P e_0 = -e_0 and P e_1 = x1 e_3."""
    x1, zero = Polynomial.variable(1, 0), Polynomial(1)
    fiber = [[-Polynomial.constant(1, 1), zero], [zero, zero], [zero, zero], [zero, x1]]
    s1, s2 = standard_structure(1), standard_structure(2)
    return s1, s2, BundleMorphism(s1.bundle, s2.bundle, PolyMap(1, [x1, zero]), fiber,
                                  PolyMap(2, [Polynomial.variable(2, 0)]))


def anchor_with_rho_d():
    """Anchor [1, 1] with G = [[0, 1], [1, 0]] and c = 0: only A G^-1 A^T = 2
    fails, so (i) fails on degree-1 tuples only."""
    one = Polynomial.constant(1, 1)
    return CourantStructure(TrivialBundle(1, 2, "E"), [[one, one]], [[0, 1], [1, 0]])


def anchor_across_two_columns():
    """G = I of rank 4 over R^2 with A_01 = A_13 = 1 and c_01^3 = 3/2: (i)
    holds on every frame triple and fails on (e_0, x2 e_0, e_1), whose
    second place comes before that of (e_0, x1 e_0, e_0)."""
    return CourantStructure(TrivialBundle(2, 4, "E"), [[0, 1, 0, 0], [0, 0, 0, 1]],
                            [[int(i == j) for j in range(4)] for i in range(4)],
                            {(0, 1, 3): Fraction(3, 2)})


def anchor_row_1_over_r3():
    """Anchor row 1 = [1, 1] over R^3, the other rows zero, with the
    hyperbolic G and c = 0: (i) holds on every frame triple and fails first
    on (x1 e_0, e_1, x1 e_0), x1 being the last linear monomial of R^3 in
    the graded order."""
    return CourantStructure(TrivialBundle(3, 2, "E"), [[1, 1], [0, 0], [0, 0]],
                            [[0, 1], [1, 0]])


def open_b_field_over_r3():
    """(check, s, s, phi): e^B on standard(3) over the identity, with
    B = x1 dx2 ^ dx3.  dB = dx1 ^ dx2 ^ dx3 != 0, so Delta does not vanish
    and the least failing pair is the frame pair (e_0, e_1)."""
    s, x1 = standard_structure(3), Polynomial.variable(3, 0)
    fiber = [[Polynomial.constant(3, int(i == j)) for j in range(6)] for i in range(6)]
    fiber[4][2], fiber[5][1] = x1, -x1
    return (morphisms.check_identity_base, s, s,
            BundleMorphism(s.bundle, s.bundle, PolyMap.identity(3), fiber, PolyMap.identity(3)))


def anchor_in_column_1():
    """Anchor [0, 1] over R^1 with the hyperbolic G: column 0 is zero."""
    return CourantStructure(TrivialBundle(1, 2, "E"), [[0, 1]], [[0, 1], [1, 0]])


MUTANTS = {
    # name: (patches, oracle, fixed example)
    "iii_without_i_equals_j": (
        [(courant_core, "_least_skew_failure", skew_failure_without_i_equals_j)],
        oracles.test_certificate_equals_enumeration,
        (bumped(SCALED1, (1, 1, 0)), 1),    # (iii) fails on (e_1, e_1) only
    ),
    "ii_without_the_mirrored_triple": (
        [(courant_core, "_least_skew_failure", skew_failure_without_the_mirror)],
        inner(oracles.test_axiom_witnesses_are_the_least_failing_tuples),
        (bumped(SCALED1, (0, 1, 1)),),      # c_010 != 0, so (e_0, e_0, e_1) fails
    ),
    "leibniz_without_g_other_than_f": (
        [(courant_core, "_leibniz_witness", leibniz_witness_with(g_may_be_f=True))],
        inner(oracles.test_leibniz_witness_is_the_least_failing_tuple),
        (standard_structure(1),),           # anchor column 0 is nonzero
    ),
    "leibniz_factor_f_minus_g": (
        [(courant_core, "_leibniz_witness", leibniz_witness_with(f_minus_g=True))],
        inner(oracles.test_leibniz_witness_is_the_least_failing_tuple),
        (standard_structure(1),),           # g = x1 e_0: x1 (g - f) read as x1 (f - g)
    ),
    "leibniz_defect_f_minus_g_at_a_later_column": (
        [(courant_core, "_leibniz_witness", leibniz_witness_with(f_minus_g=True))],
        inner(test_courant_core.test_leibniz_witness_equals_the_polynomial_reference),
        (anchor_in_column_1(),),            # g = e_1: the defect (-1, 1) read as (1, -1)
    ),
    "iii_defect_negated": (
        [(courant_core, "_frame_witness", frame_defect_negated("iii"))],
        inner(oracles.test_axiom_witnesses_are_the_least_failing_tuples),
        (bumped(SCALED1, (0, 1, 0)),),      # (iii), (ii) and (i) fail on frame tuples
    ),
    "ii_defect_negated": (
        [(courant_core, "_frame_witness", frame_defect_negated("ii"))],
        inner(oracles.test_axiom_witnesses_are_the_least_failing_tuples),
        (bumped(SCALED1, (0, 1, 0)),),
    ),
    "frame_i_defect_negated": (
        [(courant_core, "_frame_witness", frame_defect_negated("i"))],
        inner(oracles.test_axiom_witnesses_are_the_least_failing_tuples),
        (bumped(SCALED1, (0, 1, 0)),),
    ),
    "decoder_key_without_the_degree": (
        [(conftest, "_least_failing_tuple", least_tuple_without_the_degree),
         (morphisms, "_witness_order", witness_order_without_the_degree)],
        inner(oracles.test_morphism_witness_is_the_least_failing_pair),
        # (e_1, e_1) fails, and so does (e_0, x1 e_1) with the smaller tags
        ((bumped(standard_structure(1), (0, 0, 0), 1), [[0, 1], [0, 1]]),),
    ),
    "sweep_order_0": (
        [(courant_core, "_decided_scope", scope_decided_at_degree_0),
         (morphisms, "_decided_scope", scope_decided_at_degree_0)],
        oracles.test_doubling_bracket_passes_at_cap_0_and_fails_at_cap_1,
        (),                                 # [d_x, x d_x] = d_x fails at degree 1 only
    ),
    "slot_rule_without_ii_d_mu": (
        [(courant_core, "_slot_tables", slot_tables_without(ii_times_d_mu))],
        inner(oracles.test_axiom_i_slot_tables_equal_the_tagged_sweep),
        (bumped(SCALED1, (0, 0, 1)), 1),     # II_000 = -2 c_000 with c_00^1 = 3/2
    ),
    "slot_rule_without_rho_h_iii": (
        [(courant_core, "_slot_tables", slot_tables_without(rho_h_times_iii))],
        inner(oracles.test_axiom_i_slot_tables_equal_the_tagged_sweep),
        (bumped(SCALED1, (0, 1, 1)), 1),
    ),
    "slot_rule_without_iii_of_d_lam": (
        [(courant_core, "_slot_tables", slot_tables_without(pairing_times_iii_of_d_lam))],
        inner(oracles.test_axiom_i_slot_tables_equal_the_tagged_sweep),
        (bumped(SCALED1, (1, 0, 0)), 1),
    ),
    "slot_rule_without_ii_iii_d_lam": (
        [(courant_core, "_slot_tables", slot_tables_without(ii_and_iii_times_d_lam))],
        inner(oracles.test_axiom_i_slot_tables_equal_the_tagged_sweep),
        (bumped(SCALED1, (0, 1, 1)), 3),
    ),
    "k_rule_without_rho_d_mu_lam": (
        [(courant_core, "_slot_tables", slot_tables_without(rho_d_mu_of_lam))],
        inner(oracles.test_axiom_i_slot_tables_equal_the_tagged_sweep),
        (anchor_with_rho_d(), 1),
    ),
    "walk_taking_the_pairs_in_table_order": (
        [(courant_core, "_axiom_i_witness", walk_with(pairs_in_table_order=True))],
        inner(oracles.test_axiom_i_slot_tables_equal_the_tagged_sweep),
        # the table of e_0 holds the pair (1, 0) before (0, 1): (e_0, x2 e_0, e_1)
        # fails, and (e_0, x2 e_1, e_0) after it
        (bumped(standard_structure(2), (0, 1, 2)), 1),
    ),
    "walk_with_m_outside_the_second_place": (
        [(courant_core, "_axiom_i_witness", walk_with(m_outside_a2=True))],
        inner(oracles.test_axiom_i_slot_tables_equal_the_tagged_sweep),
        # m = 0 looped first finds (e_0, x1 e_0, e_0)
        (anchor_across_two_columns(), 1),
    ),
    "walk_visiting_place_0_only": (
        [(courant_core, "_axiom_i_witness", walk_with(place_0_only=True))],
        inner(test_courant_core.test_axiom_i_walk_equals_the_all_pairs_reference),
        (anchor_row_1_over_r3(),),
    ),
    "walk_without_first_slot_major": (
        [(courant_core, "_axiom_i_witness", walk_second_slot_major)],
        inner(oracles.test_axiom_witnesses_are_the_least_failing_tuples),
        # (e_0, x1 e_0, e_0) fails, and so does (x1 e_0, e_0, e_0), its slots exchanged
        (bumped(SCALED1, (0, 0, 1)),),
    ),
    "cap_0_claiming_all_sections": (
        [(courant_core, "_decided_scope", scope_without_the_cap_0_scope),
         (morphisms, "_decided_scope", scope_without_the_cap_0_scope)],
        oracles.test_certificate_equals_enumeration,
        # anchor [1, 1]: every constant triple passes, and (i) fails at degree 1
        (anchor_with_rho_d(), 0),
    ),
    "walk_without_the_frame_pairs": (
        [(morphisms, "_witness_order", witness_order_without_the_frame_pairs)],
        inner(test_morphisms.test_verdict_equals_the_degree_1_sweep),
        (open_b_field_over_r3(), 1),        # (e_0, x3 e_1) found after the frame pairs
    ),
    "metric_witness_from_d_transposed": (
        [(morphisms, "_metric_failure", metric_failure_with_d_transposed)],
        inner(test_morphisms.test_metric_verdict_equals_the_tagged_pairing_sweep),
        (doubled_tangent_row(), 1, 0, 0),   # the least failing pair is (e_0, e_1)
    ),
    "metric_defect_plus_d": (
        [(morphisms, "_metric_failure", metric_failure_with_plus_d)],
        inner(test_morphisms.test_metric_verdict_equals_the_tagged_pairing_sweep),
        (doubled_tangent_row(), 1, 0, 0),   # D_01 = 1, so the pair's defect is -1
    ),
    "delta_t_line_at_x_b": (
        [(morphisms, "_pair_defect", pair_defect_with_the_t_line_at_x_b)],
        inner(oracles.test_morphism_witness_is_the_least_failing_pair),
        # P e_0 = e_1: only T = [1 0] fails, first on (e_0, x1 e_0), by T_00 P e_0
        ((SCALED1, [[0, 0], [1, 0]]),),
    ),
    "fifth_identity_without_the_d_term": (
        [(courant_core, "_frame_jacobiator", frame_jacobiator_without_the_d_term)],
        inner(oracles.test_axiom_witnesses_are_the_least_failing_tuples),
        (bumped(SCALED1, (0, 1, 1), Polynomial.variable(1, 0)),),  # D(c_011) = D(x1) != 0
    ),
    "extension_verdict_on_whole_fibers": (
        [(pullback, "_tangency_defect", tangency_defect_on_whole_fibers)],
        test_pullback.TestWellDefinedness().test_extension_perturbations_stable_for_pontryagin,
        (),                                 # Pontryagin(1, 1): N A(phi0) != 0 = N A(phi0) P
    ),
    "frame_table_without_the_w_term": (
        [(morphisms, "_derived_terms", derived_terms_dropped)],
        inner(test_morphisms.test_frame_table_verdict_equals_the_tagged_sweep),
        # P = diag(x1, 1): w_01 = ((d_1 P)^T G P)_01 = 1 and G^-1 A^T = e_1
        ((morphisms.check_identity_base, *line_stretch()), 0, 1),
    ),
    "pass_check_without_t_or_p": (
        [(morphisms, "_degree_1_holds", degree_1_holds_without_t_or_p)],
        inner(test_morphisms.test_verdict_equals_the_degree_1_sweep),
        # P e_0 = e_1: W = 0 and U = 0, so only T = [1 0] != 0 fails
        ((morphisms.check_identity_base, SCALED1, SCALED1,
          BundleMorphism.constant(SCALED1.bundle, SCALED1.bundle, [[0, 0], [1, 0]])), 1),
    ),
    "first_slot_without_the_w_term": (
        [(morphisms, "_first_slot", first_slot_without_the_w_term)],
        inner(test_morphisms.test_verdict_equals_the_degree_1_sweep),
        (hidden_d_identity(), 1),           # R_000 = -W_00 V e_0 alone
    ),
    "enumeration_without_the_degree": (
        [(morphisms, "_witness_order", witness_order_without_the_degree)],
        inner(test_morphisms.test_frame_table_verdict_equals_the_tagged_sweep),
        # (e_0, e_1) fails, and so does (e_0, x1 e_0) with the smaller tags
        ((morphisms.check_general_base, *signed_zero_section()), 1, 1),
    ),
    "zero_test_by_truthiness": (
        [(linalg, "_nonzero", nonzero_by_truthiness)],
        test_morphisms.test_closed_b_transform_is_an_automorphism,
        ("x1",),                            # (P^T G P)_01 = x1 - x1, a zero polynomial
    ),
    "identity_substitution_up_to_a_permutation": (
        [(polyexpr, "_is_identity", identity_up_to_a_permutation)],
        test_compose.test_the_identity_shortcut_reads_the_order_and_the_coefficients,
        (["x2", "x1"],),                    # x1^2 x2 after (x2, x1) is x2^2 x1
    ),
    "identity_substitution_by_its_keys": (
        [(polyexpr, "_is_identity", identity_by_its_keys)],
        test_compose.test_the_identity_shortcut_reads_the_order_and_the_coefficients,
        (["2*x1", "x2"],),                  # -3 x1 after (2 x1, x2) is -6 x1
    ),
    "identity_base_up_to_a_permutation": (
        [(bundles, "_is_identity", identity_up_to_a_permutation)],
        test_bundles.test_identity_base_reads_the_whole_map,
        (["x2", "x1"],),                    # phi0 = (x2, x1) is no identity base
    ),
    "retraction_check_by_its_keys": (
        [(bundles, "_is_identity", identity_by_its_keys)],
        test_bundles.test_retraction_check_reads_the_whole_map,
        (["2*x1", "x2"],),                  # r o id = (2 x1, x2) does not invert the identity
    ),
    "splitting_rows_in_source_order": (
        [(intrinsic, "canonical_splitting", splitting_in_source_order)],
        test_intrinsic.TestBuildIntrinsic().test_n1_m1_expected_structure,
        (),                                 # G' pairs v with e instead of p
    ),
    "record_key_without_the_target": (
        [(morphisms, "along_image", along_image_without_the_target)],
        test_morphisms.test_kept_bracket_is_keyed_on_its_target_and_cap,
        (morphisms.check_general_base,),    # one morphism into standard(1) and a bumped copy
    ),
    "gram_without_the_metric": (
        [(courant_core, "_maximally_isotropic", gram_without_the_metric)],
        test_courant_core.TestDiracCheck().test_skew_graph_accepted,
        (),                                 # B B^T = I + S S^T != 0 on the graph of S
    ),
    "isotropy_without_the_dimension": (
        [(courant_core, "_maximally_isotropic", isotropic_of_any_dimension)],
        test_courant_core.TestDiracCheck().test_zero_subspace_not_maximal,
        (),                                 # LinearSubspace(2, []): isotropic, dimension 0
    ),
    "coordinate_columns_of_doubled_units": (
        [(bundles, "_coordinate_columns", coordinate_columns_of_doubled_units)],
        test_intrinsic.test_composite_record_equals_a_fresh_copys,
        (1, 1, 2),                          # chi after 2 (id (+) 0) read as a selection of chi
    ),
    "row_composition_without_substitution": (
        [(linalg, "pmat_compose", compose_without_substitution)],
        test_bundles.test_composition_substitutes_the_inner_base_map,
        (),                                 # the outer entry x1 along x -> x^2 stays x1
    ),
    "writer_keys_unsorted": (
        [(cli, "_canonical", canonical_with_unsorted_keys)],
        test_scene_cli.test_report_keys_are_sorted,
        (),                                 # the payload lists "command" before "axioms"
    ),
    "expression_memo_keyed_on_the_arity": (
        [(scene, "_expr", expr_keyed_on_the_arity)],
        test_scene_cli.test_an_input_reads_x1_as_unknown_beside_a_p1_section,
        (),                                 # a P1 section's "x1" read before a signal's
    ),
    "numeral_memo_keyed_on_the_value": (
        [(scene, "_rational", rational_keyed_on_the_value)],
        test_scene_cli.test_a_metric_reads_true_as_no_rational_beside_1,
        (),                                 # a metric's 1 read before its true
    ),
    "reader_without_the_required_flags": (
        [(cli, "_read", reader_without("required"))],
        test_scene_cli.TestArgumentContract().test_direct_reader_equals_argparse,
        test_scene_cli._READER_CASES["missing_required"],   # morphism without --map
    ),
    "reader_keeping_the_first_repeat": (
        [(cli, "_read", reader_without("repeat"))],
        test_scene_cli.TestArgumentContract().test_direct_reader_equals_argparse,
        test_scene_cli._READER_CASES["repeated_flag"],      # argparse keeps standard2
    ),
    "reader_taking_a_dash_value": (
        [(cli, "_read", reader_without("dash"))],
        test_scene_cli.TestArgumentContract().test_direct_reader_equals_argparse,
        test_scene_cli._READER_CASES["dash_value"],         # --structure --json: no value
    ),
    "scene_rows_keeping_constant_polynomials": (
        [(scene, "_row", scene_row_with(keep_as_read=True))],
        test_scene_cli.assert_rows_read_again,
        (test_scene_cli.SCENE,),            # the anchor literal "1" kept as a Polynomial
    ),
    "scene_rows_storing_zeros": (
        [(scene, "_row", scene_row_with(store_zeros=True))],
        test_scene_cli.assert_rows_read_again,
        (test_scene_cli.SCENE,),            # the anchor literal "0" stored as 0
    ),
    "writer_joins_strings_without_the_indent": (
        [(cli, "_canonical", canonical_joining_strings_without_the_indent)],
        test_scene_cli.test_canonical_writer_equals_json_dumps_on_a_fixed_report,
        (),                                 # an anchor row ["1", "x1"] one level down
    ),
    "reduce_factor_int_division": (
        [(linalg, "_reduce", reduce_with(lambda x, p: x / p, True))],
        test_linalg.test_int_input_gives_the_exact_results_of_fraction_input,
        # the factor 4 / 3 is a float, and the pivot product -0.9999999999999998
        ([[3, 1], [4, 1]],),
    ),
    "read_off_floors": (
        [(linalg, "_quotient", quotient_by_floor)],
        test_linalg.test_int_input_gives_the_exact_results_of_fraction_input,
        ([[2]],),                           # the inverse 1 / 2 floors to 0
    ),
    "reduce_swap_keeps_sign": (
        [(linalg, "_reduce", reduce_with(Fraction, False))],
        inner(test_linalg.test_det_and_inverse_match_the_reference),
        (([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]], []),),  # det -1, one swap
    ),
    "pivot_product_without_the_swap_sign": (
        [(linalg, "_pivot_product", pivot_product_without_the_sign)],
        inner(test_linalg.test_elimination_equals_the_running_product_reference),
        ([{1: 1}, {0: 1}],),                # det -1, by one swap
    ),
    "read_off_memo_keyed_on_the_entry": (
        [(linalg, "_Quotients", QuotientsKeyedOnTheEntry)],
        inner(test_linalg.test_elimination_equals_the_running_product_reference),
        ([{0: 2}, {1: 3}],),                # 1 / 3 read as the 1 / 2 formed first
    ),
    "symmetry_over_upper_stored_entries": (
        [(linalg, "is_symmetric", symmetric_over_upper_entries)],
        test_scene_cli.TestAxiomsContract().test_constructor_rejection_keeps_its_error_line,
        ("asymmetric_below_the_diagonal",),  # G = [[1, 0], [2, 1]] stores G_10 alone
    ),
    "pontryagin_selection_off_by_one": (
        [(morphisms.AlongImage, "selected", selection_off_by_one)],
        test_intrinsic.test_pontryagin_record_is_the_column_selection_of_chis,
        (1, 1),                             # columns (v, p) of chi read as (p, e)
    ),
    "project_without_its_z0_check": (
        [(cli, "_parse_vector", vector_without_the_z0_check)],
        test_scene_cli.TestCLI().test_bad_trajectory_input_exit_2,
        ("project", ["--z0=nan"]),          # exits 0 with the open run's rows
    ),
    "shared_negative_term_added": (
        [(phsim, "_emit", EMIT_ADDING)],
        test_phsim_reference.test_fused_loop_bitwise_equals_list_loop,
        # F_2 = -x1 - 1/2 x1^3 + ... shares 1/2 x1^3 with Y_1, subtracted after
        # -x1; the list loop writes every term out on its own
        QUARTIC_CASE,
    ),
    "shared_negative_term_added_within_f": (
        [(phsim, "_emit", EMIT_ADDING)],
        test_phsim_reference.test_fused_loop_bitwise_equals_list_loop,
        # F_3 = -2 x1 - 2 x2 subtracts the 2 x2 it shares with F_1, and Y
        # holds no such term
        SHARED_IN_F_CASE,
    ),
    "dirac_without_closure": (
        [(courant_core, "_closed", lambda s, subspace: True)],
        test_courant_core.TestDiracCheck().test_a_lagrangian_that_is_not_closed_is_refused,
        (),                                 # the graph of e_1 ^ e_2 in the so(3) double
    ),
    "csv_digits_rounded_half_up": (
        [(_csvtext, "_digits", source_with(
            _csvtext, "_digits",
            "(rest > half) | ((rest == half) & (n & np.uint64(1)).astype(bool))", "rest >= half"))],
        CSV_CASE,
        ("fast_tie_rounds_down_to_even",),  # ...312|5 rounds to the even 2, not to 3
    ),
    "csv_exponent_trusted_to_log10": (
        [(_csvtext, "_digits", source_with(
            _csvtext, "_digits", "if not (low.any() or high.any()):", "if True:"))],
        CSV_CASE,
        ("log10_rounded_up",),              # floor(log10) = 3 leaves 16 digits
    ),
    "csv_point_of_an_empty_fraction": (
        [(_csvtext, "_words", source_with(
            _csvtext, "_words", "np.where(frac != 0, _POINT, 0)", "_POINT"))],
        CSV_CASE,
        ("empty_fraction_has_no_point",),   # 3.0 is written "3", not "3."
    ),
    "shared_negative_term_opens_with_a_unary_minus": (
        [(phsim, "_emit", EMIT_UNARY_MINUS)],
        test_phsim_reference.test_shared_negative_term_keeps_the_nan_bits,
        (),                                 # -name flips the sign of the NaN inf * 0.0
    ),
}


# the internal inconsistencies the package still raises
STILL_RAISED = ("internal inconsistency: no pair of degree <= 1 fails",
                "internal inconsistency: a nonzero slot table of (i) fails nowhere")


def fresh(example):
    """The example with every morphism in it rebuilt: a record along the
    image kept on a shared morphism by an earlier run would hide a mutant."""
    if isinstance(example, tuple):
        return tuple(fresh(value) for value in example)
    if isinstance(example, BundleMorphism):
        return BundleMorphism(example.source, example.target, example.base_map,
                              example.fiber_matrix, example.retraction)
    return example


@pytest.mark.parametrize("name", MUTANTS)
def test_oracle_passes_without_the_mutant(name):
    _, oracle, example = MUTANTS[name]
    oracle(*fresh(example))


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(monkeypatch, name):
    patches, oracle, example = MUTANTS[name]
    for module, attribute, mutant in patches:
        monkeypatch.setattr(module, attribute, mutant)
    with pytest.raises((AssertionError, RuntimeError)) as killed:
        oracle(*fresh(example))
    assert killed.type is AssertionError or str(killed.value) in STILL_RAISED
