"""Exact closure checks for the scalar-supercharge transformation tables.

Tables are data: a declarative text format lists the fields (form degree,
parity, doublet structure) and one transformation rule per (operator, field).
Everything is evaluated in the constant-field reduction: pure derivatives
d(...) vanish, covariant derivatives dA(...) keep their commutator part
[A, .] (with a convention coefficient), and each independent form component
is a separate algebra-valued supernumber.  `load_table` compiles each rule
into flat term lists, one per (operator index, field slot), and validates it
there: a malformed table raises TableFormatError at load, not at evaluation.
Each rule image, weighted shift, gauge variation and gauge-fit residual is
one linear combination (`GrassmannElement.combination`), reduced once.

Nilpotency up to gauge transformations is a quadratic identity in the fields,
so it is checked on random exact-rational field configurations.  Operator
composition Q1(Q2 X) is computed with a shift generator: the substitution
X -> X + theta * Q1(X) is a superalgebra homomorphism (theta fresh, odd), so
the theta coefficient of the rule for Q2 X on the shifted state implements the
signed Leibniz rule exactly.  Only that theta-linear part is evaluated, as a
tangent map (theta^2 = 0): theta * Y_k for a field term, [X_u, theta * Y_v] +
[theta * Y_u, X_v] for a bracket; no shifted state is built.  It is linear in
the shift, so a weighted sum sum_ab w_ab Q_a(Q_b X) evaluates each inner
operator once, with Y = sum_a w_ab Q_a X.  Each state memoises what its
closure checks share: the outer images Q_a X per convention, the maps
key -> theta * Y built from them, and the gauge brackets [X, B] per basis
element.  A derived state (from `dataclasses.replace`) starts with an empty
memo.

The expected value of a closure bracket is a gauge variation whose parameter
is fitted exactly (fraction-free elimination over the integer numerators) from
the symmetrized output, never asserted a priori; a nonzero final residual is a
reported result, not an error.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm, prod

from .grassmann import GrassmannElement, grassmann_mul, lie_bracket
from .series import ExactComplex

__all__ = [
    "TableSpec",
    "FieldState",
    "SignConvention",
    "load_table",
    "get_table",
    "TABLE_TEXTS",
    "random_state",
    "apply_q",
    "gauge_variation",
    "q_squared_residual",
    "check_closure",
    "check_twistor",
    "residual_report",
    "closure_pairs",
    "calibrate_signs",
    "RuleMissingError",
    "TableFormatError",
]

I_UNIT = ExactComplex(0, 1)

# eps tensor of the R-symmetry doublet: eps_{12} = eps^{12} = +1.
_EPS = {(1, 1): 0, (1, 2): 1, (2, 1): -1, (2, 2): 0}


class TableFormatError(ValueError):
    """Malformed declarative table text."""


class RuleMissingError(KeyError):
    """An operator has no printed rule for the requested field."""


# ----------------------------------------------------------------------
# declarative table texts
#
# The 4d one-column tables use the shifted auxiliaries (the self-dual and
# 1-form auxiliary fields absorb their curvature shifts), which is the exact
# constant-field shadow of the printed rules.  The second differential is
# stored with precisely the printed rules; three fields have no printed rule
# and stay absent, so applying it to them raises RuleMissingError.

TABLE_TEXTS = {
    "abelian": """
        dim 4
        algebra u1
        field A one even
        field phi scalar even
        field phibar scalar even
        field C scalar even
        field B2 sd even
        field D2 sd even
        field H1 one even
        field eta scalar odd
        field zeta scalar odd
        field psi1 one odd
        field chi2 sd odd
        field psitilde2 sd odd
        field chitilde1 one odd
        Q A = psi1
        Q phi = 0
        Q phibar = eta
        Q eta = 0
        Q psi1 = d(phi)
        Q chi2 = D2
        Q D2 = 0
        Q B2 = psitilde2
        Q psitilde2 = 0
        Q chitilde1 = H1
        Q H1 = 0
        Q C = zeta
        Q zeta = 0
    """,
    "nonabelian": """
        dim 4
        algebra su2
        field A one even
        field phi scalar even
        field phibar scalar even
        field C scalar even
        field B2 sd even
        field D2 sd even
        field H1 one even
        field eta scalar odd
        field zeta scalar odd
        field psi1 one odd
        field chi2 sd odd
        field psitilde2 sd odd
        field chitilde1 one odd
        Q A = psi1
        Q phi = 0
        Q phibar = eta
        Q eta = i [phibar, phi]
        Q psi1 = dA(phi)
        Q chi2 = D2
        Q D2 = i [chi2, phi]
        Q B2 = psitilde2
        Q psitilde2 = i [B2, phi]
        Q chitilde1 = H1
        Q H1 = i [chitilde1, phi]
        Q C = zeta
        Q zeta = i [C, phi]
        Qp A = chitilde1
        Qp phi = zeta
        Qp phibar = 0
        Qp eta = i [C, phibar]
        Qp psi1 = - H1 + dA(C)
        Qp chi2 = i [B2, phibar]
        Qp B2 = chi2
        Qp chitilde1 = - dA(phibar)
        Qp C = - eta
        Qp zeta = i [phibar, phi]
    """,
    "covariant": """
        dim 4
        algebra su2
        field A one even
        field phi scalar even sym2
        field eta scalar odd doublet
        field psi1 one odd doublet
        field chi2 sd odd doublet
        field B2 sd even
        field G2 sd even
        field H1 one even
        Q{a} A = psi1{a}
        Q{a} phi{b,c} = 1/2 eps{a,b} eta{c} + 1/2 eps{a,c} eta{b}
        Q{a} psi1{b} = dA(phi{a,b}) + eps{a,b} H1
        Q{a} chi2{b} = [B2, phi{a,b}] + eps{a,b} G2
        Q{a} B2 = chi2{a}
        Q{a} eta{b} = - eps{c,d} [phi{a,c}, phi{b,d}]
        Q{a} H1 = - 1/2 dA(eta{a}) - eps{c,d} [phi{a,c}, psi1{d}]
        Q{a} G2 = - 1/2 [B2, eta{a}] - eps{b,c} [phi{a,b}, chi2{c}]
    """,
    "threed": """
        dim 3
        algebra su2
        field A one even
        field phi scalar even sym2
        field eta scalar odd doublet
        field etabar scalar odd doublet
        field psi1 one odd doublet
        field psibar1 one odd doublet
        field B1 one even
        field Bbar1 one even
        field V1 one even
        field rho scalar even
        field Y scalar even
        Q{a} A = psi1{a}
        Q{a} phi{b,c} = 1/2 eps{a,b} eta{c} + 1/2 eps{a,c} eta{b}
        Q{a} eta{b} = - eps{c,d} [phi{a,c}, phi{b,d}]
        Q{a} psi1{b} = dA(phi{a,b}) - eps{a,b} [V1, rho] + eps{a,b} B1
        Q{a} B1 = - 1/2 dA(eta{a}) + 1/2 [V1, etabar{a}] - eps{c,d} [phi{a,c}, psi1{d}] - [rho, psibar1{a}]
        Q{a} V1 = psibar1{a}
        Q{a} rho = 1/2 etabar{a}
        Q{a} etabar{b} = 2 [rho, phi{a,b}] + eps{a,b} Y
        Q{a} psibar1{b} = [V1, phi{a,b}] + eps{a,b} dA(rho) + eps{a,b} Bbar1
        Q{a} Bbar1 = - 1/2 dA(etabar{a}) - 1/2 [V1, eta{a}] - eps{c,d} [phi{a,c}, psibar1{d}] + [rho, psi1{a}]
        Q{a} Y = - [rho, eta{a}] - eps{c,d} [phi{a,c}, etabar{d}]
        Qbar{a} A = psibar1{a}
        Qbar{a} phi{b,c} = 1/2 eps{a,b} etabar{c} + 1/2 eps{a,c} etabar{b}
        Qbar{a} etabar{b} = - eps{c,d} [phi{a,c}, phi{b,d}]
        Qbar{a} psibar1{b} = dA(phi{a,b}) - eps{a,b} [V1, rho] - eps{a,b} B1
        Qbar{a} B1 = 1/2 dA(etabar{a}) + 1/2 [V1, eta{a}] + eps{c,d} [phi{a,c}, psibar1{d}] - [rho, psi1{a}]
        Qbar{a} V1 = - psi1{a}
        Qbar{a} rho = - 1/2 eta{a}
        Qbar{a} eta{b} = - 2 [rho, phi{a,b}] - eps{a,b} Y
        Qbar{a} psi1{b} = - [V1, phi{a,b}] - eps{a,b} dA(rho) + eps{a,b} Bbar1
        Qbar{a} Bbar1 = - 1/2 dA(eta{a}) + 1/2 [V1, etabar{a}] - eps{c,d} [phi{a,c}, psi1{d}] - [rho, psibar1{a}]
        Qbar{a} Y = - [rho, etabar{a}] + eps{c,d} [phi{a,c}, eta{d}]
    """,
}


# ----------------------------------------------------------------------
# parsing

@dataclass(frozen=True)
class FieldSpec:
    name: str
    form: str           # scalar | one | sd
    parity: int         # 0 even, 1 odd
    indices: int        # 0 singlet, 1 doublet, 2 symmetric pair

    def slots(self):
        return ([()], [(1,), (2,)], [(1, 1), (1, 2), (2, 2)])[self.indices]


@dataclass(frozen=True)
class Term:
    coeff: ExactComplex
    eps: tuple          # ((l1, l2), ...)
    kind: str           # field | bracket | da | zero
    refs: tuple         # field references (name, index letters)


@dataclass(frozen=True)
class Rule:
    family: str
    field_name: str
    op_letter: str | None
    field_letters: tuple
    terms: tuple


@dataclass(frozen=True)
class TableSpec:
    name: str
    dim: int
    algebra: str
    fields: dict
    rules: dict         # (family, field_name) -> Rule
    families: tuple
    images: dict        # (family, field_name, op_index, slot) -> compiled terms

    def components(self, form):
        if form == "scalar":
            return 1
        if form == "one":
            return 4 if self.dim == 4 else 3
        if form == "sd":
            if self.dim != 4:
                raise TableFormatError("self-dual forms need dim 4")
            return 3
        raise TableFormatError(f"unknown form {form!r}")

    def state_keys(self):
        return [(spec.name, slot, comp) for spec in self.fields.values()
                for slot in spec.slots() for comp in range(self.components(spec.form))]

    @property
    def ncomp(self):
        return 3 if self.algebra == "su2" else 1


_FACTOR_RE = re.compile(
    r"(?P<frac>\d+/\d+)"
    r"|(?P<eps>eps\{(?P<e1>\w),(?P<e2>\w)\})"
    r"|(?P<da>dA\((?P<daref>[^)]+)\))"
    r"|(?P<dzero>d\((?P<dzref>[^)]+)\))"
    r"|(?P<br>\[\s*(?P<b1>\w+(?:\{[^}]*\})?)\s*,\s*(?P<b2>\w+(?:\{[^}]*\})?)\s*\])"
    r"|(?P<int>\d+)"
    r"|(?P<name>\w+(\{[^}]*\})?)"
)

_LHS_RE = re.compile(
    r"^(?P<fam>[A-Za-z]+?)(\{(?P<oi>\w)\})?\s+(?P<field>\w+)(\{(?P<fi>[^}]*)\})?$")


def _parse_ref(text):
    text = text.strip()
    m = re.fullmatch(r"(\w+)(\{([^}]*)\})?", text)
    if not m:
        raise TableFormatError(f"bad field reference {text!r}")
    letters = tuple(s.strip() for s in m.group(3).split(",")) if m.group(3) else ()
    return (m.group(1), letters)


def _parse_terms(rhs):
    rhs = rhs.strip()
    if rhs == "0":
        return ()
    chunks = re.findall(r"[+-]?[^+-]+", rhs)
    terms = []
    for chunk in chunks:
        chunk = chunk.strip()
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:].strip()
        elif chunk.startswith("+"):
            chunk = chunk[1:].strip()
        coeff = ExactComplex(sign)
        eps = []
        kind = None
        refs = ()
        for m in _FACTOR_RE.finditer(chunk):
            if m.group("frac"):
                num, den = m.group("frac").split("/")
                coeff = coeff * Fraction(int(num), int(den))
            elif m.group("int"):
                coeff = coeff * int(m.group("int"))
            elif m.group("eps"):
                eps.append((m.group("e1"), m.group("e2")))
            elif m.group("da"):
                kind, refs = "da", (_parse_ref(m.group("daref")),)
            elif m.group("dzero"):
                kind, refs = "zero", ()
            elif m.group("br"):
                kind, refs = "bracket", (_parse_ref(m.group("b1")), _parse_ref(m.group("b2")))
            elif m.group("name"):
                name = m.group("name")
                if name == "i":
                    coeff = coeff * I_UNIT
                else:
                    if kind is not None:
                        raise TableFormatError(f"two main factors in term {chunk!r}")
                    kind, refs = "field", (_parse_ref(name),)
        if kind is None:
            raise TableFormatError(f"term {chunk!r} has no field content")
        terms.append(Term(coeff=coeff, eps=tuple(eps), kind=kind, refs=refs))
    return tuple(terms)


def _choice(word, choices, what):
    """choices[word]; a word the format does not define raises at load."""
    if word not in choices:
        raise TableFormatError(f"unknown {what} {word!r}")
    return choices[word]


# The word counts of the declaration lines; every other line is a rule.
_LINE_WORDS = {"dim": (2,), "algebra": (2,), "field": (4, 5)}


def load_table(name, text):
    dim = 4
    algebra = "su2"
    fields = {}
    rules = {}
    heads = {}          # (family, field_name) -> the line of its rule
    for raw in text.strip().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        lhs, _, rhs = line.partition("=")
        if parts[0] in _LINE_WORDS:
            if len(parts) not in _LINE_WORDS[parts[0]]:
                raise TableFormatError(f"malformed {parts[0]} line {line!r}")
        elif not rhs.strip():
            raise TableFormatError(f"rule line {line!r} has no right-hand side")
        if parts[0] == "dim":
            dim = _choice(parts[1], {"3": 3, "4": 4}, "dim")
        elif parts[0] == "algebra":
            algebra = _choice(parts[1], {"su2": "su2", "u1": "u1"}, "algebra")
        elif parts[0] == "field":
            _, fname, form, parity, *extra = parts
            indices = _choice(extra[0] if extra else "", {"": 0, "doublet": 1, "sym2": 2},
                              "index word")
            parity = _choice(parity, {"even": 0, "odd": 1}, "parity")
            fields[fname] = FieldSpec(fname, form, parity, indices)
        else:
            m = _LHS_RE.match(lhs.strip())
            if not m:
                raise TableFormatError(f"bad rule head {lhs!r}")
            fam = m.group("fam")
            fname = m.group("field")
            if fname not in fields:
                raise TableFormatError(f"rule for undeclared field {fname!r}")
            if earlier := heads.get((fam, fname)):
                raise TableFormatError(f"second rule for {fam} {fname}: {line!r} after {earlier!r}")
            heads[fam, fname] = line
            letters = tuple(s.strip() for s in m.group("fi").split(",")) if m.group("fi") else ()
            rules[(fam, fname)] = Rule(family=fam, field_name=fname, op_letter=m.group("oi"),
                                       field_letters=letters, terms=_parse_terms(rhs))
    table = TableSpec(name=name, dim=dim, algebra=algebra, fields=fields, rules=rules,
                      families=tuple(dict.fromkeys(fam for fam, _ in rules)), images={})
    for fam in table.families:  # Q{a} A beside Q phi would fail only when evaluated
        kinds = {r.op_letter is None: heads[key] for key, r in rules.items() if key[0] == fam}
        if len(kinds) > 1:
            raise TableFormatError(f"{fam} mixes indexed and unindexed heads: "
                                   f"{kinds[False]!r} and {kinds[True]!r}")
    table.state_keys()  # an unknown form, or sd outside dim 4, raises here
    for rule in rules.values():
        table.images.update(_compile_rule(rule, fields))
    return table


def _compile_rule(rule, fields):
    """A rule's flat term lists, keyed (family, field, op_index, slot), checked once.

    A term is (coeff with its eps signs folded in, is-dA flag, refs); a ref is
    (field, sorted slot, whether it takes the target's form component rather
    than component 0).  Sorted is canonical for every field whose index count
    is checked.  dA(X) is stored as [A, X], whose coefficient gains `da_coef`
    at evaluation.  Terms, dummy letters (by first appearance) and index
    assignments keep the order of term-by-term evaluation.
    """
    target = fields[rule.field_name]
    where = f"{rule.family} {rule.field_name}"
    if len(rule.field_letters) != target.indices:
        raise TableFormatError(f"{rule.field_name} takes {target.indices} indices, in {where}")
    checked = []
    for term in rule.terms:
        if term.kind == "zero":
            continue
        # A is a one-form, so dA(...) inside a scalar rule fails the form check
        refs = (("A", ()),) + term.refs if term.kind == "da" else term.refs
        parity = 0
        for k, (name, letters) in enumerate(refs):
            spec = fields.get(name)
            if spec is None:
                raise TableFormatError(f"reference to undeclared field {name!r} in {where}")
            if len(letters) != spec.indices:
                raise TableFormatError(f"{name} takes {spec.indices} indices, in {where}")
            # dA takes a scalar; any other factor is a scalar or has the target's form
            if spec.form not in (("scalar",) if term.kind == "da" and k else ("scalar", target.form)):
                raise TableFormatError(
                    f"form mismatch: {name} ({spec.form}) inside the {target.form} rule {where}")
            parity ^= spec.parity
        if parity == target.parity:
            raise TableFormatError(f"a term of {where} has the parity of {rule.field_name}")
        checked.append((term, refs))
    images = {}
    for op_index in (None,) if rule.op_letter is None else (1, 2):
        for slot in target.slots():
            binding = {} if rule.op_letter is None else {rule.op_letter: op_index}
            binding.update(zip(rule.field_letters, slot))
            flat = []
            for term, refs in checked:
                letters = [l for pair in term.eps for l in pair] + [l for _, ls in refs for l in ls]
                dummies = list(dict.fromkeys(l for l in letters if l not in binding))
                for assignment in itertools.product((1, 2), repeat=len(dummies)):
                    local = {**binding, **dict(zip(dummies, assignment))}
                    sign = prod(_EPS[local[l1], local[l2]] for l1, l2 in term.eps)
                    if sign:
                        flat.append((term.coeff if sign > 0 else -term.coeff, term.kind == "da",
                                     tuple((name, tuple(sorted(local[l] for l in ls)),
                                            fields[name].form == target.form)
                                           for name, ls in refs)))
            images[rule.family, rule.field_name, op_index, slot] = tuple(flat)
    return images


_TABLE_CACHE = {}


def get_table(name):
    if name not in _TABLE_CACHE:
        if name not in TABLE_TEXTS:
            raise KeyError(f"unknown table {name!r}")
        _TABLE_CACHE[name] = load_table(name, TABLE_TEXTS[name])
    return _TABLE_CACHE[name]


# ----------------------------------------------------------------------
# states and conventions

@dataclass(frozen=True)
class FieldState:
    table: TableSpec
    values: dict        # (field, slot, comp) -> GrassmannElement
    n_generators: int
    # work shared by the closure checks of this state (see the module docstring);
    # it assumes `values` is never changed in place: derive states with `replace`
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class SignConvention:
    """The constant-field reduction coefficient of the covariant derivative,
    dA(X) -> da_coef * [A, X].  Every rule is evaluated as printed, and the
    gauge variation is always delta X = i[X, Lambda] (`gauge_variation`).
    """

    da_coef: ExactComplex = I_UNIT
    # not fields: the fixed rule signs and gauge convention, as bench/layers.py reads them
    rule_signs = ()
    sigma = 1
    gauge_includes_i = True


def default_convention(table):
    """dA(X) -> i[A, X] when a compiled rule term has an imaginary coefficient,
    else dA(X) -> [A, X]: a table that writes its commutators with explicit i
    reduces its covariant derivative the same way.  The rule reads the table's
    content only, never its name.
    """
    imaginary = any(coeff.im for terms in table.images.values() for coeff, _, _ in terms)
    return SignConvention(da_coef=I_UNIT if imaginary else ExactComplex(1))


def _random_fraction(rng):
    num = rng.randint(-9, 9)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 9))


def random_state(table, seed=0):
    """Generic exact-rational configuration: even fields are bodies, each odd
    field component gets an independent Grassmann generator."""
    rng = random.Random(seed)
    ncomp = table.ncomp
    values = {}
    gen = 0
    for key in table.state_keys():
        vec = tuple(_random_fraction(rng) for _ in range(ncomp))
        if table.fields[key[0]].parity == 0:
            values[key] = GrassmannElement.body(vec)
        else:
            values[key] = GrassmannElement.generator(gen, vec)
            gen += 1
    return FieldState(table=table, values=values, n_generators=gen)


# ----------------------------------------------------------------------
# rule evaluation

def _rule_image(state, rule, op_index, slot, comp, conv, shift=None):
    """A rule's value at one form component: one combination of its compiled terms,
    or with `shift` (key -> theta * Y) its theta-linear part on X + theta * Y."""
    values = state.values
    items = []
    for coeff, is_da, refs in state.table.images[rule.family, rule.field_name, op_index, slot]:
        coeff = coeff * conv.da_coef if is_da else coeff
        keys = [(name, s, comp if own else 0) for name, s, own in refs]
        if shift is None:
            args = [values[k] for k in keys]
            items.append((coeff, args[0] if len(args) == 1 else tuple(args)))
        elif len(keys) == 1:
            items.append((coeff, shift[keys[0]]))
        else:
            u, v = keys
            items += [(coeff, (values[u], shift[v])), (coeff, (shift[u], values[v]))]
    return GrassmannElement.combination(state.table.ncomp, items)


def _resolve_which(which):
    """Accept 'Q', 'Qp', ('Q', a), ('Qbar', a); return (family, op_index)."""
    if isinstance(which, str):
        return which, None
    family, op_index = which
    return family, int(op_index)


def _images(state, which, conv, shift=None):
    """{key: Q_which image} over the state, or its theta-linear part (`_rule_image`)."""
    table = state.table
    family, op_index = _resolve_which(which)
    out = {}
    for key in table.state_keys():
        fname, slot, comp = key
        rule = table.rules.get((family, fname))
        if rule is None:
            raise RuleMissingError(f"no printed rule for {family} {fname}")
        if (family, fname, op_index, slot) not in table.images:
            raise TableFormatError(f"operator index mismatch for {family} {fname}")
        out[key] = _rule_image(state, rule, op_index, slot, comp, conv, shift)
    return out


def apply_q(state, which, conv=None):
    """One application of a BRST operator: the state of Q-images."""
    return replace(state, values=_images(state, which, conv or default_convention(state.table)))


def gauge_variation(state, lam):
    """delta X = i[X, Lambda] on every adjoint field."""
    out = {key: GrassmannElement.combination(state.table.ncomp, ((I_UNIT, (value, lam)),))
           for key, value in state.values.items()}
    return replace(state, values=out)


# ----------------------------------------------------------------------
# composition via the shift generator

def _extract_theta(element, gen_index):
    """Y in element = theta * Y + (theta-free part).  theta is the highest
    generator, so each term's sign is (-1)^(parity of the rest of the term),
    and that parity is the element's flipped: one sign per element."""
    bit = 1 << gen_index
    terms = {mask ^ bit: comps if element.parity else tuple(-c for c in comps)
             for mask, comps in element.terms.items() if mask & bit}
    return GrassmannElement._from_terms(element.ncomp, element.parity ^ 1, terms, element.den)


def _outer_images(state, which, conv):
    """Q_which X on the state, memoised per convention."""
    key = ("outer", which, conv)
    images = state.memo.get(key)
    if images is None:
        images = state.memo[key] = apply_q(state, which, conv).values
    return images


def _shifted(state, combo, conv):
    """{key: theta * sum_a w_a Q_a X} over combo ((a, w), ...), theta the next free
    generator; memoised per combo and convention."""
    key = ("shifted", combo, conv)
    shift = state.memo.get(key)
    if shift is None:
        images = [(_outer_images(state, a, conv), w) for a, w in combo]
        if len(images) == 1 and images[0][1] == 1:  # one pair: the outer images themselves
            ys = images[0][0]
        else:
            ys = {k: GrassmannElement.combination(state.table.ncomp, [(w, v[k]) for v, w in images])
                  for k in state.values}
        theta = GrassmannElement.generator(state.n_generators, (1,))
        shift = state.memo[key] = {k: grassmann_mul(theta, y) if y.terms else y
                                   for k, y in ys.items()}
    return shift


def compose(state, which_outer, which_inner, conv=None):
    """Values of Q_outer(Q_inner X) on the state, exactly."""
    return _compose_sum(state, {(which_outer, which_inner): 1},
                        conv or default_convention(state.table))


def _compose_sum(state, weights, conv):
    """Sum of w * Q_a(Q_b X) over weights {(a, b): w}, one inner evaluation per b.

    Q_b(X + theta Y) is evaluated only in its theta-linear part, which is linear
    in Y (theta^2 = 0), so the pairs sharing an inner operator b compose once,
    on Y = sum_a w_ab Q_a X; the theta coefficient is Q_b's signed Leibniz rule.
    """
    combos = {}
    for (a, b), w in weights.items():
        combos.setdefault(b, []).append((a, w))
    gen_index = state.n_generators
    parts = {}
    for b, combo in combos.items():
        for key, value in _images(state, b, conv, _shifted(state, tuple(combo), conv)).items():
            parts.setdefault(key, []).append(_extract_theta(value, gen_index))
    return {key: values[0] if len(values) == 1 else GrassmannElement.sum(state.table.ncomp, values)
            for key, values in parts.items()}


def q_squared_residual(state, which="Q", conv=None, param_field=None, fields=None):
    """Q(Q X) - i[X, param] per field; param None means expected zero."""
    conv = conv or default_convention(state.table)
    images = compose(state, which, which, conv)
    if param_field is not None:
        expected = gauge_variation(state, state.values[(param_field, (), 0)]).values
        images = {key: value - expected[key] for key, value in images.items()}
    return {key: value for key, value in images.items() if fields is None or key[0] in fields}


# ----------------------------------------------------------------------
# exact linear fit of the gauge parameter

def _solve_exact(rows):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968), then back-substitution.

    rows: (coefficients tuple, rhs) of ints and Gaussian-integer ExactComplex
    values.  Step k maps a row v to (p_k v - v[c_k] top_k) / p_{k-1}, exactly.
    Pivots follow plain Gauss-Jordan elimination (per column, the first row on
    with a nonzero entry, swapped up), so the ExactComplex solution matches it,
    free variables zero, also for an inconsistent system (a residual remains).
    A row is reduced only when the pivot search reaches it.
    """
    if not rows:
        return []
    n = len(rows[0][0])
    mat = [(list(coeffs) + [rhs], 0) for coeffs, rhs in rows]  # (row, steps applied)
    tops, pivots = [], [1]
    row = 0
    for col in range(n):
        for r in range(row, len(mat)):
            vals, done = mat[r]
            for k in range(done, len(tops)):
                c, top = tops[k]
                f = vals[c]
                vals = [_exact_div(pivots[k + 1] * a - f * b, pivots[k]) for a, b in zip(vals, top)]
            mat[r] = (vals, len(tops))
            if vals[col]:
                break
        else:
            continue
        mat[row], mat[r] = mat[r], mat[row]
        tops.append((col, vals))
        pivots.append(vals[col])
        row += 1
        if row == len(mat):
            break
    solution = [ExactComplex(0)] * n
    for col, top in reversed(tops):
        value = ExactComplex.coerce(top[n])
        for c in range(col + 1, n):
            value = value - top[c] * solution[c]
        solution[col] = value / top[col]
    return solution


def _exact_div(a, b):
    """a / b for Gaussian integers that b divides exactly."""
    return a // b if type(a) is int and type(b) is int else ExactComplex.coerce(a) / b


def _gauge_basis(state, a, b):
    """Candidate gauge parameters for the pair of operator indices (a, b)."""
    table = state.table
    basis = []
    if table.fields.get("phi") and table.fields["phi"].indices == 2:
        slot = tuple(sorted((a, b)))
        basis.append((f"phi{{{a},{b}}}", state.values[("phi", slot, 0)]))
    elif "phi" in table.fields:
        basis += [(name, state.values[(name, (), 0)])
                  for name in ("phi", "phibar", "C") if name in table.fields]
    eps = _EPS[(a, b)]
    basis += [(f"{eps}*{name}", state.values[(name, (), 0)].scale(eps))
              for name in ("rho", "Y") if name in table.fields and eps]
    return basis


def _brackets(state, element):
    """[X, element] for every state value X, memoised per basis element."""
    key = ("bracket", element)
    brackets = state.memo.get(key)
    if brackets is None:
        brackets = state.memo[key] = {k: lie_bracket(v, element) for k, v in state.values.items()}
    return brackets


def _fit_gauge(state, images, basis):
    """Exact fit images[X] = sum_k c_k [X, B_k]; returns (coeffs, residuals)."""
    table = state.table
    if table.ncomp == 1:  # u(1): every bracket vanishes, so every row is all-zero
        nonzero = any(not target.is_zero() for target in images.values())
        return ([ExactComplex(0)] * len(basis) if nonzero else []), dict(images)
    columns = [_brackets(state, bk) for _, bk in basis]
    bracket_values = {key: [col[key] for col in columns] for key in images}
    zeros = (0,) * table.ncomp
    rows = []
    for key, target in images.items():
        # one key's rows times the lcm of its denominators are integral
        den = lcm(target.den, *(bv.den for bv in bracket_values[key]))
        scaled = [(bv.terms, den // bv.den) for bv in bracket_values[key]]
        masks = set(target.terms)
        for bv in bracket_values[key]:
            masks |= set(bv.terms)
        for mask in masks:
            for c in range(table.ncomp):
                coeffs = tuple(terms.get(mask, zeros)[c] * f for terms, f in scaled)
                rhs = target.terms.get(mask, zeros)[c] * (den // target.den)
                if any(coeffs) or rhs:
                    rows.append((coeffs, rhs))
    solution = _solve_exact(rows)
    minus = [-c for c in solution]
    residuals = {key: GrassmannElement.combination(
        table.ncomp, [(1, target), *zip(minus, bracket_values[key])])
        for key, target in images.items()}
    return solution, residuals


def _closure_fit(state, weights, basis, conv):
    """Fit sum w * Q_a(Q_b X) over weights {(a, b): w} to a gauge variation
    over `basis`; returns the fitted parameter as text and the residuals."""
    solution, residuals = _fit_gauge(state, _compose_sum(state, weights, conv), basis)
    return {name: repr(c) for (name, _), c in zip(basis, solution)}, residuals


def residual_report(residuals):
    """Per-field summary of a residual map {(field, slot, comp): element}.

    `exact_zero` and `failing_fields` are decided exactly, by `is_zero()`;
    the float `max_abs()` only fills the `residual_max` magnitudes.
    """
    per_field = {}
    failing = set()
    for (fname, slot, comp), res in residuals.items():
        label = fname + ("" if not slot else str(list(slot)))
        per_field[label] = max(per_field.get(label, 0.0), res.max_abs())
        if not res.is_zero():
            failing.add(label)
    return {"residual_max": per_field, "exact_zero": not failing,
            "failing_fields": sorted(failing)}


def check_closure(state, pair, conv=None, fields=None):
    """Closure residual of a pair of supercharges, up to a fitted gauge term.

    pair: (which1, which2); equal entries check the composition Q(QX), and
    distinct entries the anticommutator.  The gauge parameter is solved for
    exactly from the output (a linear combination of the scalar fields the
    table provides); the report lists per-field residuals, the fitted
    parameter, and whether every residual vanishes identically.
    """
    table = state.table
    conv = conv or default_convention(table)
    which1, which2 = pair
    if which1 == which2:
        kind, weights = "square", {(which1, which2): 1}
    else:
        kind, weights = "anticommutator", {(which1, which2): 1, (which2, which1): 1}
    _, a = _resolve_which(which1)
    _, b = _resolve_which(which2)
    gauge, residuals = _closure_fit(state, weights, _gauge_basis(state, a or 1, b or 1), conv)
    if fields is not None:
        residuals = {k: v for k, v in residuals.items() if k[0] in fields}
    return {"pair": [str(which1), str(which2)], "kind": kind, "gauge_parameter": gauge,
            **residual_report(residuals)}


def check_twistor(state, s, r, conv=None):
    """Squared residual of d = s_a Q^a + r_b Qbar^b on constant fields.

    The mixed anticommutators produce the translation generator, which acts
    on constant configurations as a gauge rotation; the fit absorbs it, so a
    typo-free table yields an exactly zero residual for every (s, r).
    """
    table = state.table
    conv = conv or default_convention(table)
    coeffs = {("Q", 1): s[0], ("Q", 2): s[1], ("Qbar", 1): r[0], ("Qbar", 2): r[1]}
    weights = {(w1, w2): Fraction(c1) * Fraction(c2)
               for w1, c1 in coeffs.items() for w2, c2 in coeffs.items() if c1 and c2}
    basis = [(f"phi{{{a},{b}}}", state.values[("phi", (a, b), 0)])
             for a, b in ((1, 1), (1, 2), (2, 2))]
    basis += [(name, state.values[(name, (), 0)]) for name in ("rho", "Y") if name in table.fields]
    gauge, residuals = _closure_fit(state, weights, basis, conv)
    failing = sorted({fname for (fname, _, _), res in residuals.items() if not res.is_zero()})
    return {"s": list(s), "r": list(r), "gauge_parameter": gauge,
            "exact_zero": not failing, "failing_fields": failing}


# ----------------------------------------------------------------------
# sign calibration

def closure_pairs(table):
    """The inequivalent supercharge pairs a table's algebra constrains."""
    same = [(1, 1), (1, 2), (2, 2)]
    if "Qbar" in table.families:
        pairs = [(("Q", a), ("Q", b)) for a, b in same]
        pairs += [(("Q", a), ("Qbar", b)) for a in (1, 2) for b in (1, 2)]
        pairs += [(("Qbar", a), ("Qbar", b)) for a, b in same]
        return pairs
    if table.rules.get(("Q", "A")) and table.rules[("Q", "A")].op_letter:
        return [(("Q", a), ("Q", b)) for a, b in same]
    return [("Q", "Q")]


def calibrate_signs(table_name, seeds=(0, 1, 2)):
    """Check that a table closes under its derived covariant-derivative coefficient.

    One pass checks every seed and closure pair under `default_convention`,
    with every rule as printed, one state per seed.  If all close, the
    stage is `identity-toggles` (named for the rules it leaves as printed);
    otherwise it is `report`, with the rules of the failing fields listed as
    candidate typos: calibration never patches a printed rule.
    """
    if not seeds:
        raise ValueError("calibrate_signs needs at least one seed in `seeds`")
    table = get_table(table_name)
    conv = default_convention(table)
    names = {label.split("[")[0]
             for state in (random_state(table, seed=seed) for seed in seeds)
             for pair in closure_pairs(table)
             for label in check_closure(state, pair, conv)["failing_fields"]}
    failing = sorted(f"{fam} {name}" for name in names
                     for fam in table.families if (fam, name) in table.rules)
    return conv, {"calibrated": not names, "stage": "report" if names else "identity-toggles",
                  "failing_rules": failing}
