"""Session-script language: lexer, parser, interpreter.

Line-oriented statements terminated by `;`; ring declarations, let
bindings, budget settings, print and check commands.  Polynomial literals
use + - * ^ with parentheses and integer coefficients.  Reports serialize
deterministically.
"""

import re

from .config import config
from .complexes import rank_one_complex
from .duality import (
    canonical_dualizing,
    commutation_signs,
    compare_presentations,
    fli_eta,
    verify_frobenius_duality,
    xi_factorizations_agree,
)
from .errors import (
    AlgebraError,
    ParseError,
    SessionNameError,
)
from .frobenius import (
    FrobPushforward,
    bracket_power,
    frobenius_pushforward,
    is_p_basis,
    is_p_generating,
    trace_generator_is_exact,
)
from .gabber import extend_pgens_check, gabber_truncation, verify_kernel_bracket
from .groebner import Ideal, QuotientRing, ambient_of, as_quotient, elimination_kernel, reduce_in
from .modules import (
    FPModule,
    ModuleMap,
    cyclic_module,
    exterior_power,
    generic_rank,
    hilbert_function,
    hom_module,
    ideal_module,
    minimal_generators_at,
    tensor_module,
)
from .polyring import PolyRing, Polynomial, RingMap, poly_str
from .shriek import verify_associativity, verify_rigidifier, verify_symmetry, verify_unit

TOKEN_SPEC = [
    ("NUMBER", r"\d+"),
    ("ID", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("OP", r"[+\-*^]"),
    ("LP", r"\("),
    ("RP", r"\)"),
    ("LB", r"\["),
    ("RB", r"\]"),
    ("COMMA", r","),
    ("SEMI", r";"),
    ("EQ", r"="),
    ("SLASH", r"/"),
    ("DOT", r"\."),
    ("COMMENT", r"#[^\n]*"),
    ("NL", r"\n"),
    ("WS", r"[ \t\r]+"),
    ("BAD", r"."),
]
TOKEN_RE = re.compile("|".join("(?P<%s>%s)" % (n, p) for n, p in TOKEN_SPEC))


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "%s(%r)" % (self.kind, self.value)


def tokenize(text):
    line, col = 1, 1
    out = []
    for m in TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group()
        if kind == "NL":
            line += 1
            col = 1
            continue
        if kind in ("WS", "COMMENT"):
            col += len(value)
            continue
        if kind == "BAD":
            raise ParseError("unexpected character %r at line %d col %d" % (value, line, col))
        out.append(Token(kind, value, line, col))
        col += len(value)
    out.append(Token("EOF", "", line, col))
    return out


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t.kind != kind or (value is not None and t.value != value):
            raise ParseError(
                "expected %s at line %d col %d, got %r"
                % (value or kind, t.line, t.col, t.value or t.kind)
            )
        return t

    def parse_program(self):
        stmts = []
        while self.peek().kind != "EOF":
            stmts.append(self.parse_statement())
        return stmts

    def parse_statement(self):
        t = self.peek()
        if t.kind != "ID":
            raise ParseError(
                "expected a statement at line %d col %d, got %r" % (t.line, t.col, t.value)
            )
        if t.value == "ring":
            return self.parse_ring_decl()
        if t.value == "let":
            return self.parse_let()
        if t.value == "set":
            return self.parse_set()
        if t.value in ("print", "check"):
            kw = self.next().value
            expr = self.parse_expr()
            self.expect("SEMI")
            return (kw, expr)
        raise ParseError("unknown statement %r at line %d" % (t.value, t.line))

    def parse_ring_decl(self):
        self.expect("ID", "ring")
        name = self.expect("ID").value
        self.expect("EQ")
        self.expect("ID", "Fp")
        self.expect("LP")
        p = int(self.expect("NUMBER").value)
        self.expect("RP")
        self.expect("LB")
        vars_ = []
        if self.peek().kind != "RB":
            vars_.append(self.expect("ID").value)
            while self.peek().kind == "COMMA":
                self.next()
                vars_.append(self.expect("ID").value)
        self.expect("RB")
        polys = []
        if self.peek().kind == "SLASH":
            self.next()
            self.expect("LP")
            polys.append(self.parse_expr())
            while self.peek().kind == "COMMA":
                self.next()
                polys.append(self.parse_expr())
            self.expect("RP")
        self.expect("SEMI")
        return ("ring", name, p, vars_, polys)

    def parse_let(self):
        self.expect("ID", "let")
        name = self.expect("ID").value
        self.expect("EQ")
        expr = self.parse_expr()
        self.expect("SEMI")
        return ("let", name, expr)

    def parse_set(self):
        self.expect("ID", "set")
        parts = [self.expect("ID").value]
        while self.peek().kind == "DOT":
            self.next()
            parts.append(self.expect("ID").value)
        self.expect("EQ")
        value = int(self.expect("NUMBER").value)
        self.expect("SEMI")
        return ("set", ".".join(parts), value)

    # expression grammar: sum > product > power > atom
    def parse_expr(self):
        node = self.parse_product()
        while self.peek().kind == "OP" and self.peek().value in "+-":
            op = self.next().value
            rhs = self.parse_product()
            node = ("binop", op, node, rhs)
        return node

    def parse_product(self):
        node = self.parse_power()
        while self.peek().kind == "OP" and self.peek().value == "*":
            self.next()
            rhs = self.parse_power()
            node = ("binop", "*", node, rhs)
        return node

    def parse_power(self):
        node = self.parse_unary()
        if self.peek().kind == "OP" and self.peek().value == "^":
            self.next()
            exp = self.parse_unary()
            node = ("binop", "^", node, exp)
        return node

    def parse_unary(self):
        if self.peek().kind == "OP" and self.peek().value == "-":
            self.next()
            return ("neg", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        t = self.next()
        if t.kind == "NUMBER":
            return ("int", int(t.value))
        if t.kind == "LP":
            node = self.parse_expr()
            self.expect("RP")
            return node
        if t.kind == "LB":
            items = []
            if self.peek().kind != "RB":
                items.append(self.parse_expr())
                while self.peek().kind == "COMMA":
                    self.next()
                    items.append(self.parse_expr())
            self.expect("RB")
            return ("list", items)
        if t.kind == "ID":
            if self.peek().kind == "LP":
                self.next()
                args = []
                if self.peek().kind != "RP":
                    args.append(self.parse_expr())
                    while self.peek().kind == "COMMA":
                        self.next()
                        args.append(self.parse_expr())
                self.expect("RP")
                return ("call", t.value, args)
            return ("name", t.value)
        raise ParseError(
            "unexpected token %r at line %d col %d" % (t.value or t.kind, t.line, t.col)
        )


def parse_session(text):
    """Parse a session script into a list of commands."""
    return Parser(text).parse_program()


# ---------------------------------------------------------------------------
# values and serialization

def serialize(value):
    """Deterministic payload for reports."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, Polynomial):
        return poly_str(value)
    if isinstance(value, (list, tuple)):
        return [serialize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): serialize(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, PolyRing):
        return "Fp(%d)[%s]" % (value.p, ",".join(value.display_names))
    if isinstance(value, QuotientRing):
        gens = sorted(poly_str(g, value.ambient.display_names) for g in value.modulus.gens)
        return "Fp(%d)[%s]/(%s)" % (
            value.ambient.p,
            ",".join(value.ambient.display_names),
            ", ".join(gens),
        )
    if isinstance(value, Ideal):
        gens = sorted(poly_str(g, value.ring.display_names) for g in value.groebner())
        return {"groebner_basis": gens}
    if isinstance(value, FPModule):
        return {"generators": value.ngens, "relations": len(value.relations)}
    if isinstance(value, FrobPushforward):
        return {
            "generators": value.module.ngens,
            "level": value.e,
            "relations": len(value.module.relations),
        }
    if isinstance(value, ModuleMap):
        return {"source_generators": value.source.ngens, "target_generators": value.target.ngens}
    if isinstance(value, RingMap):
        return {"images": [poly_str(g) for g in value.images]}
    if value is None:
        return None
    return {"kind": type(value).__name__}


class Report:
    def __init__(self, command, status, payload=None, error_kind=None, message=None):
        self.command = command
        self.status = status
        self.payload = payload
        self.error_kind = error_kind
        self.message = message

    def to_dict(self):
        out = {"command": self.command, "status": self.status}
        if self.status == "ok":
            out["payload"] = self.payload
        else:
            out["error_kind"] = self.error_kind
            out["message"] = self.message
        return out


class Session:
    """Name environment of a session script.

    A new session starts from the default budgets, so that settings made
    by an earlier session in the process do not carry over."""

    def __init__(self):
        config.reset()
        self.env = {}

    def bind(self, name, value):
        self.env[name] = value

    def lookup(self, name):
        if name not in self.env:
            raise SessionNameError("unbound name %r" % name)
        return self.env[name]


# ---------------------------------------------------------------------------
# evaluation

def eval_poly(session, ast, ring):
    """Evaluate an arithmetic AST as a polynomial over the ring's ambient."""
    amb = ambient_of(ring)
    kind = ast[0]
    if kind == "int":
        return amb.const(ast[1])
    if kind == "name":
        name = ast[1]
        if name in amb.variables:
            return amb.var(name)
        if name in session.env:
            v = session.env[name]
            if isinstance(v, Polynomial) and v.ring == amb:
                return v
            if isinstance(v, int):
                return amb.const(v)
        raise SessionNameError("%r is not a variable of the ring" % name)
    if kind == "neg":
        return -eval_poly(session, ast[1], ring)
    if kind == "binop":
        op, a, b = ast[1], ast[2], ast[3]
        if op == "^":
            base = eval_poly(session, a, ring)
            if b[0] != "int":
                raise ParseError("exponent must be an integer literal")
            return base ** b[1]
        x = eval_poly(session, a, ring)
        y = eval_poly(session, b, ring)
        if op == "+":
            return x + y
        if op == "-":
            return x - y
        if op == "*":
            return x * y
    raise ParseError("not a polynomial expression")


def _as_ring(v):
    if isinstance(v, (PolyRing, QuotientRing)):
        return v
    if hasattr(v, "ring") and isinstance(v.ring, (PolyRing, QuotientRing)):
        return v.ring
    raise AlgebraError("expected a ring")


def _module_arg(v):
    if isinstance(v, FPModule):
        return v
    if isinstance(v, FrobPushforward):
        return v.module
    raise AlgebraError("expected a module")


def _quotient(v):
    if isinstance(v, (QuotientRing, PolyRing)):
        return as_quotient(v)
    raise AlgebraError("expected a ring")


def _arity(least, most):
    if most is None:
        return "at least %d" % least
    if most == least:
        return "%d" % least
    return "%d to %d" % (least, most)


class Interpreter:
    def __init__(self, session):
        self.session = session

    # -- generic evaluation --
    def eval(self, ast):
        kind = ast[0]
        if kind == "int":
            return ast[1]
        if kind == "name":
            return self.session.lookup(ast[1])
        if kind == "list":
            return [self.eval(a) for a in ast[1]]
        if kind == "call":
            name, args = ast[1], ast[2]
            entry = BUILTINS.get(name)
            if entry is None:
                raise SessionNameError("unknown function %r" % name)
            fn, least, most = entry
            if len(args) < least or most is not None and len(args) > most:
                raise ParseError("%s expects %s argument(s), got %d" % (name, _arity(least, most), len(args)))
            return fn(self, args)
        raise ParseError("bare polynomial expressions need a ring context")

    def ring_at(self, ast):
        return _as_ring(self.eval(ast))

    def polys_in(self, ring, asts):
        return [eval_poly(self.session, a, ring) for a in asts]

    def elements_list(self, ring, ast):
        if ast[0] != "list":
            raise ParseError("expected a list of ring elements")
        return self.polys_in(ring, ast[1])


# -- builtin operations ------------------------------------------------------

def _b_ideal(ip, args):
    R = ip.ring_at(args[0])
    amb = ambient_of(R)
    return Ideal(amb, ip.polys_in(R, args[1:]))


def _b_cyclic(ip, args):
    R = ip.ring_at(args[0])
    return cyclic_module(R, ip.polys_in(R, args[1:]))


def _b_ideal_module(ip, args):
    R = ip.ring_at(args[0])
    return ideal_module(R, ip.polys_in(R, args[1:]))


def _b_pushforward(ip, args):
    R = ip.ring_at(args[0])
    e = ip.eval(args[1]) if len(args) > 1 else 1
    return frobenius_pushforward(_quotient(R), e)


def _b_exterior(ip, args):
    M = _module_arg(ip.eval(args[0]))
    return exterior_power(M, ip.eval(args[1]))


def _b_hom(ip, args):
    return hom_module(_module_arg(ip.eval(args[0])), _module_arg(ip.eval(args[1])))


def _b_tensor(ip, args):
    return tensor_module(_module_arg(ip.eval(args[0])), _module_arg(ip.eval(args[1])))


def _b_generic_rank(ip, args):
    return generic_rank(_module_arg(ip.eval(args[0])))


def _b_minimal_generators(ip, args):
    M = _module_arg(ip.eval(args[0]))
    gens = ip.elements_list(M.ring, args[1])
    return minimal_generators_at(M, Ideal(M.ambient, gens))


def _b_hilbert(ip, args):
    M = _module_arg(ip.eval(args[0]))
    d = ip.eval(args[1])
    graded = FPModule(M.ring, M.ngens, M.relations, grading=[0] * M.ngens)
    return hilbert_function(graded, d)


def _b_bracket_power(ip, args):
    I = ip.eval(args[0])
    if not isinstance(I, Ideal):
        raise AlgebraError("expected an ideal")
    return bracket_power(I, ip.eval(args[1]))


def _b_ringmap(ip, args):
    S = ip.ring_at(args[0])
    T = ip.ring_at(args[1])
    imgs = ip.elements_list(T, args[2])
    return RingMap(S, T, [reduce_in(T, g) for g in imgs])


def _b_kernel_ideal(ip, args):
    phi = ip.eval(args[0])
    if not isinstance(phi, RingMap):
        raise AlgebraError("expected a ring map")
    return elimination_kernel(phi)


def _b_gabber(ip, args):
    R = _quotient(ip.ring_at(args[0]))
    xs = ip.elements_list(R, args[1])
    e = ip.eval(args[2])
    tower = gabber_truncation(R, [R.reduce(g) for g in xs], e)
    return tower.ring


def _b_omega(ip, args):
    A = _quotient(ip.ring_at(args[0]))
    return canonical_dualizing(A).canonical_module_over_ring()


def _b_omega_degrees(ip, args):
    A = _quotient(ip.ring_at(args[0]))
    dc = canonical_dualizing(A)
    return dc.cohomology_report().nonzero_degrees()


def _b_is_zero(ip, args):
    return _module_arg(ip.eval(args[0])).is_zero_module()


def _b_equal_ideals(ip, args):
    I, J = ip.eval(args[0]), ip.eval(args[1])
    return I.equals(J)


# -- check predicates --------------------------------------------------------

def _b_frobenius_duality(ip, args):
    A = _quotient(ip.ring_at(args[0]))
    e = ip.eval(args[1]) if len(args) > 1 else 1
    return verify_frobenius_duality(A, e).certified


def _b_gabber_kernels(ip, args):
    S = ip.ring_at(args[0])
    pi = ip.eval(args[1])
    e = ip.eval(args[2])
    return verify_kernel_bracket(S, pi, e)


def _b_p_basis(ip, args):
    R = _quotient(ip.ring_at(args[0]))
    return is_p_basis(R, [R.reduce(g) for g in ip.elements_list(R, args[1])])


def _b_p_generating(ip, args):
    R = _quotient(ip.ring_at(args[0]))
    return is_p_generating(R, [R.reduce(g) for g in ip.elements_list(R, args[1])])


def _b_extend_pgens(ip, args):
    R = _quotient(ip.ring_at(args[0]))
    xs = [R.reduce(g) for g in ip.elements_list(R, args[1])]
    ys = [R.reduce(g) for g in ip.elements_list(R, args[2])]
    return extend_pgens_check(R, xs, ys, ip.eval(args[3]))


def _b_unit(ip, args):
    A = _quotient(ip.ring_at(args[0]))
    M = _module_arg(ip.eval(args[1]))
    shift = ip.eval(args[2]) if len(args) > 2 else 0
    return verify_unit(A, M, m_shift=shift).certified


def _b_rigidifier(ip, args):
    return verify_rigidifier(canonical_dualizing(_quotient(ip.ring_at(args[0])))).certified


def _b_symmetry(ip, args):
    A = _quotient(ip.ring_at(args[0]))
    M = _module_arg(ip.eval(args[1]))
    N = _module_arg(ip.eval(args[2]))
    sM = ip.eval(args[3]) if len(args) > 3 else 0
    sN = ip.eval(args[4]) if len(args) > 4 else 0
    return all(verify_symmetry(A, M, N, sM, sN).values())


def _b_associativity(ip, args):
    A = _quotient(ip.ring_at(args[0]))
    M = _module_arg(ip.eval(args[1]))
    N = _module_arg(ip.eval(args[2]))
    K = _module_arg(ip.eval(args[3]))
    shifts = tuple(ip.eval(args[i]) if len(args) > i else 0 for i in (4, 5, 6))
    return verify_associativity(A, M, N, K, shifts=shifts)["certified"]


def _b_presentations(ip, args):
    A = _quotient(ip.ring_at(args[0]))
    pi1 = ip.eval(args[1])
    pi2 = ip.eval(args[2])
    return compare_presentations(A, pi1, pi2).certified


def _b_eta(ip, args):
    S = ip.ring_at(args[0])
    if isinstance(S, QuotientRing):
        raise AlgebraError("the FLI runs over a polynomial ring")
    rseq = ip.elements_list(S, args[1])
    eta = fli_eta(S, rseq, rank_one_complex(S, 0))
    return all(eta.certified.values())


def _b_xi_factorizations(ip, args):
    R = ip.ring_at(args[0])
    if isinstance(R, QuotientRing):
        raise AlgebraError("expect a polynomial ring")
    e = ip.eval(args[1]) if len(args) > 1 else 1
    return xi_factorizations_agree(R, [R.var(0) ** 3], e)[0]


def _b_commutation_signs(ip, args):
    return all(commutation_signs(ip.eval(args[0])).values())


def _b_trace_generator(ip, args):
    R = ip.ring_at(args[0])
    if isinstance(R, QuotientRing):
        raise AlgebraError("expect a polynomial ring with its variable p-basis")
    return trace_generator_is_exact(R)


# name -> (builtin, least and most argument count; None: no most)
BUILTINS = {
    "ideal": (_b_ideal, 1, None),
    "cyclic": (_b_cyclic, 1, None),
    "ideal_module": (_b_ideal_module, 1, None),
    "frobenius_pushforward": (_b_pushforward, 1, 2),
    "exterior_power": (_b_exterior, 2, 2),
    "hom": (_b_hom, 2, 2),
    "tensor": (_b_tensor, 2, 2),
    "generic_rank": (_b_generic_rank, 1, 1),
    "minimal_generators_at": (_b_minimal_generators, 2, 2),
    "hilbert": (_b_hilbert, 2, 2),
    "bracket_power": (_b_bracket_power, 2, 2),
    "ringmap": (_b_ringmap, 3, 3),
    "kernel_ideal": (_b_kernel_ideal, 1, 1),
    "gabber_truncation": (_b_gabber, 3, 3),
    "omega_module": (_b_omega, 1, 1),
    "omega_degrees": (_b_omega_degrees, 1, 1),
    "is_zero": (_b_is_zero, 1, 1),
    "equal_ideals": (_b_equal_ideals, 2, 2),
    "frobenius_duality": (_b_frobenius_duality, 1, 2),
    "gabber_kernels": (_b_gabber_kernels, 3, 3),
    "p_basis": (_b_p_basis, 2, 2),
    "p_generating": (_b_p_generating, 2, 2),
    "extend_pgens": (_b_extend_pgens, 4, 4),
    "unit": (_b_unit, 2, 3),
    "rigidifier": (_b_rigidifier, 1, 1),
    "symmetry": (_b_symmetry, 3, 5),
    "associativity": (_b_associativity, 4, 7),
    "presentations": (_b_presentations, 3, 3),
    "eta": (_b_eta, 2, 2),
    "xi_factorizations": (_b_xi_factorizations, 1, 2),
    "commutation_signs": (_b_commutation_signs, 1, 1),
    "trace_generator": (_b_trace_generator, 1, 1),
}


# ---------------------------------------------------------------------------
# statement execution

# binding strength of each binary operator as the parser reads it; a unary
# minus (_UNARY) binds tighter still, and atoms tightest
_BINOP_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "^": 3}
_UNARY = 4


def _precedence(ast):
    if ast[0] == "binop":
        return _BINOP_PRECEDENCE[ast[1]]
    if ast[0] == "neg":
        return _UNARY
    return _UNARY + 1


def _operand(ast, least):
    """unparse(ast), parenthesized when it binds looser than `least`."""
    text = unparse(ast)
    return "(%s)" % text if _precedence(ast) < least else text


def unparse(ast):
    """Source text that parses back to ast: parentheses appear only where
    the precedence (sum < product < power < unary minus) needs them.  + - *
    associate to the left, and a power takes unary operands."""
    kind = ast[0]
    if kind == "int":
        return str(ast[1])
    if kind == "name":
        return ast[1]
    if kind == "neg":
        return "-" + _operand(ast[1], _UNARY)
    if kind == "binop":
        op = ast[1]
        if op == "^":
            left, right = _UNARY, _UNARY
        else:
            left, right = _BINOP_PRECEDENCE[op], _BINOP_PRECEDENCE[op] + 1
        return "%s %s %s" % (_operand(ast[2], left), op, _operand(ast[3], right))
    if kind == "list":
        return "[" + ", ".join(unparse(a) for a in ast[1]) + "]"
    if kind == "call":
        return "%s(%s)" % (ast[1], ", ".join(unparse(a) for a in ast[2]))
    raise ParseError("cannot print %r" % (ast,))


def unparse_statement(stmt):
    kind = stmt[0]
    if kind == "ring":
        _k, name, p, vars_, polys = stmt
        s = "ring %s = Fp(%d)[%s]" % (name, p, ",".join(vars_))
        if polys:
            s += " / (%s)" % ", ".join(unparse(a) for a in polys)
        return s + ";"
    if kind == "let":
        return "let %s = %s;" % (stmt[1], unparse(stmt[2]))
    if kind == "set":
        return "set %s = %d;" % (stmt[1], stmt[2])
    return "%s %s;" % (kind, unparse(stmt[1]))


def execute(session, stmt):
    """Dispatch one parsed statement; returns a Report."""
    echo = unparse_statement(stmt)
    try:
        kind = stmt[0]
        if kind == "ring":
            _k, name, p, vars_, poly_asts = stmt
            base = PolyRing(p, tuple(vars_))
            if poly_asts:
                polys = [eval_poly(session, a, base) for a in poly_asts]
                ring = QuotientRing(base, polys)
            else:
                ring = base
            session.bind(name, ring)
            report = Report(echo, "ok", serialize(ring))
        elif kind == "let":
            _k, name, expr = stmt
            value = Interpreter(session).eval(expr)
            session.bind(name, value)
            report = Report(echo, "ok", serialize(value))
        elif kind == "set":
            _k, dotted, value = stmt
            if dotted == "budget.degree":
                config.override(degree_budget=value)
            elif dotted == "size.cap":
                config.override(size_cap=value)
            else:
                raise SessionNameError("unknown setting %r" % dotted)
            report = Report(echo, "ok", {dotted: value})
        elif kind == "print":
            value = Interpreter(session).eval(stmt[1])
            report = Report(echo, "ok", serialize(value))
        elif kind == "check":
            value = Interpreter(session).eval(stmt[1])
            if not isinstance(value, bool):
                raise AlgebraError("check expects a certifying predicate")
            report = Report(echo, "ok", {"certified": value})
        else:
            raise ParseError("unknown statement kind %r" % kind)
    except AlgebraError as exc:
        report = Report(echo, "error", error_kind=exc.kind, message=str(exc))
    except Exception as exc:  # no panics across the process boundary
        report = Report(echo, "error", error_kind="internal", message=str(exc))
    return report
