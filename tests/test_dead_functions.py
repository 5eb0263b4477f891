"""Every top-level function and every method in src/fpduality is
referenced from the package itself: called, imported or read as an
attribute somewhere other than its own body.  An export is not a use: the
imports of __init__.py keep no name alive.  A read through self or cls in
a method of a class, or through the class by name, counts for that
class's methods of the name, its bases' and, through self or cls, its
subclasses'; a read of the name on any other object counts for every
method of that name, so the scan can miss a dead
method but never flags a live one.  Special methods (__init__, __eq__,
...) are called by the language and are not scanned.  A function or method that only the
tests or the benchmark reach is dead code in the library: it moves into
the test that calls it, or goes.  ALLOWED names the exceptions, methods as
Class.method, each with its reason; an exception that gains a caller or
disappears must leave the list.

Two more scans find state and inputs that nothing reads.  Every attribute
that the package stores (obj.name = ...) is loaded by that name, on any
object, somewhere in the package, the tests or the benchmark; the tests
count as readers, since a report's fields are how a test reads its result.
Every parameter of a function or lambda in the package is loaded in its
body, except self, cls and names that start with an underscore.  Neither
scan has exceptions.

No field is bolted onto an object from outside its owner: every attribute
that the package stores on an object other than self is stored in a
method of a class that declares that field, by storing it on self in one
of its methods or assigning it in its class body.  A free function stores
no attribute at all.  And every import, in the package (bar the exports
of __init__.py) and in each test module, is loaded somewhere in its
module.

One operation has one spelling: no function or non-special method is an
alias, whose body, docstring aside, is a single return of a call that
passes its own parameters through unchanged, to a name the package
defines or to a method of one of its parameters with that parameter left
out.  ALIASES names the exceptions, each with its reason."""

import ast
import pathlib

import fpduality

SOURCES = sorted(pathlib.Path(fpduality.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]
READERS = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))

ALLOWED = {
    "solve_in_span": "benchmark/tracer.py wraps it by name; it goes once the tracer follows SpanSolver.solve",
    "mod_cohomology": "benchmark/tracer.py wraps it by name; it goes once the tracer follows cohomology",
    "lift_map_of_resolutions": "benchmark/tracer.py wraps it by name; it goes once the tracer follows lift_chain_map",
    "regrouping_map": "the verified change of generators F^{e+1}_* R -> F^e_*(F_* R) that an iterated pushforward is to be built by",
    "PolyRing.from_terms": "benchmark/workloads.py builds polynomials with it",
    "upper_shriek_finite": "f^flat along a finite map, which the main theorem for finite maps is to be built on",
    "upper_shriek_smooth": "f^! along a polynomial map, the smooth leg of the main theorem for finite type maps",
    "ideal_quotient": "the colon ideal of Fedder's criterion, the ideal-level model of Gorenstein duality, is to call it",
    "frobenius_decompose": "benchmark/workloads.py calls it",
    "kernel_cokernel": "benchmark/tracer.py wraps it by name",
}

ALIASES = {
    "hom_module": "benchmark/tracer.py wraps it by name",
    "lift_map_of_resolutions": "benchmark/tracer.py wraps it by name",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names_read(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _is_special(name):
    return name.startswith("__") and name.endswith("__")


def _unreferenced(texts, exports=()):
    """The top-level functions (by name) and methods (as Class.method) of
    the module texts that no statement other than their own definition
    reads.  The export texts count as read only outside their imports: an
    export is not a use.

    A read is resolved by its owner where the text names one: self.m or
    cls.m in a method of class C reads the methods m of C, of its bases
    and of its subclasses, and C.m those of C and its bases, among the
    classes the texts define.  Any other read of a name, on any other
    object, bare or imported, reads every function and method of that
    name."""
    trees = [ast.parse(text) for text in texts]
    trees += [
        ast.Module([node for node in ast.parse(text).body if not isinstance(node, (ast.Import, ast.ImportFrom))], [])
        for text in exports
    ]
    classes = {node.name: node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    bases = {name: {b.id for b in node.bases if isinstance(b, ast.Name) and b.id in classes} for name, node in classes.items()}

    def ancestors(name):
        seen, todo = set(), [name]
        while todo:
            c = todo.pop()
            if c not in seen:
                seen.add(c)
                todo.extend(bases[c])
        return seen

    lineage = {name: ancestors(name) for name in classes}
    defined = {}  # reported name -> (owner class or None, name read)
    read = set()  # names read on an object the text does not name
    owned = set()  # (class, name) read through self, cls or the class

    def collect(node, owner, own=None):
        # own: the name of the definition node belongs to; a read of it
        # that may be a recursive call is not a caller
        for sub in ast.walk(node):
            family = None
            if isinstance(sub, ast.Attribute):
                name = sub.attr
                receiver = sub.value.id if isinstance(sub.value, ast.Name) else None
                if owner and receiver in ("self", "cls"):
                    family = lineage[owner] | {c for c, line in lineage.items() if owner in line}
                elif receiver in classes:
                    family = lineage[receiver]
            elif isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.alias):
                name = sub.name
            else:
                continue
            if name == own and (family is None or owner in family):
                continue
            if family is None:
                read.add(name)
            else:
                owned.update((c, name) for c in family)

    for tree in trees:
        for node in tree.body:
            if isinstance(node, _FUNCTIONS):
                defined[node.name] = (None, node.name)
                collect(node, None, node.name)
            elif isinstance(node, ast.ClassDef):
                for part in node.bases + node.keywords + node.decorator_list:
                    collect(part, None)
                for stmt in node.body:
                    if isinstance(stmt, _FUNCTIONS) and not _is_special(stmt.name):
                        defined["%s.%s" % (node.name, stmt.name)] = (node.name, stmt.name)
                        collect(stmt, node.name, stmt.name)
                    else:
                        collect(stmt, node.name)
            else:
                collect(node, None)
    return {shown for shown, (owner, name) in defined.items() if name not in read and (owner, name) not in owned}


def _unread_attributes(stores, readers):
    """The attribute names that the store texts assign and that no reader
    text loads, on any object.  An augmented assignment only stores."""
    stored = set()
    for text in stores:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.add(node.attr)
    loaded = set()
    for text in readers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return stored - loaded


def _unread_parameters(texts):
    """function(parameter) for each parameter of a function or lambda in
    the texts that its body, nested functions included, never loads; self,
    cls and names starting with an underscore are exempt."""
    unread = set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, _FUNCTIONS + (ast.Lambda,)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {
                sub.id
                for stmt in body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            for a in params:
                if a.arg not in loaded and a.arg not in ("self", "cls") and not a.arg.startswith("_"):
                    unread.add("%s(%s)" % (getattr(node, "name", "lambda"), a.arg))
    return unread


def _is_store(node):
    return isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)


def _is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def _declared(cls):
    """The fields a class declares: assigned in its class body, or stored
    on self in one of its methods, nested functions included."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, _FUNCTIONS):
            names |= {node.attr for node in ast.walk(stmt) if _is_store(node) and _is_self(node.value)}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}
    return names


def _bolted_on(text):
    """The attribute stores of a module's text that no owner makes, each as
    "where.name", where being the enclosing Class.method, function or
    class body.  A store sits with its owner when it is in a method of a
    class, nested functions included, and stores on self or a field that
    class declares (_declared).  A free function or a class body stores
    no attribute at all."""
    bolted = set()

    def walk(node, owner, where):
        # owner: the class whose method encloses node, or None
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, _FUNCTIONS):
                    walk(stmt, node, "%s.%s" % (node.name, stmt.name))
                else:
                    walk(stmt, None, node.name)
            return
        if isinstance(node, _FUNCTIONS) and owner is None:
            where = node.name
        if _is_store(node) and not (owner and (_is_self(node.value) or node.attr in _declared(owner))):
            bolted.add("%s.%s" % (where, node.attr))
        for child in ast.iter_child_nodes(node):
            walk(child, owner, where)

    walk(ast.parse(text), None, "<module>")
    return bolted


def _forwards(fn, package):
    """Whether fn's body, docstring aside, is one return of a call of a
    name in package, or of a method of one of fn's parameters, whose
    arguments are fn's other parameters, each passed bare."""
    body = fn.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
        return False
    call = body[0].value
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
    passed = call.args + [k.value for k in call.keywords]
    if not all(isinstance(a, ast.Name) for a in passed):
        return False
    callee = call.func
    if isinstance(callee, ast.Name) and callee.id in package:
        rest = params
    elif isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name) and callee.value.id in params:
        rest = [name for name in params if name != callee.value.id]
    else:
        return False
    return sorted(a.id for a in passed) == sorted(rest)


def _aliases(texts):
    """The top-level functions (by name) and non-special methods (as
    Class.method) of the module texts that only forward their parameters
    (_forwards) to a function or class the texts define at top level, or
    to a method of a parameter."""
    trees = [ast.parse(text) for text in texts]
    package = {node.name for tree in trees for node in tree.body if isinstance(node, _FUNCTIONS + (ast.ClassDef,))}
    found = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, _FUNCTIONS):
                candidates = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                candidates = [
                    ("%s.%s" % (node.name, stmt.name), stmt)
                    for stmt in node.body
                    if isinstance(stmt, _FUNCTIONS) and not _is_special(stmt.name)
                ]
            else:
                continue
            found |= {shown for shown, fn in candidates if _forwards(fn, package)}
    return found


def _unused_imports(text):
    """The names that a module's import statements bind, function-local
    ones included, and that the module never loads."""
    tree = ast.parse(text)
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    loaded = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    return bound - loaded


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"__init__.py", "groebner.py", "modules.py", "frobenius.py", "gabber.py"} <= names


def test_scan_finds_an_unreferenced_function():
    module = (
        "from .other import imported\n"
        "def called():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def dead():\n    return called()\n"
    )
    exporter = "from .module import imported\n"
    assert _unreferenced([module, exporter]) == {"recursive", "dead"}
    assert _unreferenced([module, "x = dead.attr\n"]) == {"recursive"}


def test_scan_flags_a_function_read_only_by_an_export():
    module = "def exported():\n    return 1\ndef used():\n    return 2\n"
    exports = "from .module import exported, used\nVALUE = used()\n"
    # the export's import reads nothing; its other statements do
    assert _unreferenced([module], [exports]) == {"exported"}
    # the same import in a module of the package is a use
    assert _unreferenced([module, exports]) == set()


def test_scan_finds_an_unreferenced_method():
    module = (
        "class Base:\n    pass\n"
        "class Thing(Base):\n"
        "    size = 1\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        return self.size\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1)\n"
        "    def dead(self):\n        return 0\n"
        "    def __eq__(self, other):\n        return True\n"
    )
    assert _unreferenced([module]) == {"Thing.recursive", "Thing.dead"}
    # a read of the name on any object counts
    assert _unreferenced([module, "def f(x):\n    return x.dead()\n"]) == {"Thing.recursive", "f"}


def test_scan_resolves_reads_by_owner():
    module = (
        "class Base:\n"
        "    def hook(self):\n        return self.shared()\n"
        "    def shared(self):\n        return 0\n"
        "class Thing(Base):\n"
        "    def shared(self):\n        return 1\n"
        "    def size(self):\n        return self.hook()\n"
        "    @staticmethod\n    def make():\n        return Thing()\n"
        "class Other:\n"
        "    def size(self):\n        return 2\n"
        "    def make(self):\n        return Thing.make()\n"
        "    def hook(self):\n        return self.make()\n"
        "    def shared(self):\n        return 3\n"
    )
    # self.shared in Base reaches Thing's override but not Other's;
    # Thing.make reaches Thing.make only, and self.hook in Thing reaches
    # the inherited Base.hook but not Other.hook
    assert _unreferenced([module]) == {"Thing.size", "Other.size", "Other.hook", "Other.shared"}
    # a read on another object reaches every method of the name
    assert _unreferenced([module, "def f(x):\n    return x.size, x.shared\n"]) == {"Other.hook", "f"}


def _package_unreferenced():
    """_unreferenced over the package, __init__.py read as its exports."""
    texts = [path.read_text() for path in SOURCES if path.name != "__init__.py"]
    exports = [path.read_text() for path in SOURCES if path.name == "__init__.py"]
    return _unreferenced(texts, exports)


def test_every_function_is_referenced_from_the_package():
    assert _package_unreferenced() - set(ALLOWED) == set()


def test_exceptions_are_current():
    assert set(ALLOWED) <= _package_unreferenced()
    assert all(reason.strip() for reason in ALLOWED.values())


def test_scan_finds_an_alias():
    module = (
        "from math import gcd\n"
        "class Thing:\n"
        "    def __init__(self, n):\n        self.n = n\n"
        "    def size(self):\n        return len(self)\n"
        "    def same(self, other):\n        return other.equals(self)\n"
        "    def grow(self, k):\n        return self.add(k)\n"
        "    def __call__(self, k):\n        return self.add(k)\n"
        "def make(n, k=1):\n    \"a Thing\"\n    return Thing(k=k, n=n)\n"
        "def wrapped(x, y):\n    return helper(x, y)\n"
        "def helper(x, y):\n    return x + y\n"
        "def outside(a, b):\n    return gcd(a, b)\n"
        "def changed(a, b):\n    return helper(a, b + 1)\n"
        "def fewer(a, b):\n    return helper(a, a)\n"
        "def kept(a, b):\n    return a.combine(a, b)\n"
        "def steps(a, b):\n    c = helper(a, b)\n    return c\n"
    )
    # a forward to a package name, or to a method of a parameter that it
    # leaves out, is an alias; an outside name, a changed or repeated
    # argument, a kept receiver, a second statement and a special method
    # are not
    assert _aliases([module]) == {"Thing.same", "Thing.grow", "make", "wrapped"}


def test_no_function_is_an_alias():
    texts = [path.read_text() for path in SOURCES]
    assert _aliases(texts) - set(ALIASES) == set()


def test_alias_exceptions_are_current():
    texts = [path.read_text() for path in SOURCES]
    assert set(ALIASES) <= _aliases(texts)
    assert all(reason.strip() for reason in ALIASES.values())


def test_scan_finds_an_unread_attribute():
    module = (
        "class Thing:\n"
        "    def __init__(self, other):\n"
        "        self.used = 1\n        self.dead = 2\n        self.counter = 0\n"
        "        other.named = 3\n"
        "    def bump(self):\n        self.counter += 1\n"
    )
    reader = "def f(t):\n    return t.used, t.named\n"
    # a store is not a load, and an increment alone reads nothing
    assert _unread_attributes([module], [module, reader]) == {"dead", "counter"}
    # a test that reads a field keeps it
    assert _unread_attributes([module], [module, reader, "assert t.dead\n"]) == {"counter"}


def test_scan_finds_an_unread_parameter():
    module = (
        "def f(a, b, _c, *args, d=1, **kw):\n"
        "    def inner(x=b):\n        return x\n"
        "    a = 2\n"
        "    return inner() + len(args)\n"
        "class Thing:\n"
        "    def method(self, y):\n        return 0\n"
        "g = lambda u, v: u\n"
    )
    # a parameter only stored to, or read by no one, is unread
    assert _unread_parameters([module]) == {"f(a)", "f(d)", "f(kw)", "method(y)", "lambda(v)"}


def test_every_stored_attribute_is_read():
    stores = [path.read_text() for path in SOURCES]
    readers = [path.read_text() for path in READERS]
    assert _unread_attributes(stores, readers) == set()


def test_every_parameter_is_read():
    assert _unread_parameters([path.read_text() for path in SOURCES]) == set()


def test_scan_finds_a_bolted_on_field():
    module = (
        "class Thing:\n"
        "    size = 0\n"
        "    def __init__(self):\n        self.used = 1\n        self.a, self.b = 2, 3\n"
        "    def copy(self):\n"
        "        t = Thing()\n"
        "        def fill():\n            t.used = t.size = t.b = self.used\n"
        "        fill()\n"
        "        t.extra = 4\n"
        "        return t\n"
        "class Other:\n"
        "    tag = None\n"
        "    def __init__(self, thing):\n        thing.used = 5\n"
        "def build(other):\n"
        "    t = Thing()\n"
        "    t.used = t.size = t.b = 6\n"
        "    other.tag = 7\n"
        "    return t\n"
    )
    # a method stores, nested functions included, the fields its class
    # declares, on self, in a tuple or in the class body; a free function
    # stores none, even a field a class of the same module declares
    assert _bolted_on(module) == {
        "Thing.copy.extra",
        "Other.__init__.used",
        "build.used",
        "build.size",
        "build.b",
        "build.tag",
    }


def test_no_field_is_bolted_on():
    bolted = {path.name: _bolted_on(path.read_text()) for path in SOURCES}
    assert {name: names for name, names in bolted.items() if names} == {}


def test_scan_finds_an_unused_import():
    module = (
        "import os\n"
        "import os.path\n"
        "import json as js\n"
        "from a import b, c as d, e\n"
        "def f():\n"
        "    from g import h\n"
        "    return b, js.dumps, os.sep\n"
    )
    assert _unused_imports(module) == {"d", "e", "h"}


def test_every_test_import_is_used():
    unused = {path.name: _unused_imports(path.read_text()) for path in sorted((ROOT / "tests").glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_library_import_is_used():
    # __init__.py imports what the package exports
    unused = {path.name: _unused_imports(path.read_text()) for path in SOURCES if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
