"""Every loop in src/orbitforge/ that no iterable bounds is in a ledger.

A ``while`` loop, or a ``for`` over ``itertools.count``, ends only because
of an argument made outside the loop header.  LEDGER names, for each such
loop, the cap or the argument that bounds it.  The test walks the syntax
tree of every module and fails on a loop the ledger does not list, and on a
ledger entry whose loop is gone, so a new unbounded loop cannot land
without its bound written down.  A loop is keyed by its module, the
qualified name of the function around it and its header.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "orbitforge")

LEDGER = {
    # fields.py
    "fields.NFElement.__pow__: while k":
        "k >= 0 halves each round: k.bit_length() rounds",
    "fields._pell_fundamental: while True":
        "the continued fraction of sqrt(D) meets x^2 - D*y^2 = +-1 within one period, "
        "O(sqrt(D) log D) terms; make_field caps |disc| at DISC_CAP",
    # heights.py
    "heights.canonical_height: while B / ((n - 1) * n ** k) > tol":
        "tol > 0 is checked and deg n >= 2: at most log_n(B / tol) + 1 rounds; "
        "an iterate past bit_cap ends it sooner",
    # ideals.py
    "ideals._sqrt_mod: while q % 2 == 0":
        "q = p - 1 halves each round: at most log2 p rounds",
    "ideals._sqrt_mod: while b != 1":
        "Tonelli-Shanks: the order exponent r falls each round (m < r) from at most log2 p; "
        "a non-residue raises",
    "ideals._hensel_lift: while k < prec":
        "k doubles each round up to prec: ceil(log2 prec) rounds",
    # intfactor.py
    "intfactor._jacobi: while a":
        "Euclid on (a, n): O(log n) rounds",
    "intfactor._jacobi: while a & 1 == 0":
        "a > 0 halves each round: a.bit_length() rounds",
    "intfactor._is_strong_lucas_prp: while True":
        "n is odd and not a square (checked first), so some D has Jacobi(D/n) = -1; "
        "at the latest |D| reaches n, where the Jacobi symbol is 0 and it returns",
    "intfactor.iroot: while True":
        "Newton from above: r > 0 falls each round until s >= r, from a start within "
        "a factor 2 of the root",
    "intfactor.perfect_power_base: while changed":
        "each further round takes a p-th root (p >= 2) of base >= 2: "
        "at most log2 of n.bit_length() rounds",
    "intfactor._brent_rho: while g == 1 and used < budget":
        "budget: each round spends advance >= 1 rho steps",
    "intfactor._brent_rho: while k < r and g == 1":
        "k grows by m = 128 up to r; it also breaks when the budget is spent",
    "intfactor._brent_rho: while g == 1":
        "budget: each backtrack step spends one rho step and breaks at the budget",
    "intfactor.factorize: while stack":
        "each pop finishes a piece or pushes proper factors of it, whose product is at "
        "most n: O(log n) pops; rho work is bounded by budget",
    "intfactor.strip_primes: while n % p == 0":
        "n != 0 is checked and p >= 2: at most log2 |n| rounds",
    "intfactor._divide_out: while a % p == 0":
        "p squares each round while dividing a != 0 (both callers pass values >= 2): "
        "at most log2 log2 |a| + 1 rounds",
    "intfactor.multiplicative_dependence: while True":
        "a = b^k * c with k >= 1, so the next pair's larger value b is at most a / 2 "
        "(or c = 1 ends it): at most log2 max(|x|, |y|) rounds",
    # polynomials.py
    "polynomials.Polynomial.__init__: while len(cs) > 1 and cs[-1].is_zero()":
        "pops one coefficient each round: at most len(coeffs) - 1 rounds",
    "polynomials.Polynomial.peeled: while True":
        "each round that does not break divides g by x - q, lowering its degree; a "
        "nonzero constant g leaves a nonzero remainder and breaks: at most deg f + 1 rounds",
    "polynomials._divmod_poly: while len(r) - 1 >= d and r[-1] != 0":
        "each round cancels the leading term of r: at most deg num - deg den + 1 rounds",
    "polynomials._divmod_poly: while len(r) > 1 and r[-1] == 0":
        "pops one coefficient each round: at most len(r) - 1 rounds",
    "polynomials.poly_gcd: while b[-1] != 0":
        "Euclid: b is trimmed, so it ends in 0 only as the zero polynomial, and deg b "
        "falls each round: at most deg b + 1 rounds",
    "polynomials._rational_roots: for p in filter(is_prime, itertools.count(d + 1))":
        "G is squarefree, so disc(G) != 0: only the primes dividing disc(G) are skipped",
    "polynomials._rational_roots: while m <= 2 * B":
        "m = p^(2^j) with p >= 2 squares each round: at most log2 log2 (2B) + 1 rounds",
    # search.py
    "search._strip_common: while g > 1":
        "y >= 1 (the norm of a nonzero iterate away from S) falls by g >= 2 each round: "
        "at most log2 y rounds",
}


def _count_names(tree) -> tuple[set, set]:
    """Names bound to the itertools module and to itertools.count."""
    modules, counts = {"itertools"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "itertools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            counts |= {a.asname or a.name for a in node.names if a.name == "count"}
    return modules, counts


def _over_count(iterable, modules, counts) -> bool:
    for node in ast.walk(iterable):
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in counts:
                return True
            if (isinstance(fn, ast.Attribute) and fn.attr == "count"
                    and isinstance(fn.value, ast.Name) and fn.value.id in modules):
                return True
    return False


def _unbounded_loops(module: str, tree) -> list[str]:
    modules, counts = _count_names(tree)
    keys = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            where = ".".join([module] + scope)
            if isinstance(child, ast.While):
                keys.append(f"{where}: while {ast.unparse(child.test)}")
            elif isinstance(child, (ast.For, ast.AsyncFor, ast.comprehension)) and _over_count(
                child.iter, modules, counts
            ):
                keys.append(f"{where}: for {ast.unparse(child.target)} in {ast.unparse(child.iter)}")
            visit(child, inner)

    visit(tree, [])
    return keys


def test_every_unbounded_loop_is_in_the_ledger():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                found += _unbounded_loops(name[:-3], ast.parse(fh.read()))
    assert len(found) == len(set(found)), "two loops share a key: make their headers differ"
    missing = sorted(set(found) - set(LEDGER))
    gone = sorted(set(LEDGER) - set(found))
    assert not missing, "loops with no ledger entry naming their bound:\n" + "\n".join(missing)
    assert not gone, "ledger entries whose loop is gone:\n" + "\n".join(gone)
    assert all(bound.strip() for bound in LEDGER.values())


def test_the_walker_sees_each_loop_form():
    tree = ast.parse(
        "import itertools as it\nfrom itertools import count as c\n"
        "def f():\n    while x:\n        pass\n    for i in it.count():\n        pass\n"
        "    for j in filter(p, c(3)):\n        pass\n    for k in range(3):\n        pass\n"
        "class A:\n    def g(self):\n        return [q for q in it.count() if q]\n"
    )
    assert _unbounded_loops("m", tree) == [
        "m.f: while x",
        "m.f: for i in it.count()",
        "m.f: for j in filter(p, c(3))",
        "m.A.g: for q in it.count()",
    ]
