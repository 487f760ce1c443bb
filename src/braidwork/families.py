"""Parameterized plane polynomial families and their branch points.

A family is a fiber polynomial in y over the x-line, either
y^3 - 3 p(x, t) y + 2 q(x, t) or y^2 + q(x, t), with p and q given as
coefficient arrays in x whose entries are polynomial expressions in named
parameters.  The branch points at a parameter value are the roots in x of
p^3 - q^2 (cubic fibers) or of q (quadratic fibers); a configuration with
a near-double root is flagged as degenerate, never silently returned.

A coefficient entry is a number, an ``[re, im]`` pair or a string.  A
string is a polynomial in the parameters: numeric literals, ``I`` for the
imaginary unit, parameter names, unary ``+``/``-`` and binary ``+ - *``;
``/`` only by a subexpression free of parameters, ``**`` only to an
integer literal from 0 to ``MAX_EXPONENT``, and at most ``MAX_NESTING``
operators deep.  ``compile_coefficient`` reads the syntax tree of the
string and builds an evaluator from it; the text itself is never run,
and anything outside this grammar raises
``ValueError("coefficient '<text>': <reason>")``.  ``to_json`` echoes
each entry's text: strings as given, numbers as ``str(x)`` and pairs as
``str(complex(re, im))``, which read back to the same values.

Branch points are labeled by increasing argument starting from the point
closest to 1, matching the labeling used by all catalogued computations.

Every root solve takes one path, ``solve_roots``, one coefficient row
at a time.  The row passes the one solvable-row rule (``_solvable``);
the companion step (``_companion_roots``) finds its roots with one
``eigvals`` call on its companion matrix; and ``refine_roots``, the one
Newton loop, which tracker trials also call, polishes them.  There is no
unpolished mode.

The companion step is the one job numpy does in the package, and
``_companion_roots`` the one function that names it.  The polynomials
are small (degree 2 to 6 in the catalogued loops), where a numpy call
costs more than the arithmetic it does, so everything else works on
lists of Python complex numbers: coefficients, p^3 - q^2
(``_product``, a loop over the pairs of entries), the one solvable-row
rule (``_solvable``), ``refine_roots`` (a Horner loop per root), the
roots every solve returns, and the one collision test
(``min_pairwise_distance``, a loop over the pairs).  Moduli are read with
Python's ``abs``, and again through ``_modulus`` on the rare overflow.
CPython's complex arithmetic is reached by neither numpy's CPU
dispatch nor the BLAS kernel that OpenBLAS picks at run time.
``branch_roots`` takes a sequence of parameter points in input order:
at each it evaluates the branch coefficients, solves them and tests the
roots for a collision, so the first failing point raises.  It is the
path of ``branch_points`` and the geometry grids, and of the loop
vertices the tracker cannot certify with ``_corrections``' inclusion
discs from the roots it holds.
"""

from __future__ import annotations

import ast
import cmath
import dataclasses
import math
import operator
from typing import Callable, Iterable, Sequence

import numpy as np

from .words import json_field, json_value

COLLISION_TOL = 1e-8  # branch points closer than this are a collision
LEAD_TOL = 1e-13  # a leading coefficient below this times the largest has vanished
RESIDUAL_TOL = 1e-12  # Newton converges when every relative residual is below it
NEWTON_STEPS = 24  # Newton iterations before refinement gives up
MAX_EXPONENT = 64
MAX_NESTING = 100
MAX_X_DEGREE = 64  # largest x-degree k of a family; covers every catalogued and benchmarked k

_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}


class DegenerateConfigurationError(RuntimeError):
    """A branch configuration has a (near-)multiple point."""


def complex_from_json(value, name: str) -> complex:
    """A finite complex scalar written in JSON as a number or an ``[re, im]``
    pair of them, each read by ``words.json_value`` (a boolean or a string
    is no number); otherwise ValueError naming it ``name``."""
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0)
    try:
        return complex(*(json_value(x, float, name) for x in parts))
    except ValueError:
        raise ValueError(
            f"{name} must be a finite number or an [re, im] pair, got {value!r:.40}") from None


def _entry_text(entry) -> str:
    if isinstance(entry, str):
        return entry
    if isinstance(entry, (int, float, complex)):
        return str(entry)
    try:
        return str(complex_from_json(entry, "a coefficient"))
    except ValueError:
        raise ValueError(
            f"coefficient '{entry!r}': not a string, a number or an [re, im] pair"
        ) from None


def compile_coefficient(
    text: str, params: Sequence[str]
) -> complex | Callable[[Sequence[complex]], complex]:
    """The polynomial ``text`` in ``params``: its value if it has no
    parameter, else a function of the parameter values, given as a
    sequence in the order of ``params``.

    Constant subexpressions are folded here; the rest becomes closures
    applying the operators of the text in its own order.
    """
    def fail(reason: str) -> ValueError:
        return ValueError(f"coefficient '{text}': {reason}")

    def constant(value):
        try:
            finite = cmath.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise fail("a constant is outside the floating-point range")
        return value

    index = {name: i for i, name in enumerate(params)}

    def build(node, depth=0):
        """A folded constant, or a function of the parameter values."""
        if depth > MAX_NESTING:
            raise fail(f"nested more than {MAX_NESTING} operators deep")
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float, complex):
                raise fail(f"{node.value!r} is not a number")
            return constant(node.value)
        if isinstance(node, ast.Name):
            if node.id == "I":
                return 1j
            if node.id not in index:
                raise fail(f"unknown name {node.id!r}")
            return operator.itemgetter(index[node.id])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            operand = build(node.operand, depth + 1)
            if isinstance(node.op, ast.UAdd):
                return operand
            return (lambda v: -operand(v)) if callable(operand) else -operand
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            op = _OPERATORS[type(node.op)]
            if isinstance(node.op, ast.Pow) and not (
                isinstance(node.right, ast.Constant) and type(node.right.value) is int
                and 0 <= node.right.value <= MAX_EXPONENT
            ):
                raise fail(f"an exponent must be an integer literal from 0 to {MAX_EXPONENT}")
            left, right = build(node.left, depth + 1), build(node.right, depth + 1)
            if isinstance(node.op, ast.Div) and callable(right):
                raise fail("division by an expression in the parameters")
            if isinstance(node.op, ast.Div) and right == 0:
                raise fail("division by zero")
            if callable(left) and callable(right):
                return lambda v: op(left(v), right(v))
            if callable(left):
                return lambda v: op(left(v), right)
            if callable(right):
                return lambda v: op(left, right(v))
            try:
                return constant(op(left, right))
            except OverflowError:  # float and complex powers raise instead of giving inf
                return constant(math.inf)
        raise fail(f"{type(getattr(node, 'op', node)).__name__} is not allowed")

    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise fail(f"not an expression ({exc})") from None
    except (RecursionError, MemoryError):  # how the parser reports very deep nesting
        raise fail(f"nested more than {MAX_NESTING} operators deep") from None
    return build(tree.body)


class WeierstrassFamily:
    """A plane polynomial family with named complex parameters."""

    def __init__(
        self,
        y_degree: int,
        params: Iterable[str],
        p_coeffs: Iterable,
        q_coeffs: Iterable,
        catalogue_id: str | None = None,
    ):
        if y_degree not in (2, 3):
            raise ValueError("fiber degree must be 2 or 3")
        self.y_degree = y_degree
        self.params = tuple(params)
        for i, name in enumerate(self.params):
            if not isinstance(name, str) or not name.isidentifier() or name == "I":
                raise ValueError(f"parameter {name!r}: names are identifiers other than I")
            if name in self.params[:i]:
                raise ValueError(f"params names {name!r} twice")
        self.catalogue_id = catalogue_id
        self._p_texts = tuple(_entry_text(c) for c in p_coeffs)
        self._q_texts = tuple(_entry_text(c) for c in q_coeffs)
        for field, texts in (("p_coeffs", self._p_texts), ("q_coeffs", self._q_texts)):
            if len(texts) > MAX_X_DEGREE + 1:
                raise ValueError(f"{field} has {len(texts)} entries; the x-degree is at "
                                 f"most {MAX_X_DEGREE}, so at most {MAX_X_DEGREE + 1}")
        if y_degree == 2 and self._p_texts:
            raise ValueError("quadratic fibers take no p coefficients")
        if not self._q_texts:
            raise ValueError("q coefficients are required")
        self._p = self._compiled(self._p_texts or ("0",))  # p = 0 without p entries
        self._q = self._compiled(self._q_texts)
        self._p_cube: tuple | None = None  # p^3, kept once computed if p has no parameter

    def _compiled(self, texts: tuple[str, ...]) -> tuple[list, tuple]:
        """Entries without parameters as a template list of complex
        numbers, the others as (index, function) slots to fill in."""
        entries = [compile_coefficient(text, self.params) for text in texts]
        template = [0j if callable(e) else complex(e) for e in entries]
        return template, tuple((i, e) for i, e in enumerate(entries) if callable(e))

    @staticmethod
    def _list(compiled: tuple[list, tuple], values: Sequence[complex]) -> list[complex]:
        template, slots = compiled
        out = list(template)
        for i, f in slots:
            out[i] = f(values)
        return out

    def _values(self, t: dict[str, complex]) -> list[complex]:
        try:
            return [complex(t[name]) for name in self.params]
        except KeyError:
            missing = [name for name in self.params if name not in t]
            raise ValueError(f"missing parameter values: {missing}") from None

    def check_names(self, names: Iterable[str], owner: str) -> None:
        """ValueError if ``owner`` names a parameter the family does not have."""
        unknown = [name for name in names if name not in self.params]
        if unknown:
            raise ValueError(f"{owner} names parameters the family does not have: {unknown}")

    def p_at(self, t: dict[str, complex]) -> list[complex]:
        """Coefficients in x (low to high) of p at parameter t; [0j]
        without p entries."""
        return self._list(self._p, self._values(t))

    def q_at(self, t: dict[str, complex]) -> list[complex]:
        return self._list(self._q, self._values(t))

    def branch_coeffs(self, t: dict[str, complex]) -> list[complex]:
        """The branch coefficients at parameter t: ``branch_coeffs_of``
        its values."""
        return self.branch_coeffs_of(self._values(t))

    def branch_coeffs_of(self, values: Sequence[complex]) -> list[complex]:
        """Coefficients in x (low to high) whose roots are the branch
        points, at the parameter values ``values`` (Python complex numbers
        in the order of ``params``).

        For cubic fibers, p^3 - q^2 by ``_product``, with trailing exact
        zeros trimmed as numpy's ``polysub`` trims them, so a degree drop
        shows as a shorter list.  When p has no parameter (the base and
        ray families), p^3 is computed at the first call and kept as a
        tuple; every call returns a fresh list."""
        q = self._list(self._q, values)
        if self.y_degree == 2:
            return q
        p3 = self._p_cube
        if p3 is None:
            p = _trim(self._list(self._p, values))
            p3 = tuple(_trim(_product(_product(p, p), p)))
            if not self._p[1]:  # no parameter slot: the same p^3 at every t
                self._p_cube = p3
        q = _trim(q)
        q2 = _trim(_product(q, q))
        # numpy's polysub: the common entries subtracted, then the longer's
        # tail, negated if it is q^2's
        n = min(len(p3), len(q2))
        return _trim([a - b for a, b in zip(p3, q2)] + list(p3[n:]) + [-b for b in q2[n:]])

    def fiber_coeffs(self, x: complex, t: dict[str, complex]) -> list[complex]:
        """Coefficients in y (low to high) of the fiber polynomial over x."""
        q = _horner(self.q_at(t), x)
        if self.y_degree == 2:
            return [q, 0j, 1 + 0j]
        p = _horner(self.p_at(t), x)
        return [2 * q, -3 * p, 0j, 1 + 0j]

    def to_json(self) -> dict:
        return {
            "catalogue_id": self.catalogue_id,
            "y_degree": self.y_degree,
            "params": list(self.params),
            "p_coeffs": list(self._p_texts),
            "q_coeffs": list(self._q_texts),
        }

    @staticmethod
    def from_json(data: dict) -> "WeierstrassFamily":
        json_value(data, dict, "a family spec")
        catalogue_id = data.get("catalogue_id")
        if catalogue_id is not None:  # to_json writes null for a family without one
            json_value(catalogue_id, str, "family spec field 'catalogue_id'")
        if catalogue_id and "q_coeffs" not in data:
            k = json_field(data, "k", int, "family spec", 1)
            return catalogue_family(catalogue_id, k)
        return WeierstrassFamily(
            y_degree=json_field(data, "y_degree", int, "family spec"),
            params=json_field(data, "params", list, "family spec", ()),
            p_coeffs=json_field(data, "p_coeffs", list, "family spec", ()),
            q_coeffs=json_field(data, "q_coeffs", list, "family spec"),
            catalogue_id=catalogue_id,
        )


def _trim(c: list) -> list:
    """``c`` with its trailing exact zeros removed, keeping at least one
    entry (numpy's ``trimseq``)."""
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _product(a: Sequence[complex], b: Sequence[complex]) -> list[complex]:
    """Coefficients (low to high) of the product of two polynomials: entry
    n is 0j plus each a[i] * b[n - i] in turn, by increasing i."""
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _horner(c: Sequence[complex], x: complex) -> complex:
    """The polynomial with coefficients ``c`` (low to high) at ``x``, with
    the operations of numpy's ``polyval`` in its order: ``c[-1] + x*0``,
    then ``c[i] + v*x`` down to ``c[0]``."""
    v = c[-1] + x * 0
    for i in range(len(c) - 2, -1, -1):
        v = c[i] + v * x
    return v


def refine_roots(coeffs: Sequence[complex], roots: Iterable[complex]) -> list[complex]:
    """Newton-polish roots of the polynomial with the given coefficients
    (low to high), both Python complex numbers, as ``tolist()`` gives them.

    Residuals are measured relative to sum_i |c_i| |z|^i, so the criterion
    is scale invariant.  All roots step together until every relative
    residual is below ``RESIDUAL_TOL``; a root where |f'| < 1e-300 holds
    still if its residual passes, and raises if it fails.  Raises if a
    root fails to converge within ``NEWTON_STEPS`` iterations.

    This is the package's one Newton loop (``_newton``).  It reads moduli
    with ``abs``; where one is beyond the float range ``abs`` raises, and
    the loop runs again from the start through ``_modulus``.
    """
    z = list(roots)
    try:
        return _newton(coeffs, z, abs)
    except OverflowError:
        return _newton(coeffs, z, _modulus)


def _newton(coeffs: Sequence[complex], z: list[complex],
            modulus: Callable[[complex], float]) -> list[complex]:
    """``refine_roots`` from ``z``, each modulus read by ``modulus``: one
    ``_residuals`` pass an iteration, and f' by Horner's rule from the
    products i * c_i when it steps."""
    terms = [(c, modulus(c)) for c in reversed(coeffs)]
    # f' from the products i * c_i, top first; 0 for a constant
    top, *rest = [i * coeffs[i] for i in range(len(coeffs) - 1, 0, -1)] or [0j]
    for _ in range(NEWTON_STEPS):
        vals, rels, converged = _residuals(terms, z, modulus)
        if converged:
            return z
        stepped = []
        for x, v, rel in zip(z, vals, rels):
            d = top
            for c in rest:
                d = d * x + c
            if not modulus(d) < 1e-300:  # a NaN f' steps too, to NaN
                stepped.append(x - v / d)
            elif rel >= RESIDUAL_TOL:
                raise DegenerateConfigurationError("Newton step hit a critical point")
            else:
                stepped.append(x)
        z = stepped
    raise DegenerateConfigurationError("root refinement did not converge")


def _residuals(terms: list[tuple[complex, float]], z: list[complex],
               modulus: Callable[[complex], float]) -> tuple[list[complex], list[float], bool]:
    """One residual pass of ``refine_roots``: the polynomial at each root,
    its relative residual |f(z)| / (sum_i |c_i| |z|^i + 1e-300), and
    whether every residual is below ``RESIDUAL_TOL`` (a NaN one is not).
    ``terms`` are the pairs (c_i, |c_i|) from the top coefficient down.

    One Horner loop per root gives the value, in numpy ``polyval``'s order
    (c_n, then c_i + v*z), and the scale, a real Horner loop in |z|."""
    (top, size_top), rest = terms[0], terms[1:]
    vals, rels, converged = [], [], True
    for x in z:
        v, s, a = top, size_top, modulus(x)
        for c, size in rest:
            v = v * x + c
            s = s * a + size
        rel = modulus(v) / (s + 1e-300)
        converged = converged and rel < RESIDUAL_TOL
        vals.append(v)
        rels.append(rel)
    return vals, rels, converged


def _moduli(values: Sequence[complex]) -> list[float]:
    """|z| of each of ``values`` by ``abs``, or, where that raises, the
    whole pass again by ``_modulus``."""
    try:
        return list(map(abs, values))
    except OverflowError:
        return list(map(_modulus, values))


def _modulus(z: complex) -> float:
    """|z|, and inf where that is beyond the float range (``abs`` raises)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _solvable(coeffs: Iterable) -> list[complex]:
    """``coeffs`` as a list of Python complex numbers, if ``solve_roots``
    can solve them: finite, not the zero polynomial, and with a leading
    coefficient that is neither 0 nor below ``LEAD_TOL`` times the
    largest modulus.  This is the package's one solvable-row rule."""
    coeffs = list(map(complex, coeffs))
    if not all(map(cmath.isfinite, coeffs)):
        raise ValueError("the coefficients are not finite")
    sizes = _moduli(coeffs)
    largest = max(sizes, default=0.0)
    if largest == 0:
        raise ValueError("zero polynomial has no root set")
    top = sizes[-1]
    if top == 0 or top < LEAD_TOL * largest:
        raise DegenerateConfigurationError("leading coefficient vanished: degree dropped")
    return coeffs


def solve_roots(coeffs: Iterable) -> list[complex]:
    """The roots of ``coeffs`` (low to high): the solvable-row rule, the
    companion step and one ``refine_roots`` polish, of which the first to
    fail raises its error."""
    coeffs = _solvable(coeffs)
    return refine_roots(coeffs, _companion_roots(coeffs))


def _companion_roots(coeffs: list[complex]) -> list[complex]:
    """``numpy.polynomial.polynomial.polyroots`` of the solvable row
    ``coeffs``, as a list, from one ``eigvals`` call on its companion
    matrix, built and sorted as ``polycompanion`` and ``polyroots`` build
    and sort it."""
    n = len(coeffs)
    if n < 2:
        return []
    row = np.array(coeffs, dtype=complex)
    if n == 2:  # polyroots' one root, with no matrix
        return (-row[:1] / row[1:]).tolist()
    d = n - 1
    mat = np.zeros((d, d), dtype=complex)
    mat.reshape(-1)[d::d + 1] = 1
    mat[:, -1] -= row[:-1] / row[-1]
    roots = np.linalg.eigvals(mat)
    roots.sort()
    return roots.tolist()


def min_pairwise_distance(points: Sequence[complex]) -> float:
    """The smallest distance between two of ``points``, by a loop over
    the pairs; inf for fewer than two points.  This is the package's one
    collision test."""
    return min(_moduli([a - b for i, a in enumerate(points) for b in points[i + 1:]]),
               default=math.inf)


def _corrections(coeffs: Sequence[complex], z: Sequence[complex]) -> list[complex]:
    """The Weierstrass corrections w_j = p(z_j) / (lead * prod_{k != j}
    (z_j - z_k)) of m distinct approximations ``z`` to the roots of
    ``coeffs`` (low to high, degree m).  If the discs D(z_j, m |w_j|) are
    pairwise disjoint, each holds exactly one root (Braess and Hadeler,
    Numer. Math. 21 (1973); Carstensen, Numer. Math. 59 (1991)): they hold
    the Gerschgorin discs of a matrix whose eigenvalues are the roots.
    This is the package's one root certificate."""
    lead = coeffs[-1]
    out = []
    for j, x in enumerate(z):
        v, d = lead, lead
        for c in coeffs[-2::-1]:
            v = v * x + c
        for k, y in enumerate(z):
            if k != j:
                d *= x - y
        out.append(v / d)
    return out


@dataclasses.dataclass(frozen=True)
class BranchConfiguration:
    """Branch points in label order: x_1 is nearest to 1, the rest follow
    by increasing argument measured from x_1's ray."""

    points: tuple[complex, ...]

    def __len__(self) -> int:
        return len(self.points)

    def point(self, label: int) -> complex:
        if not 1 <= label <= len(self.points):
            raise ValueError(f"branch point label {label} is not in 1..{len(self.points)}")
        return self.points[label - 1]

    def min_gap(self) -> float:
        return min_pairwise_distance(self.points)


def label_points(points: Iterable[complex]) -> tuple[complex, ...]:
    pts = list(points)
    anchor = min(pts, key=lambda z: abs(z - 1))
    base_arg = cmath.phase(anchor)

    def key(z: complex):
        rel = (cmath.phase(z) - base_arg) % (2 * math.pi)
        if rel > 2 * math.pi - 1e-9:
            rel = 0.0
        return (rel, abs(z))

    return tuple(sorted(pts, key=key))


def branch_roots(family: WeierstrassFamily,
                 points: Sequence[dict[str, complex]]) -> list[list[complex]]:
    """All branch points at each parameter point, unlabeled, one point
    after another in input order, so of several failing points the first
    raises.  A point whose coefficients cannot be evaluated raises, and
    so does a degenerate configuration (a pair closer than
    ``COLLISION_TOL``), a point with no branch points or one with branch
    coefficients that are not finite."""
    out = []
    for t in points:
        row = family.branch_coeffs(t)
        try:
            roots = solve_roots(row)
        except ValueError:
            # the rule refuses a row with an inf or a NaN; the error names the point
            if not all(map(cmath.isfinite, row)):
                raise ValueError(
                    f"the branch coefficients are not finite at parameters {t}") from None
            raise
        if not roots:
            raise ValueError(f"the family has no branch points at these parameters {t}")
        if min_pairwise_distance(roots) < COLLISION_TOL:
            raise DegenerateConfigurationError(f"branch points collide at parameters {t}")
        out.append(roots)
    return out


def branch_points(family: WeierstrassFamily, t: dict[str, complex]) -> BranchConfiguration:
    """``branch_roots`` at parameter t, labeled."""
    (roots,) = branch_roots(family, [t])
    return BranchConfiguration(label_points(roots))


# ---------------------------------------------------------------------------
# Catalogued families


def _monomial_q(k: int, low: list) -> list:
    """Coefficient array of x^k plus the entries ``low`` below it, constant first."""
    if len(low) > k:
        raise ValueError(f"cannot merge {len(low)} lower terms into x^{k}")
    return low + [0] * (k - len(low)) + [1]


def merge_point(k: int) -> complex:
    """exp(i pi / 2k), the root of x^k = i of least positive argument,
    where the merge families put their double branch point."""
    return cmath.exp(1j * math.pi / (2 * k))


def catalogue_family(name: str, k: int = 1) -> WeierstrassFamily:
    """Families used by the catalogued monodromy computations, with the
    parameter values where their branch points collide.

    cusp          y^3 - 3 lam y + 2 x                      branch: lam^3 = x^2
                  degenerate at lam = 0
    tangency      y^2 - x^2 + lam                          branch: x^2 = lam
                  degenerate at lam = 0
    base          y^3 - 3 y + 2 x^k                        branch: x^2k = 1
                  no parameters
    ray           y^3 - 3 y + 2 (x^k - lam - k mu x)       ray-confined points
                  degenerate where critical values of x^k - k mu x meet
                  lam + 1 or lam - 1
    circle        y^3 - 3 (1 - lam) y + 2 (x^k - i lam)    circle-confined points
                  degenerate at lam = 1
    cusp_merge    y^3 + mu y + 2 (x^k - i - mu)            local cusp at each root
                  degenerate at mu = 0                     of x^k = i
    double_point  y^3 - 3 eps (x - alpha) y + 2 (x^k - i)  single double branch point
                  degenerate at eps = 0 and on a finite bad set
    pair_merge    p = 1 - t1 + t1 s0 (x - alpha), q = x^k - i t2 - w
                  degenerate at t1 = 1, w = 0 (double point at alpha)
    tame          y^2 - x^k + k x + lam  (k >= 2)          full braid group on k points
                  y^2 - x + lam          (k = 1)
                  degenerate where lam is a critical value of x^k - k x

    The x-degree k runs from 1 to ``MAX_X_DEGREE``.
    """
    if not 1 <= k <= MAX_X_DEGREE:
        raise ValueError(f"x-degree k must be from 1 to {MAX_X_DEGREE}, got {k}")
    if name == "cusp":
        return WeierstrassFamily(3, ("lam",), ("lam",), (0, 1), catalogue_id="cusp")
    if name == "tangency":
        return WeierstrassFamily(2, ("lam",), (), ("lam", 0, -1), catalogue_id="tangency")
    if name == "base":
        return WeierstrassFamily(3, (), (1,), _monomial_q(k, []), catalogue_id=f"base:{k}")
    if name == "ray":
        return WeierstrassFamily(3, ("lam", "mu"), (1,), _monomial_q(k, ["-lam", f"-{k}*mu"]),
                                 catalogue_id=f"ray:{k}")
    if name == "circle":
        return WeierstrassFamily(3, ("lam",), ("1 - lam",), _monomial_q(k, ["-I*lam"]),
                                 catalogue_id=f"circle:{k}")
    if name == "cusp_merge":
        return WeierstrassFamily(3, ("mu",), ("-mu/3",), _monomial_q(k, ["-mu - I"]),
                                 catalogue_id=f"cusp_merge:{k}")
    if name == "double_point":
        return WeierstrassFamily(3, ("eps", "alpha"), ("-alpha*eps", "eps"),
                                 _monomial_q(k, ["-I"]), catalogue_id=f"double_point:{k}")
    if name == "pair_merge":
        return WeierstrassFamily(
            3, ("t1", "t2", "w", "s0", "alpha"),
            ("-alpha*s0*t1 - t1 + 1", "s0*t1"),
            _monomial_q(k, ["-I*t2 - w"]),
            catalogue_id=f"pair_merge:{k}",
        )
    if name == "tame":
        coeffs = [0] * (k + 1)
        coeffs[0] = "lam"
        coeffs[1] = k
        coeffs[k] = -1
        return WeierstrassFamily(2, ("lam",), (), coeffs, catalogue_id=f"tame:{k}")
    raise ValueError(f"unknown catalogue family {name!r}")
