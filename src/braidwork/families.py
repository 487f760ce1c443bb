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

A root solve is numpy's companion-matrix ``polyroots`` start polished by
Newton's method (``solve_roots``).  Many independent polynomials are
solved in one stacked pass (``solve_stack``): the rows of one length share
one ``eigvals`` call on their companion matrices and one residual test
over all their roots, chunked to at most ``STACK_ENTRIES`` complex
entries; a row whose roots fail that test is polished alone by
``refine_roots``, the one Newton loop, which tracker trials also call.
Every root and every error is bit for bit that of one ``solve_roots``
call per row; the stacked solve has no unpolished mode.  ``branch_roots``
solves a sequence of parameter points this way.

The polynomials are small (degree 2 to 6 in the catalogued loops), so a
numpy call costs more than the arithmetic it does, and the hot paths are
written to make few calls.  ``refine_roots`` tests convergence with one
``np.maximum.reduce`` of the relative residuals and critical points with
one ``np.fmin.reduce`` of |f'| (fmin skips NaN, as the masked test
does).  ``branch_roots`` evaluates each point's coefficients, then runs
the one solvable-row rule once for all rows of one length
(``_solvable_rows``), the stacked solve, and the collision test once for
all root arrays of one count (``_close_pairs``); a row that fails the
stacked rule is tested again alone, so its error is exact, and the first
failing point in input order raises.  The rule (``_solvable``, which the
tracker's trials also apply) reads every modulus from numpy's array
``abs``, which gives the same bits wherever the entry sits in the array.
"""

from __future__ import annotations

import ast
import cmath
import dataclasses
import functools
import math
import operator
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .words import json_field, json_value

COLLISION_TOL = 1e-8  # branch points closer than this are a collision
LEAD_TOL = 1e-13  # a leading coefficient below this times the largest has vanished
RESIDUAL_TOL = 1e-12  # Newton converges when every relative residual is below it
NEWTON_STEPS = 24  # Newton iterations before refinement gives up
MAX_EXPONENT = 64
MAX_NESTING = 100
MAX_X_DEGREE = 64  # largest x-degree k of a family; covers every catalogued and benchmarked k
STACK_ENTRIES = 1 << 18  # complex entries of one solve_stack chunk: matrices plus Newton block
_ZERO = np.zeros((), dtype=complex)  # the 0 of polyval's x*0; a Python 0 is converted per call
_ZERO.flags.writeable = False

_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}


class DegenerateConfigurationError(RuntimeError):
    """A branch configuration has a (near-)multiple point."""


def complex_from_json(value, name: str) -> complex:
    """A finite complex scalar written in JSON as a number or an ``[re, im]``
    pair; otherwise ValueError naming it ``name``."""
    try:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            z = complex(value[0], value[1])
        else:
            z = complex(value)
        if cmath.isfinite(z):
            return z
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a finite number or an [re, im] pair, got {value!r:.40}")


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
        self._p = self._compiled(self._p_texts)
        self._q = self._compiled(self._q_texts)
        self._p_cube: np.ndarray | None = None  # p^3, kept once computed if p has no parameter

    def _compiled(self, texts: tuple[str, ...]) -> tuple[list, tuple]:
        """Entries without parameters as a template list, the others as
        (index, function) slots to fill in."""
        entries = [compile_coefficient(text, self.params) for text in texts]
        template = [0 if callable(e) else e for e in entries]
        return template, tuple((i, e) for i, e in enumerate(entries) if callable(e))

    def _array(self, compiled: tuple[list, tuple], t: dict[str, complex]) -> np.ndarray:
        template, slots = compiled
        values = self._values(t)
        out = list(template)
        for i, f in slots:
            out[i] = f(values)
        return np.array(out, dtype=complex)

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

    def p_array(self, t: dict[str, complex]) -> np.ndarray:
        if not self._p_texts:
            return np.zeros(1, dtype=complex)
        return self._array(self._p, t)

    def q_array(self, t: dict[str, complex]) -> np.ndarray:
        return self._array(self._q, t)

    def branch_coeffs(self, t: dict[str, complex]) -> np.ndarray:
        """Coefficients in x (low to high) whose roots are the branch points.

        For cubic fibers, p^3 - q^2 by convolution, with trailing exact
        zeros trimmed as numpy's ``polysub`` trims them, so a degree drop
        shows as a shorter array.  When p has no parameter (the base and
        ray families), p^3 is computed at the first call and kept,
        read-only; every call returns a fresh array."""
        q = self.q_array(t)
        if self.y_degree == 2:
            return q
        p3 = self._p_cube
        if p3 is None:
            p = _trim(self.p_array(t))
            p3 = _trim(np.convolve(np.convolve(p, p), p))
            if not self._p[1]:  # no parameter slot: the same p^3 at every t
                p3.flags.writeable = False
                self._p_cube = p3
        q = _trim(q)
        q2 = _trim(np.convolve(q, q))
        # numpy's polysub, branch for branch: same operations, same bits
        if len(p3) > len(q2):
            p3 = p3.copy()  # a kept p^3 is never written
            p3[:len(q2)] -= q2
            return _trim(p3)
        q2 = -q2
        q2[:len(p3)] += p3
        return _trim(q2)

    def fiber_coeffs(self, x: complex, t: dict[str, complex]) -> np.ndarray:
        """Coefficients in y (low to high) of the fiber polynomial over x."""
        q = complex(_horner(self.q_array(t), x))
        if self.y_degree == 2:
            return np.array([q, 0.0, 1.0], dtype=complex)
        p = complex(_horner(self.p_array(t), x))
        return np.array([2 * q, -3 * p, 0.0, 1.0], dtype=complex)

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


def _trim(c: np.ndarray) -> np.ndarray:
    """``c`` without trailing exact zeros, keeping at least one entry
    (numpy's ``trimseq``); a view, not a copy."""
    if len(c) == 0 or c[-1] != 0:
        return c
    nonzero = np.flatnonzero(c)
    return c[:nonzero[-1] + 1] if len(nonzero) else c[:1]


def _horner(c: np.ndarray, x):
    """The polynomial with coefficients ``c`` (low to high) at ``x``, with
    the operations of numpy's ``polyval`` in its order: ``c[-1] + x*0``,
    then ``c[i] + v*x`` down to ``c[0]``."""
    v = c[-1] + x * 0
    for i in range(len(c) - 2, -1, -1):
        v = c[i] + v * x
    return v


def refine_roots(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Newton-polish roots of the polynomial with the given coefficients.

    Residuals are measured relative to sum_i |c_i| |z|^i, so the criterion
    is scale invariant.  Raises if a root fails to converge.

    This is the package's one Newton loop: each iteration evaluates the m
    roots in one Horner pass (``_newton_pass``).  The roots are bit for bit
    those of the numpy.polynomial calls while the scale stays finite; an
    overflowed scale may read NaN here where the real pass gives inf.
    """
    z = np.array(roots, dtype=complex)
    residuals, vals, dvals = _newton_pass(coeffs[:, None, None], len(z))
    if not len(z):  # every residual of no roots passes; the reductions below would raise
        return z
    largest, smallest = np.maximum.reduce, np.fmin.reduce
    for _ in range(NEWTON_STEPS):
        rel = residuals(z)
        if largest(rel) < RESIDUAL_TOL:  # NaN propagates, so a NaN residual fails
            return z
        size = np.abs(dvals)
        # no |f'| below 1e-300 (fmin skips NaN): the np.where form below, bit for bit
        if smallest(size) >= 1e-300:
            z = z - vals / dvals
            continue
        bad = size < 1e-300
        if (bad & (rel >= RESIDUAL_TOL)).any():
            raise DegenerateConfigurationError("Newton step hit a critical point")
        z = z - np.where(bad, 0.0, vals / np.where(bad, 1.0, dvals))
    raise DegenerateConfigurationError("root refinement did not converge")


def _newton_pass(cols: np.ndarray, m: int):
    """The residual test of a Newton iteration for G polynomials, m roots
    each, with coefficient columns ``cols`` (n, G, 1): a function of the
    G * m roots, polynomial after polynomial, giving their relative
    residuals, and views of the values and derivatives each call writes.

    A call is one Horner pass, 2n ufunc calls, over a stacked (3, G * m)
    array: row 0 the polynomial at z, row 1 the moduli |c_i| at |z|
    (complex with zero imaginary parts, so each product is the real
    product), row 2 ``polyder``'s products ``i * c_i``, padded with a top
    zero, at z.  Each row sees numpy ``polyval``'s operations in its order
    (``c[-1] + x*0``, then ``c[i] + v*x``); the padded row's
    ``(0 + z*0) * z`` is ``z*0`` for finite z.  Every operation is
    elementwise, so a root sees the operations of its polynomial alone.
    """
    n, groups, _ = cols.shape
    block = np.zeros((n, 3, groups, m), dtype=complex)
    block[:, 0] = cols
    block[:, 1] = np.abs(cols)
    block[:n - 1, 2] = cols[1:] * np.arange(1, n)[:, None, None]
    top, *rest = block.reshape(n, 3, groups * m)[::-1]  # Horner's order, from the top
    x = np.zeros((3, groups * m), dtype=complex)  # rows z, |z| + 0j, z
    v = np.empty((3, groups * m), dtype=complex)
    zs, abs_z, vals, scale, dvals = x[0::2], x[1].real, v[0], v[1].real, v[2]
    absolute, add, multiply = np.abs, np.add, np.multiply  # looked up once, not per pass

    def residuals(z: np.ndarray) -> np.ndarray:
        zs[...] = z
        absolute(z, out=abs_z)
        multiply(x, _ZERO, out=v)
        add(top, v, out=v)
        for row in rest:
            multiply(v, x, out=v)
            add(row, v, out=v)
        return absolute(vals) / (scale + 1e-300)

    return residuals, vals, dvals


def _solvable(coeffs) -> np.ndarray:
    """``coeffs`` as a complex array, if ``solve_roots`` can solve them:
    finite, not the zero polynomial, and with a leading coefficient that
    is neither 0 nor below ``LEAD_TOL`` times the largest modulus.  A
    finite largest modulus proves every entry finite."""
    coeffs = np.asarray(coeffs, dtype=complex)
    size = np.abs(coeffs)
    largest = np.maximum.reduce(size)  # NaN propagates
    if not largest < math.inf and not np.isfinite(coeffs).all():
        raise ValueError("the coefficients are not finite")
    if largest == 0:
        raise ValueError("zero polynomial has no root set")
    if size[-1] == 0 or size[-1] < LEAD_TOL * largest:
        raise DegenerateConfigurationError("leading coefficient vanished: degree dropped")
    return coeffs


def _solvable_rows(coeffs: np.ndarray) -> np.ndarray:
    """Which rows of ``coeffs`` (G, n) ``_solvable`` accepts, by its
    operations over the stack (a finite row with a nonzero top is not the
    zero polynomial).  Other shapes, and rows of no entries, are not
    tested: every row is False."""
    if coeffs.ndim != 2 or not coeffs.shape[1]:
        return np.zeros(len(coeffs), dtype=bool)
    size = np.abs(coeffs)
    largest = np.maximum.reduce(size, axis=1)
    top = size[:, -1]
    return np.isfinite(coeffs).all(axis=1) & (top != 0) & ~(top < LEAD_TOL * largest)


def solve_roots(coeffs: np.ndarray) -> np.ndarray:
    coeffs = _solvable(coeffs)
    raw = npoly.polyroots(coeffs)
    return refine_roots(coeffs, raw)


def _polyroots_alone(coeffs: np.ndarray) -> np.ndarray | np.linalg.LinAlgError:
    try:
        return npoly.polyroots(coeffs)
    except np.linalg.LinAlgError as exc:
        return exc


def _companion_roots(rows: np.ndarray) -> list[np.ndarray | np.linalg.LinAlgError]:
    """``npoly.polyroots`` of each solvable row of ``rows`` (G, n) from one
    ``eigvals`` call on the stack of companion matrices, built and sorted
    as ``polycompanion`` and ``polyroots`` build and sort one.  The rows of
    a stack ``eigvals`` cannot finish are solved alone, and each may give
    the error that raises."""
    groups, n = rows.shape
    if n < 2:
        return list(np.empty((groups, 0), dtype=complex))
    if n == 2:  # polyroots' one root, with no matrix
        return list(-rows[:, :1] / rows[:, 1:])
    d = n - 1
    mats = np.zeros((groups, d, d), dtype=complex)
    mats.reshape(groups, -1)[:, d::d + 1] = 1
    mats[:, :, -1] -= rows[:, :-1] / rows[:, -1:]
    try:
        roots = np.linalg.eigvals(mats)
    except np.linalg.LinAlgError:  # a matrix of the stack did not converge
        return [_polyroots_alone(row) for row in rows]
    roots.sort(axis=-1)
    return list(roots)


def solve_stack(rows: Sequence) -> list[np.ndarray | Exception]:
    """For each coefficient row, taken as a complex array, the roots
    ``solve_roots(row)`` gives, bit for bit, or the exception that call
    would raise.

    Rows of one length share one solvable-row test
    (``_solvable_rows``); a row that fails it is tested alone by
    ``_solvable``, which gives its exact error.  The others share one
    companion step (``_companion_roots``) and one residual test
    (``_polish_rows``), at most ``STACK_ENTRIES`` complex entries of
    matrices and Newton block at a time, so memory does not grow with the
    number of rows."""
    out: list = [None] * len(rows)
    by_shape: dict[tuple, list[int]] = {}
    arrays = [np.asarray(row, dtype=complex) for row in rows]
    for i, c in enumerate(arrays):
        by_shape.setdefault(c.shape, []).append(i)
    for shape, members in by_shape.items():
        stack = np.array([arrays[i] for i in members])
        kept = []
        for g, (i, passed) in enumerate(zip(members, _solvable_rows(stack))):
            if not passed:
                try:
                    _solvable(arrays[i])
                except (ValueError, DegenerateConfigurationError) as exc:
                    out[i] = exc
                    continue
            kept.append(g)
        n = shape[0]
        m = n - 1  # roots per row: a row takes m * m matrix and 3 * n * m block entries
        size = max(1, STACK_ENTRIES // max(1, m * m + 3 * n * m))
        for start in range(0, len(kept), size):
            chunk = kept[start:start + size]
            coeffs = stack[chunk]
            for g, r in zip(chunk, _polish_rows(coeffs, _companion_roots(coeffs))):
                out[members[g]] = r
    return out


def _polish_rows(coeffs: np.ndarray, raw: list) -> list:
    """``raw`` with each root row refined against its row of ``coeffs``
    (G, n), or the error that ends its refinement, as ``refine_roots``
    refines one.  One ``_newton_pass`` over every row's roots is
    ``refine_roots``' first residual test: a row whose roots all pass is
    returned as it is, as ``refine_roots`` would return it, and only the
    others go to ``refine_roots``, one call each."""
    ok = [g for g, r in enumerate(raw) if not isinstance(r, Exception)]
    if not ok:
        return raw
    m = coeffs.shape[1] - 1
    residuals, _, _ = _newton_pass(coeffs[ok].T[..., None], m)
    rel = residuals(np.concatenate([raw[g] for g in ok]))
    passed = (rel < RESIDUAL_TOL).reshape(len(ok), m).all(axis=1)
    out = list(raw)
    for g, done in zip(ok, passed):
        if not done:
            try:
                out[g] = refine_roots(coeffs[g], raw[g])
            except DegenerateConfigurationError as exc:
                out[g] = exc
    return out


@functools.lru_cache(maxsize=2 * MAX_X_DEGREE)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the pairs i < j of m points; a root count is at
    most 2 * MAX_X_DEGREE, so the cache holds every count in use."""
    return np.triu_indices(m, 1)


def min_pairwise_distance(points: np.ndarray) -> float:
    pts = np.asarray(points)
    if len(pts) < 2:
        return math.inf
    i, j = _pairs(len(pts))
    return float(np.minimum.reduce(np.abs(pts[i] - pts[j])))


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
        return min_pairwise_distance(np.array(self.points))


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
                 points: Sequence[dict[str, complex]]) -> list[np.ndarray]:
    """All branch points at each parameter point, unlabeled, from one
    ``solve_stack`` call.  A degenerate configuration (a pair closer than
    ``COLLISION_TOL``) raises, and so does a point with no branch points
    or with branch coefficients that are not finite; of several failing
    points, the first in input order raises."""
    # a point whose coefficients cannot be evaluated (a missing, non-numeric
    # or overflowing value) raises once the points before it have passed
    rows, failure = [], None
    for t in points:
        try:
            rows.append(family.branch_coeffs(t))
        except (ValueError, TypeError, ArithmeticError) as exc:
            failure = exc
            break
    solved = solve_stack(rows)
    for t, row, roots, close in zip(points, rows, solved, _close_pairs(solved)):
        if isinstance(roots, Exception):
            # the rule refuses a row with an inf or a NaN; the error names the point
            if not np.isfinite(row).all():
                raise ValueError(f"the branch coefficients are not finite at parameters {t}")
            raise roots
        if not len(roots):
            raise ValueError(f"the family has no branch points at these parameters {t}")
        if close:
            raise DegenerateConfigurationError(f"branch points collide at parameters {t}")
    if failure is not None:
        raise failure
    return solved


def _close_pairs(solved: list) -> list[bool]:
    """For each root array of ``solved`` (an exception counts as none),
    whether two of its roots are closer than ``COLLISION_TOL``: the
    operations of ``min_pairwise_distance``, elementwise, in one pass over
    the arrays of each root count, at most ``STACK_ENTRIES`` pair
    distances at a time."""
    close = [False] * len(solved)
    by_count: dict[int, list[int]] = {}
    for g, roots in enumerate(solved):
        if not isinstance(roots, Exception) and len(roots) > 1:
            by_count.setdefault(len(roots), []).append(g)
    for m, members in by_count.items():
        i, j = _pairs(m)
        size = max(1, STACK_ENTRIES // len(i))
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            roots = np.array([solved[g] for g in chunk])
            gaps = np.minimum.reduce(np.abs(roots[:, i] - roots[:, j]), axis=1)
            for g in np.flatnonzero(gaps < COLLISION_TOL):
                close[chunk[g]] = True
    return close


def branch_points(family: WeierstrassFamily, t: dict[str, complex]) -> BranchConfiguration:
    """``branch_roots`` at parameter t, labeled."""
    (roots,) = branch_roots(family, [t])
    return BranchConfiguration(label_points(roots))


# ---------------------------------------------------------------------------
# Catalogued families


def _monomial_q(k: int, shift: str | complex = 0, linear: str | complex = 0) -> list:
    """Coefficient array of x^k + linear * x + shift."""
    if k < 1:
        raise ValueError("x-degree must be positive")
    if k == 1:
        if linear != 0:
            raise ValueError("cannot merge a linear term into x^1")
        return [shift, 1]
    return [shift, linear] + [0] * (k - 2) + [1]


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
        return WeierstrassFamily(3, (), (1,), _monomial_q(k), catalogue_id=f"base:{k}")
    if name == "ray":
        return WeierstrassFamily(3, ("lam", "mu"), (1,), _monomial_q(k, "-lam", f"-{k}*mu"),
                                 catalogue_id=f"ray:{k}")
    if name == "circle":
        return WeierstrassFamily(3, ("lam",), ("1 - lam",), _monomial_q(k, "-I*lam"),
                                 catalogue_id=f"circle:{k}")
    if name == "cusp_merge":
        return WeierstrassFamily(3, ("mu",), ("-mu/3",), _monomial_q(k, "-mu - I"),
                                 catalogue_id=f"cusp_merge:{k}")
    if name == "double_point":
        return WeierstrassFamily(3, ("eps", "alpha"), ("-alpha*eps", "eps"),
                                 _monomial_q(k, "-I"), catalogue_id=f"double_point:{k}")
    if name == "pair_merge":
        return WeierstrassFamily(
            3, ("t1", "t2", "w", "s0", "alpha"),
            ("-alpha*s0*t1 - t1 + 1", "s0*t1"),
            _monomial_q(k, "-I*t2 - w"),
            catalogue_id=f"pair_merge:{k}",
        )
    if name == "tame":
        coeffs = [0] * (k + 1)
        coeffs[0] = "lam"
        coeffs[1] = k
        coeffs[k] = -1
        return WeierstrassFamily(2, ("lam",), (), coeffs, catalogue_id=f"tame:{k}")
    raise ValueError(f"unknown catalogue family {name!r}")
