"""Evaluation of the distributed forward-backward iteration operator.

The sequential resolvent sweep x(gamma, z) computes, for a scheme
(D, M, N, P, R), n resolvent operators A_i and p cocoercive operators B_j:

    x_1 = J_{(gamma/d_1) A_1}( (M z)_1 / d_1 )
    x_i = J_{(gamma/d_i) A_i}( (M z)_i / d_i
                               + sum_{j<i} (N_ij / d_i) x_j
                               - (gamma/d_i) sum_j P_ij B_j( (R x)_j ) )

where (R x)_j uses the lower-triangular row j of R (entries up to the
diagonal), so every B_j input is available when first needed and each B_j is
evaluated exactly once per sweep (cached across i). The iteration operator is
T_{theta,gamma} z = z - theta * M* x(gamma, z), whose fixed points are the
block vectors z with all x_i equal.

``SweepPlan`` holds the one sweep implementation. At construction it emits
the scheme's sweep as straight-line Python source (``SweepPlan.source``),
with the scheme's constants folded into the text once:

* each (M z)_i with +-1 entries is a signed sum of blocks (on a graph
  scheme, one block per arc at node i: a copy, a negation or a difference
  at a node of degree 1 or 2); a row with other coefficients keeps the
  product M z;
* division by d_i = 1 and multiplication by a unit N_ij/d_i or P_ij are
  skipped; a divisor d_i != 1 and a coefficient N_ij/d_i != 1 of an array
  are named in the text (``(z[0] - z[1]) / D1``, ``C2_1 * x1``), as are the
  lane layout relocation's 1 (``ONE - ratio``) and a non-unit P_ij's
  operands of the lanes' (L, 1) stepsize column (``(gamma * P2_1 / D2)``),
  and bound once per plan, in ``bind``, as read-only 0-d float64 arrays
  (``linalg.constant``), so numpy does not convert a Python float operand
  on every call; arithmetic on a Python float stepsize (``s1 = gamma /
  2.0``, the block layout's ``(gamma * 0.5 / 2.0)``) keeps its literals and
  stays in Python floats, where a 0-d array would cost more than it saves;
* when M is an incidence matrix (one +1 and one -1 per column, as on every
  graph scheme), M* x is the edge differences x_a - x_b, and a consensus
  pair that is an edge reuses its difference.

The float operations stay those of the formulas above, so a folded row of
at most two terms is bitwise that of the matrix product (+-1 products are
exact, a + (-b) == a - b, and rounding is symmetric in sign); a star's hub
row sums its n - 1 > 2 blocks in column order, which the product may sum
in another.

One emitter writes two layouts of the same text: the block layout, an
(m, d) block vector with a scalar gamma, which a single run iterates; and
the lane layout, an (L, m, d) stack of L runs with per-lane stepsizes, which
``driver.run_grid`` iterates. A product with M, M*, K or a row of R is one
``@`` in both: numpy broadcasts it over the stack's lane axis, and a
lane's product with M, M* or an R row is the block layout's, bit for bit.
The plan is the whole step of the relocated iteration for the plan's
relocator kind. Each layout's text holds the stateless ``sweep``,
``first_block`` and ``relocation`` (the relocation formula Q(w) = r w +
(1 - r) K x(w), z = w at r = 1, which the public ``relocator.relocate``
also evaluates), and the step functions of one state: ``residuals`` (the
sweep at z, with M* x and ||M* x||), ``advance`` (w, then x_1(w), or the
sweep at w under the general relocator, and the norm pair (||x_1(w)||,
||x_1(w) - w||) only when asked for it) and ``relocate``. An iteration of a
run calls these three (``advance`` calls ``first_block`` or ``sweep`` at
w). ``Step`` holds them with the state they read and set (``_State``), and
the engine alone makes one: ``SweepPlan.start(z, gamma)`` a fresh step and
``Step.lane(i, block_plan)`` lane i of a stack, handed to a block-plan step
from its exact state. Under a cheap kind, ``residuals`` has one
straight-line form: it takes x_1 from the state, x_1(z0), which ``start``
forms, then x_1(w) of the last ``advance`` (the recycling identity), and
evaluates rows 2..n, n - 1 resolvents. That recycled sweep lives in
``residuals`` alone: the stateless functions evaluate every output they
return at their own (gamma, z). A source is compiled once while it stays
among the last 256 compiled (``_compiled``), and again after it has been
evicted; the operators' ``resolve`` and ``apply`` methods are bound each
time a plan is built, so a wrapper installed on them beforehand sees every
call. The public ``sweep`` and ``first_block`` are validated wrappers over
the plan that return the plain (n, d) array of resolvent outputs x, which
the public ``residuals`` takes; ``relocator.relocate`` calls the plan's own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError, as_count
from .linalg import as_blocks, check_shape, constant
from .operators import check_gamma


@dataclass(frozen=True, eq=False)
class SplitProblem:
    """Operator lists bound to a scheme: n resolvents, p forwards, shared modulus beta."""

    resolvents: tuple
    forwards: tuple
    beta: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "resolvents", tuple(self.resolvents))
        object.__setattr__(self, "forwards", tuple(self.forwards))
        if not 0 <= self.beta < math.inf:   # NaN fails both comparisons
            raise ParameterError(f"beta must be finite and nonnegative, got {self.beta}")
        object.__setattr__(self, "dim", as_count("dim", self.dim))


def check_binding(s, prob):
    """StructuralError unless ``prob`` has the scheme's n resolvents and p forwards."""
    if len(prob.resolvents) != s.n:
        raise StructuralError(f"scheme has n = {s.n} but {len(prob.resolvents)} resolvents given")
    if len(prob.forwards) != s.p:
        raise StructuralError(f"scheme has p = {s.p} but {len(prob.forwards)} forwards given")


def _lit(v):
    """A float as source text that reads back bitwise."""
    v = float(v)
    return repr(v) if math.isfinite(v) else f"float('{v!r}')"


def _edges(M):
    """(a, b) per column of M when every column is +1 at row a and -1 at row b, else None."""
    edges = []
    for col in M.T:
        nz = np.flatnonzero(col)
        if nz.size != 2 or sorted(col[nz]) != [-1.0, 1.0]:
            return None
        a, b = nz if col[nz[0]] > 0 else nz[::-1]
        edges.append((int(a), int(b)))
    return edges


def _folds(row):
    """True when a row of M has only +-1 entries, so its product is a signed sum of blocks.

    Any other row is read from the product M z, whose sum of general products
    may round otherwise than a term-by-term one.
    """
    vals = row[row != 0]
    return vals.size > 0 and bool(np.all(np.abs(vals) == 1.0))


class _Emitter:
    """Source text of one scheme's step functions in the block or the lane layout.

    The block layout reads block j of an (m, d) block vector as ``z[j]`` and
    takes a scalar gamma; the lane layout reads it as ``z[:, j]`` of an
    (L, m, d) stack and takes the list ``gs`` of the lanes' stepsizes, with
    ``gamma`` their (L, 1) column where a forward term needs it. The
    arithmetic is the same text. In the lane layout a resolvent is called
    once per lane with that lane's Python float stepsize, so every
    evaluation is still one ``resolve`` call; a product with M, M* or a row
    of R is one broadcast ``@`` over the stack, as K's already is, on the
    lanes' blocks stacked contiguously (``np.stack(..., axis=-2)``), where the
    block layout takes ``np.array([...])``; ||M* x|| is one ``np.vecdot`` over the
    lanes' flattened blocks, whose float64 loop is the dot product that the
    block layout's ``flat.dot(flat)`` calls, and a lane's norm pair is formed
    as the block layout forms it. A constant array operand, a divisor d_i or
    a coefficient N_ij/d_i other than 1, the lane relocation's 1 or a lane
    forward coefficient's P_ij other than 1 (with its d_i), is a name in the
    text (``D{i}``, ``C{i}_{j}``, ``ONE``, ``P{i}_{j}``; ``consts`` holds their
    values) that ``bind`` binds once to a read-only 0-d array; scalar
    arithmetic on a stepsize keeps Python floats and float literals.
    ``general`` selects the relocation formula: the general relocator's K
    times the sweep at w, or, for a cheap kind, x_1(w) broadcast over the
    blocks: its column of tree-degree coefficients is ones on every
    supported tree, so it has no K (``relocator.relocation_map`` returns
    None).
    """

    def __init__(self, s, dim, general, lanes):
        self.s, self.dim, self.general, self.lanes = s, dim, general, lanes
        self.edges = _edges(s.M)
        self.r_rows = {}   # forward j -> the columns of row j of R, when (R x)_j is not a block
        self.consts = {}   # name -> value of each array operand bound once in ``bind``
        self.g, self.xs = "gs" if lanes else "gamma", ", ".join(f"x{i}" for i in range(s.n))

    def _const(self, name, v):
        """``name``, bound in ``bind`` to the read-only 0-d array of the float ``v``."""
        self.consts[name] = v
        return name

    def _blk(self, v, j):
        return f"{v}[:, {j}]" if self.lanes else f"{v}[{j}]"

    def _blocks(self, names):
        if self.lanes:
            return f"np.stack([{', '.join(names)}], axis=-2)"
        return f"np.array([{', '.join(names)}])"

    def _forward_arg(self, j):
        cols = np.flatnonzero(self.s.R[j, :j + 1])   # nonzeros of the lower-triangular row
        if cols.size == 1 and self.s.R[j, cols[0]] == 1.0:
            return f"x{cols[0]}"   # (R x)_j = x_h: skip the 1-term product
        self.r_rows[j] = [int(h) for h in cols]
        return f"R{j} @ {self._blocks([f'x{h}' for h in cols])}"

    def _row(self, i, applied):
        """Statements that set x{i}; ``applied`` holds the forwards the sweep has applied.

        The argument is the signed sum of blocks (or the product row), divided
        by d_i, plus the N terms, minus the forward terms. While ``neg``, the
        text is the negated argument: -a + t is t - a and -a - t is -(a + t).
        """
        s, lanes = self.s, self.lanes
        lines = []
        if _folds(s.M[i]):
            cols = np.flatnonzero(s.M[i])
            plus = s.M[i, cols] > 0
            neg = not plus[0]
            arg = self._blk("z", cols[0])
            for j, p in zip(cols[1:], plus[1:]):
                arg = f"{arg} {'+' if p == plus[0] else '-'} {self._blk('z', j)}"
        else:
            arg, neg = self._blk("mz", i), False
        di = float(s.d[i])
        p_terms = [(int(j), float(s.P[i, j])) for j in np.flatnonzero(s.P[i, :i])]
        step, lane_steps = "gamma", "gs"
        if di != 1.0:
            arg = f"({arg}) / {self._const(f'D{i}', di)}"
            step = f"s{i}"
            if not lanes:
                lines.append(f"s{i} = gamma / {_lit(di)}")   # scalar arithmetic: a Python float
            elif any(c == 1.0 for _, c in p_terms):
                lines.append(f"s{i} = gamma / D{i}")   # the forward terms' (L, 1) column
            if lanes:
                lane_steps = f"ss{i}"
                lines.append(f"ss{i} = [g / {_lit(di)} for g in gs]")
        for j in np.flatnonzero(s.N[i, :i]):
            c = float(s.N[i, j]) / di
            t = f"x{j}" if c == 1.0 else f"{self._const(f'C{i}_{j}', c)} * x{j}"
            if neg:
                arg, neg = f"{t} - ({arg})", False
            else:
                arg = f"{arg} + {t}"
        for j, c in p_terms:
            if j not in applied:
                lines.append(f"f{j} = apply_{j}({self._forward_arg(j)})")
                applied.add(j)
            if c == 1.0:
                coef = step
            elif lanes:   # the (L, 1) gamma column times bound operands
                coef = f"(gamma * {self._const(f'P{i}_{j}', c)} / {self._const(f'D{i}', di)})"
            else:
                coef = f"(gamma * {_lit(c)} / {_lit(di)})"
            arg = f"{arg} {'+' if neg else '-'} {coef} * f{j}"
        if neg:
            arg = f"-({arg})"
        if lanes:
            call = f"np.array([resolve_{i}(s, a) for s, a in zip({lane_steps}, {arg})])"
        else:
            call = f"resolve_{i}({step}, {arg})"
        return lines + [f"x{i} = {call}"]

    def _sweep(self, rows):
        """Statements that set x{i} for ``rows``."""
        s = self.s
        lines = [] if all(_folds(s.M[i]) for i in rows) else ["mz = M @ z"]
        if self.lanes and any(s.P[i, :i].any() for i in rows):
            lines.append("gamma = np.array(gs)[:, None]")   # the forward terms' (L, 1) column
        applied = set()
        for i in rows:
            lines += self._row(i, applied)
        return lines

    def _residuals(self):
        """Statements of the step's ``residuals``: the sweep at z, M* x, and ||M* x|| returned.

        A cheap kind's sweep takes x_1 from ``aw`` (the recycling identity):
        x_1(z0), formed by ``SweepPlan.start``, then x_1(w) of the last
        ``advance``. So it evaluates rows 2..n only.
        """
        s, first = self.s, 0 if self.general else 1
        lines = ["z = st.z"] if self.general else ["z, x0 = st.z, st.aw"]
        lines += self._sweep(range(first, s.n)) + [f"st.evals += {s.n - first}"]
        if self.edges is None:
            lines.append(f"mx = MT @ {self._blocks(self.xs.split(', '))}")
        else:
            shape = f"(len(z), {s.m}, {self.dim})" if self.lanes else f"({s.m}, {self.dim})"
            lines.append(f"mx = np.empty({shape})")
            lines += [f"np.subtract(x{a}, x{b}, out={self._blk('mx', e)})"
                      for e, (a, b) in enumerate(self.edges)]
        lines.append(f"st.xs, st.mstar_x = [{self.xs}], mx")
        if self.lanes:
            return lines + ["flat = mx.reshape(len(mx), -1)",
                            "return np.sqrt(np.vecdot(flat, flat)).tolist()"]
        return lines + ["flat = mx.ravel()", "return sqrt(flat.dot(flat))"]

    def _advance(self):
        """Statements of the step's ``advance``: w, x_1(w) or the sweep at w, and the norm pair.

        The pair (||x_1(w)||, ||x_1(w) - w||) is returned when ``reads``, () else;
        in the lane layout ``reads`` lists the lanes whose pairs are returned,
        as a dict by lane, with the block layout's float operations.
        """
        n, x1w = (self.s.n, "aw[0]") if self.general else (1, "aw")
        lines = ["w = st.w = st.z - lam * st.mstar_x",
                 f"aw = st.aw = {'sweep' if self.general else 'first_block'}({self.g}, w)",
                 f"st.evals += {n}"]
        if self.lanes:
            return lines + ["pairs = {}", "for i in reads:",
                            f"    u, v = {x1w}[i], ({x1w}[i] - w[i]).ravel()",
                            "    pairs[i] = sqrt(u.dot(u)), sqrt(v.dot(v))", "return pairs"]
        return lines + ["if reads:", f"    u, v = {x1w}.ravel(), ({x1w} - w).ravel()",
                        "    return sqrt(u.dot(u)), sqrt(v.dot(v))", "return ()"]

    def _relocation(self):
        """Statements that set z = Q(w) = ratio w + (1 - ratio) K x(w), or z = w at ratio 1.

        ``aw`` is x_1(w) for a cheap kind and the sweep at w for ``general``. In
        the lane layout ``ratio`` is the (L, 1, 1) column of the lanes' ratios
        and 1 the bound constant ``ONE``; a lane at ratio 1 gets w's bits, not
        the formula's w + 0 * K x. The block layout's ratio is a Python float.
        """
        # K times each run's (n, d) outputs: np.array(aw) is (n, d), or (n, L, d) on a stack
        kx = ("(K @ np.array(aw).swapaxes(0, -2))" if self.general
              else "aw[:, None, :]" if self.lanes else "aw")
        one = self._const("ONE", 1.0) if self.lanes else "1.0"
        formula = f"ratio * w + ({one} - ratio) * {kx}"
        if not self.lanes:
            return [f"z = w if ratio == 1.0 else {formula}"]
        return [f"z = {formula}", f"np.copyto(z, w, where=ratio == {one})"]

    def source(self):
        """Module text whose ``bind(resolve, apply, M, MT, R, K)`` returns the plan's functions.

        They are the stateless ``sweep``, ``first_block`` and ``relocation``,
        and ``step``, which makes the step functions of one state. ``bind``
        first binds the named constants (``consts``), once per plan.
        """
        s, g = self.s, self.g
        step = [line for sig, body in ((f"residuals({g})", self._residuals()),
                                       (f"advance({g}, lam, reads)", self._advance()),
                                       ("relocate(ratio)", ["w, aw = st.w, st.aw"]
                                        + self._relocation() + ["st.z = z"]))
                for line in [f"def {sig}:", *_indent(body), ""]]
        fns = [(f"sweep({g}, z)", self._sweep(range(s.n)) + [f"return [{self.xs}]"]),
               (f"first_block({g}, z)", self._sweep([0]) + ["return x0"]),
               ("relocation(ratio, w, aw)", self._relocation() + ["return z"]),
               ("step(st)", step + ["return residuals, advance, relocate"])]
        kind = "general" if self.general else "cheap"
        lines = [f"# {'lane' if self.lanes else 'block'} layout, {kind} relocator, n = {s.n}, "
                 f"p = {s.p}, m = {s.m}", "def bind(resolve, apply, M, MT, R, K=None):"]
        lines += [f"    resolve_{i} = resolve[{i}]" for i in range(s.n)]
        lines += [f"    apply_{j} = apply[{j}]" for j in range(s.p)]
        lines += [f"    R{j} = R[{j}, {cols}]" for j, cols in sorted(self.r_rows.items())]
        lines += [f"    {name} = constant({_lit(v)})" for name, v in self.consts.items()]
        for sig, body in fns:
            lines += [""] + _indent([f"def {sig}:"] + _indent(body))
        return "\n".join(lines + ["", "    return sweep, first_block, relocation, step", ""])


def _indent(lines):
    return ["    " + line if line else line for line in lines]


@functools.lru_cache(maxsize=256)
def _compiled(source):
    """The ``bind`` function of a step-plan source, compiled once per distinct text."""
    namespace = {"np": np, "sqrt": math.sqrt, "constant": constant}
    exec(compile(source, "<relsplit step plan>", "exec"), namespace)
    return namespace["bind"]


class SweepPlan:
    """The step of one scheme, problem and relocator, as generated straight-line code.

    Construction checks the operator bindings, emits the source (``source``)
    in the block layout (``lanes=False``) or the lane layout (``lanes=True``)
    and binds the operators' methods. ``K`` is the general relocator's m x n
    matrix, or None for a cheap kind. The plan exposes, as plain functions:

    * ``sweep(gamma, z)``: the n outputs at (gamma, z), n resolvent evaluations;
    * ``first_block(gamma, z)``: x_1 alone;
    * ``relocation(ratio, w, aw)``: Q(w) for the relocator, from ``aw``,
      x_1(w) for a cheap kind or the n outputs at w for ``general``.

    ``start(z, gamma)`` makes a fresh ``Step`` of one run (or one stack) from
    z, whose state the step functions read and set; the private ``_step``
    makes those functions of one state. In the lane layout gamma is the list of the lanes' Python float
    stepsizes, z an (L, m, d) stack, each output an (L, d) array, ||M* x||
    a list of L floats and ``ratio`` an (L, 1, 1) column; ``reads`` lists the
    lanes whose norm pairs ``advance`` returns, as a dict by lane.
    ``pairs`` lists the node pairs (i, j), i < j, whose distances the
    consensus of a ``Step``'s rows reads, each with its edge in M* x or None.
    ``general`` is True for the general relocator's plan and False for a
    cheap kind's.
    """

    def __init__(self, s, prob, K=None, lanes=False):
        check_binding(s, prob)
        self.m, self.dim, self.general = s.m, prob.dim, K is not None
        emitter = _Emitter(s, prob.dim, self.general, lanes)
        edge_of = {frozenset(ab): e for e, ab in enumerate(emitter.edges or ())}
        self.pairs = [(i, j, edge_of.get(frozenset((i, j))))   # (i, j, its edge or None)
                      for i in range(s.n) for j in range(i + 1, s.n)]
        self.source = emitter.source()
        self.sweep, self.first_block, self.relocation, self._step = _compiled(self.source)(
            tuple(op.resolve for op in prob.resolvents), tuple(op.apply for op in prob.forwards),
            s.M, s.M.T, s.R, K)

    def start(self, z, gamma):
        """A fresh ``Step`` from z at the run's first stepsize gamma (a stack's list of them).

        Under a cheap kind it forms x_1(z0) at gamma and counts its evaluation,
        so every ``residuals`` recycles x_1; a general step starts with none.
        """
        aw = None if self.general else self.first_block(gamma, z)
        return Step(self, _State(z, aw, None, 0 if self.general else 1))

    def blocks(self, z):
        """``z`` as an (m, dim) float block vector, or a StructuralError."""
        z = as_blocks(z, self.m)
        if z.shape[1] != self.dim:
            raise StructuralError(f"blocks have dim {z.shape[1]}, problem dim {self.dim}")
        return z


def _lanes_of(v, index):
    """``v[index]`` of an (L, ...) stack array, or of each array of a list of them, or None."""
    if v is None:
        return None
    return [a[index] for a in v] if isinstance(v, list) else v[index]


class _State:
    """What the generated step functions read and set; it refers back to nothing."""

    def __init__(self, z, aw, xs, evals):
        self.z, self.aw, self.xs, self.evals, self.mstar_x, self.w = z, aw, xs, evals, None, None


class Step:
    """One run's (or one stack's) step: a plan's step functions and the state they set.

    ``residuals(gamma)`` evaluates the sweep at z (under a cheap kind, rows
    2..n from ``aw``: x_1(z0) before the first ``advance``, then x_1(w)),
    sets the outputs ``xs`` and M* x and returns ||M* x||;
    ``advance(gamma, lam, reads)`` sets w = z - lam M* x and ``aw``, x_1(w)
    (the sweep at w under the general relocator), and returns the norm pair
    (||x_1(w)||, ||x_1(w) - w||) when ``reads``, () otherwise;
    ``relocate(ratio)`` sets z to ``relocation(ratio, w, aw)``. Each adds its
    resolvent evaluations to the state's ``evals``. They are generated per
    plan and close over the state ``st`` (``_State``: ``z``, ``aw``, ``xs``,
    ``mstar_x``, ``w``, ``evals``), not over the step, so a finished step is
    freed at once, with no reference cycle to wait for the collector. On a
    block plan ``z`` is one run's (m, d) block vector; on a lane plan it is
    the (L, m, d) stack of a ``driver.run_grid`` group, whose lanes make the
    float operations of their own runs, so each lane's iterates are bitwise
    its run's, and one evaluation count serves every lane. The readers of one
    run's values take ``*lane``: a lane index on a stack, nothing for one run
    (``a[()]`` is all of ``a``); ``rows(lanes)`` reads the trace rows of
    several lanes of a stack at once. ``SweepPlan.start`` makes a fresh step.
    """

    def __init__(self, plan, st):
        self.st, self._pairs = st, plan.pairs
        self.residuals, self.advance, self.relocate = plan._step(st)

    def row(self, *lane):
        """(consensus, x_1, evals) of the last ``residuals``.

        The consensus is max_{i<j} ||x_i - x_j||; a pair that is an edge of an
        incidence matrix M reuses that edge's difference in M* x, and a NaN
        pair makes it NaN, as in ``residuals``.
        """
        st = self.st
        xs, mstar_x = st.xs, st.mstar_x[lane]
        worst = 0.0   # largest squared distance; sqrt is monotone, so one sqrt suffices
        for i, j, e in self._pairs:
            v = xs[i][lane] - xs[j][lane] if e is None else mstar_x[e]
            sq = v.dot(v)
            if sq > worst or sq != sq:   # NaN fails every comparison but this one
                worst = sq
        return math.sqrt(worst), xs[0][lane], st.evals

    def rows(self, lanes):
        """``row`` of each of the stack's lanes at the sorted indices ``lanes``, formed at once.

        Returns the list of their consensus values, the (len(lanes), d) stack
        of their x_1 and evals. Each value is bitwise that lane's ``row``: one
        ``np.vecdot`` per pair serves every lane, and ``np.maximum`` makes a
        lane's value NaN from its first NaN pair on, as ``row`` does.
        """
        st = self.st
        at = slice(None) if len(lanes) == len(st.z) else lanes
        xs, mstar_x = [x[at] for x in st.xs], st.mstar_x[at]
        worst = np.zeros(len(mstar_x))
        for i, j, e in self._pairs:
            v = xs[i] - xs[j] if e is None else mstar_x[:, e]
            np.maximum(worst, np.vecdot(v, v), out=worst)
        return np.sqrt(worst).tolist(), xs[0], st.evals

    def state(self, *lane):
        """Copies of (z, x_1 or None before the first ``residuals``) and evals."""
        st = self.st
        return np.array(st.z[lane]), None if st.xs is None else np.array(st.xs[0][lane]), st.evals

    def keep(self, lanes):
        """Keep the stack's lanes at the indices ``lanes`` and drop the state of the others."""
        st = self.st
        st.z, st.aw, st.xs, st.mstar_x, st.w = (
            _lanes_of(v, lanes) for v in (st.z, st.aw, st.xs, st.mstar_x, st.w))

    def lane(self, i, block_plan):
        """Lane i of the stack as a step of ``block_plan``, from its exact state."""
        st = self.st
        return Step(block_plan, _State(*(_lanes_of(v, i) for v in (st.z, st.aw, st.xs)), st.evals))


def sweep(s, prob, gamma, z):
    """The (n, d) array x of resolvent outputs of the sweep at stepsize gamma from z.

    It costs n resolvent evaluations and applies each forward operator the
    scheme uses once. A run's step takes x_1 from the last relocation
    instead (the recycling identity of the cheap relocators); only its
    ``residuals`` evaluates that recycled sweep.
    """
    check_gamma(gamma)
    plan = SweepPlan(s, prob)
    return np.array(plan.sweep(gamma, plan.blocks(z)))


def first_block(s, prob, gamma, z):
    """Only x_1 of the sweep (one resolvent evaluation), never a view of ``z``."""
    check_gamma(gamma)
    plan = SweepPlan(s, prob)
    return np.array(plan.first_block(gamma, plan.blocks(z)))


def apply_T(s, prob, theta, gamma, z):
    """One application of T_{theta,gamma}: returns (z - theta * M* x, x)."""
    x = sweep(s, prob, gamma, z)
    z = as_blocks(z, s.m)
    return z - theta * (s.M.T @ x), x


def residuals(s, x):
    """(fix_res, consensus) of the (n, d) sweep outputs x: ||M* x|| and max_{i<j} ||x_i - x_j||.

    With n >= 2, a NaN anywhere in x makes both NaN.
    """
    x = check_shape("x", x, (s.n, None))
    pairs = [np.linalg.norm(x[i] - x[j]) for i in range(s.n) for j in range(i + 1, s.n)]
    return float(np.linalg.norm(s.M.T @ x)), float(np.max(pairs, initial=0.0))
