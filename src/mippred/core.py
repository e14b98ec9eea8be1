"""In-memory model of a mixed integer program and its JSON file format.

A problem is ``min/max c.x`` subject to ranged linear constraints
``lhs <= a.x <= rhs`` and variable bounds ``lb <= x <= ub``, with each
variable typed binary, integer, or continuous.  An instance stores its
rows as ``RowArrays`` and its columns as the arrays ``vtype``, ``lb``,
``ub`` and ``c``, which everything downstream reads and derived
instances edit; the ``Variable`` and ``Constraint`` records only build
instances (``MipInstance.from_constraints``) and serve as read-only
views.  The module also holds the one path by which every pipeline
file in JSON is written and read: ``write_json`` streams indented JSON
into the file, and ``read_json`` and ``check_keys`` read and check it.
Every CSV file likewise goes through ``write_csv`` and ``read_csv``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

FEAS_TOL = 1e-6
INT_TOL = 1e-6

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"
VTYPES = (BINARY, INTEGER, CONTINUOUS)

MINIMIZE = "min"
MAXIMIZE = "max"


class InstanceFormatError(ValueError):
    """Raised when an instance file is malformed."""


@dataclass
class Variable:
    name: str
    vtype: str
    lb: float
    ub: float


@dataclass
class Constraint:
    """Ranged row ``lhs <= sum(coeffs[j] * x[j]) <= rhs``.

    ``coeffs`` maps variable index to coefficient; either side may be
    infinite but not both.  Instances store their rows as ``RowArrays``.
    """

    name: str
    coeffs: dict[int, float]
    lhs: float
    rhs: float


class RowArrays(NamedTuple):
    """The rows an instance stores, in compressed sparse row form.

    Row ``i`` holds the entries ``indptr[i]:indptr[i + 1]`` of ``cols``
    (variable indices) and ``vals`` (coefficients), in the order the row
    was built in; ``lhs``/``rhs`` are the row sides.
    """

    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    def __eq__(self, other):
        return isinstance(other, RowArrays) and all(map(np.array_equal, self, other))

    def row_ids(self) -> np.ndarray:
        """The row index of every entry."""
        return np.repeat(np.arange(len(self.lhs)), np.diff(self.indptr))

    def with_row(self, cols, vals, lhs: float, rhs: float) -> RowArrays:
        """These rows plus one more, with entries ``cols``/``vals`` in
        that order."""
        end = self.indptr[-1] + len(cols)
        return RowArrays(*(np.append(a, np.asarray(b, a.dtype))
                           for a, b in zip(self, (end, cols, vals, lhs, rhs))))


@dataclass
class MipInstance:
    """A MIP whose rows are ``rows``, named by ``row_names``, and whose
    column j is named ``var_names[j]``, has type ``vtype[j]``, bounds
    ``lb[j] <= x_j <= ub[j]`` and cost ``c[j]``."""

    name: str
    sense: str
    var_names: list[str]
    vtype: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    c: np.ndarray
    rows: RowArrays
    row_names: list[str]

    def __eq__(self, other):
        return isinstance(other, MipInstance) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(vars(self).values(), vars(other).values()))

    @classmethod
    def from_constraints(cls, name, sense, variables: list[Variable],
                         constraints: list[Constraint],
                         objective: dict[int, float]) -> MipInstance:
        """The instance with the columns ``variables``, the rows
        ``constraints`` (each row's entries in its ``coeffs`` order) and
        the costs ``objective``; ValueError on an index out of range."""
        n, cons = len(variables), constraints
        for j in objective:
            if not 0 <= j < n:
                raise ValueError(f"objective: variable index {j} out of range")
        c = np.zeros(n)
        c[list(objective)] = list(objective.values())
        indptr = np.cumsum([0] + [len(con.coeffs) for con in cons], dtype=np.int64)
        nnz = int(indptr[-1])
        rows = RowArrays(
            indptr,
            np.fromiter(chain.from_iterable(con.coeffs for con in cons), np.int64, nnz),
            np.fromiter(chain.from_iterable(con.coeffs.values() for con in cons),
                        float, nnz),
            np.array([con.lhs for con in cons], dtype=float),
            np.array([con.rhs for con in cons], dtype=float))
        # wide enough to take any known type in place and an unknown one whole
        vtype = np.array([v.vtype for v in variables], dtype=str)
        vtype = vtype.astype(np.promote_types(vtype.dtype, np.array(VTYPES).dtype))
        return cls(name, sense, [v.name for v in variables], vtype,
                   np.array([v.lb for v in variables], dtype=float),
                   np.array([v.ub for v in variables], dtype=float), c,
                   rows, [con.name for con in cons])

    @property
    def variables(self) -> list[Variable]:
        """The columns as ``Variable`` records, built anew on every read."""
        return [Variable(*rec) for rec in zip(self.var_names, self.vtype.tolist(),
                                              self.lb.tolist(), self.ub.tolist())]

    @property
    def constraints(self) -> list[Constraint]:
        """The rows as ``Constraint`` records, built anew on every read."""
        ptr, cols, vals, lhs, rhs = (a.tolist() for a in self.rows)
        return [Constraint(*rec) for rec in zip(
            self.row_names, (dict(zip(cols[lo:hi], vals[lo:hi]))
                             for lo, hi in zip(ptr, ptr[1:])), lhs, rhs)]

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    def binary_indices(self) -> list[int]:
        return np.flatnonzero(self.vtype == BINARY).tolist()

    def objective_vector(self) -> np.ndarray:
        return self.c.copy()


@dataclass
class Solution:
    values: np.ndarray
    objective: float
    feasible: bool
    max_violation: float


def validate_instance(inst: MipInstance) -> list[str]:
    """Check structural invariants; return a list of violation messages.

    An empty list means the instance is valid, and each offending item
    gets one message.  Checks, on the arrays: known sense and variable
    types, unique variable names, bounds that hold a number (binaries
    within [0, 1]), finite costs, and non-empty rows of finite
    coefficients, in-range and unrepeated indices, and sides that are
    numbers with lhs <= rhs, at least one finite.
    """
    errs: list[str] = []
    if inst.sense not in (MINIMIZE, MAXIMIZE):
        errs.append(f"unknown sense {inst.sense!r}")
    names, vtype, lb, ub, n = inst.var_names, inst.vtype, inst.lb, inst.ub, inst.n_vars
    twin_name = np.zeros(n, dtype=bool)  # a name after its first use
    if len(set(names)) < n:
        twin_name = ~np.isin(np.arange(n), np.unique(names, return_index=True)[1])
    binary, crossed = vtype == BINARY, lb > ub
    checks = (  # (flags over the columns, message), in message order
        (twin_name, "duplicate variable name {name!r}"),
        (~(binary | (vtype == INTEGER) | (vtype == CONTINUOUS)),
         "variable {name!r}: unknown vtype {vtype!r}"),
        (crossed, "variable {name!r}: lb {lb} > ub {ub}"),
        (binary & ((lb < 0.0) | (ub > 1.0)),
         "variable {name!r}: binary bounds outside [0, 1]"),
        (~(lb < math.inf) & ~crossed, "variable {name!r}: lb {lb} is not a lower bound"),
        (~(ub > -math.inf) & ~crossed, "variable {name!r}: ub {ub} is not an upper bound"))
    for j in np.flatnonzero(sum(flags for flags, _ in checks)).tolist():
        errs += [message.format(name=names[j], vtype=str(vtype[j]), lb=float(lb[j]),
                                ub=float(ub[j])) for flags, message in checks if flags[j]]
    ra, rid = inst.rows, inst.rows.row_ids()
    outside, odd = (ra.cols < 0) | (ra.cols >= n), ~np.isfinite(ra.vals)
    key = rid * (n + 1) + np.where(outside, n, ra.cols)  # sorts by row, column
    order = np.argsort(key, kind="stable")
    twin = np.zeros(len(key), dtype=bool)  # a column repeated in its row
    twin[order[1:]] = (np.diff(key[order]) == 0) & ~outside[order[1:]]
    bad = (np.diff(ra.indptr) == 0) | ~(ra.lhs <= ra.rhs) | (
        np.isinf(ra.lhs) & np.isinf(ra.rhs)) | (
        np.bincount(rid, outside | twin | odd, len(ra.lhs)) > 0)
    for i in np.flatnonzero(bad).tolist():
        name, (lo, hi) = inst.row_names[i], ra.indptr[i:i + 2]
        lhs, rhs, cols = float(ra.lhs[i]), float(ra.rhs[i]), ra.cols[lo:hi]
        if lo == hi:
            errs.append(f"constraint {name!r}: empty coefficients")
        for j in cols[outside[lo:hi]].tolist():
            errs.append(f"constraint {name!r}: variable index {j} out of range")
        for j in np.unique(cols[twin[lo:hi]]).tolist():
            errs.append(f"constraint {name!r}: variable index {j} repeated")
        for j, a in zip(cols[odd[lo:hi]].tolist(), ra.vals[lo:hi][odd[lo:hi]].tolist()):
            errs.append(f"constraint {name!r}: coefficient {a} of variable "
                        f"index {j} is not finite")
        errs += [f"constraint {name!r}: {side} is not a number"
                 for side, value in (("lhs", lhs), ("rhs", rhs)) if math.isnan(value)]
        if lhs > rhs:
            errs.append(f"constraint {name!r}: lhs {lhs} > rhs {rhs}")
        if math.isinf(lhs) and math.isinf(rhs):
            errs.append(f"constraint {name!r}: both sides infinite")
    for j in np.flatnonzero(~np.isfinite(inst.c)).tolist():
        errs.append(f"objective: cost {float(inst.c[j])} of variable {names[j]!r} "
                    "is not finite")
    return errs


def canonicalize(inst: MipInstance) -> MipInstance:
    """Return an equivalent minimization instance.

    A maximization objective is negated; callers that report in the
    original sense read it from the instance they were given.
    Minimization instances come back unchanged.  Raises ValueError on
    invalid instances.
    """
    errs = validate_instance(inst)
    if errs:
        raise ValueError("invalid instance: " + "; ".join(errs))
    if inst.sense == MINIMIZE:
        return inst
    return replace(inst, sense=MINIMIZE, c=-inst.c)


def hamming_coeffs(x_ref, indices) -> np.ndarray:
    """Coefficients of the Hamming distance to ``x_ref`` over the binaries
    ``indices``, as a vector like ``x_ref`` that is 0 elsewhere.

    Index j gets 1 where ``x_ref[j]`` is 0 and -1 where it is 1, so the
    distance is ``coeffs @ x + (number of -1 entries)``.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    coeffs = np.zeros(len(x_ref))
    coeffs[indices] = np.where(x_ref[indices] > 0.5, -1.0, 1.0)
    return coeffs


def evaluate_solution(inst: MipInstance, x) -> Solution:
    """Evaluate a point against the instance exactly as stored.

    Returns objective c.x (in the instance's own sense), the maximum
    violation over constraints, bounds and integrality residuals, and a
    feasibility flag at tolerance 1e-6.  Row activities are summed in
    each row's entry order.  A point with a NaN or infinite entry
    is infeasible, with violation inf.  Raises ValueError on dimension
    mismatch.
    """
    x, n, rows = np.asarray(x, dtype=float), inst.n_vars, inst.rows
    if x.shape != (n,):
        raise ValueError(f"solution has shape {x.shape}, instance has {n} variables")
    nz = np.flatnonzero(inst.c)
    obj = float(sum((inst.c[nz] * x[nz]).tolist()))  # one term at a time, unlike np.dot
    if not np.isfinite(x).all():
        return Solution(values=x, objective=obj, feasible=False,
                        max_violation=math.inf)
    act = np.bincount(rows.row_ids(), rows.vals * x[rows.cols],
                      minlength=len(rows.lhs))
    # an infinite side or bound gives -inf here, never a violation
    viol = float(np.concatenate((rows.lhs - act, act - rows.rhs,
                                 inst.lb - x, x - inst.ub)).max(initial=0.0))
    ints = inst.vtype != CONTINUOUS
    int_resid = float(np.abs(x[ints] - np.round(x[ints])).max(initial=0.0))
    return Solution(
        values=x,
        objective=obj,
        feasible=viol <= FEAS_TOL and int_resid <= INT_TOL,
        max_violation=max(viol, int_resid),
    )


# ---------------------------------------------------------------------------
# JSON file format


def _num_out(v: float):
    return "inf" if v == math.inf else "-inf" if v == -math.inf else float(v)


def _num_in(raw, where: str) -> float:
    if isinstance(raw, str):
        if raw in ("inf", "-inf"):
            return float(raw)
        raise InstanceFormatError(f"{where}: bad numeric string {raw!r}")
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InstanceFormatError(f"{where}: expected number, got {type(raw).__name__}")
    return float(raw)


def check_keys(data, expected: set[str], where: str,
               error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless ``data`` is an object with exactly the keys
    ``expected``."""
    if not isinstance(data, dict):
        raise error(f"{where}: expected an object")
    unknown, missing = set(data) - expected, expected - set(data)
    if unknown:
        raise error(f"{where}: unknown keys {sorted(unknown)}")
    if missing:
        raise error(f"{where}: missing keys {sorted(missing)}")


def _pairs_hook(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        dup = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate keys {dup} in object")
    return dict(pairs)


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as JSON indented by one space, plus a
    final newline.

    The text is streamed into the file as it is encoded, so a file's
    whole text is never held in memory at once.
    """
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_json(path, parse, error: type[ValueError] = ValueError):
    """``parse(data)`` of the JSON document in ``path``.

    Objects with duplicate keys are rejected.  A document that does not
    decode, or on which ``parse`` fails with a LookupError,
    AttributeError, TypeError or ValueError, raises ``error`` with the
    path in front of the message.
    """
    try:
        with open(path) as fh:
            data = json.load(fh, object_pairs_hook=_pairs_hook)
        return parse(data)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from None
    except KeyError as exc:
        raise error(f"{path}: missing key {exc}") from None
    except (LookupError, AttributeError, TypeError, ValueError) as exc:
        raise error(f"{path}: {exc}") from None


def write_csv(path, header, rows) -> None:
    """Write the cells ``header`` and then each row of ``rows`` to
    ``path`` as CSV lines ending in ``\\r\\n``; None is written as an
    empty cell and any other value as its ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path) -> list[list[str]]:
    """The lines of the CSV file ``path``, each as its list of cells; a
    blank line gives an empty list."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def instance_to_dict(inst: MipInstance) -> dict:
    names, nz = inst.var_names, np.flatnonzero(inst.c).tolist()
    return {
        "name": inst.name,
        "sense": inst.sense,
        "variables": [
            {"name": v.name, "vtype": v.vtype, "lb": _num_out(v.lb), "ub": _num_out(v.ub)}
            for v in inst.variables
        ],
        "constraints": [
            {"name": con.name, "lhs": _num_out(con.lhs), "rhs": _num_out(con.rhs),
             "coeffs": {names[j]: a for j, a in con.coeffs.items()}}
            for con in inst.constraints],
        "objective": {names[j]: c for j, c in zip(nz, inst.c[nz].tolist())},
    }


def instance_from_dict(data: dict) -> MipInstance:
    check_keys(data, {"name", "sense", "variables", "constraints", "objective"},
               "top level", InstanceFormatError)
    variables = []
    index: dict[str, int] = {}
    for k, raw in enumerate(data["variables"]):
        where = f"variables[{k}]"
        check_keys(raw, {"name", "vtype", "lb", "ub"}, where, InstanceFormatError)
        index[raw["name"]] = k
        variables.append(Variable(raw["name"], raw["vtype"], _num_in(raw["lb"], where),
                                  _num_in(raw["ub"], where)))

    def var_index(name, where):
        if name not in index:
            raise InstanceFormatError(f"{where}: unknown variable {name!r}")
        return index[name]

    constraints = []
    for k, raw in enumerate(data["constraints"]):
        where = f"constraints[{k}]"
        check_keys(raw, {"name", "lhs", "rhs", "coeffs"}, where, InstanceFormatError)
        coeffs = {var_index(vn, where): _num_in(a, f"{where}.coeffs[{vn!r}]")
                  for vn, a in raw["coeffs"].items()}
        constraints.append(Constraint(raw["name"], coeffs, _num_in(raw["lhs"], where),
                                      _num_in(raw["rhs"], where)))
    objective = {var_index(vn, "objective"): _num_in(c, f"objective[{vn!r}]")
                 for vn, c in data["objective"].items()}
    inst = MipInstance.from_constraints(data["name"], data["sense"], variables,
                                        constraints, objective)
    errs = validate_instance(inst)
    if errs:
        raise InstanceFormatError("; ".join(errs))
    return inst


def write_instance(inst: MipInstance, path) -> None:
    write_json(path, instance_to_dict(inst))


def read_instance(path) -> MipInstance:
    return read_json(path, instance_from_dict, InstanceFormatError)
