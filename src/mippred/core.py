"""In-memory model of a mixed integer program and its JSON file format.

A problem is ``min/max c.x`` subject to ranged linear constraints
``lhs <= a.x <= rhs`` and variable bounds ``lb <= x <= ub``, with each
variable typed binary, integer, or continuous.  An instance stores its
rows as ``RowArrays``, which everything downstream reads and derived
instances edit.  The module also holds the one path by which
every pipeline file in JSON is written and read (``write_json``,
``read_json``, ``check_keys``).
"""

from __future__ import annotations

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
    """A MIP whose rows are ``rows``, named by ``row_names``."""

    name: str
    sense: str
    variables: list[Variable]
    rows: RowArrays
    row_names: list[str]
    objective: dict[int, float]

    @classmethod
    def from_constraints(cls, name, sense, variables, constraints: list[Constraint],
                         objective) -> MipInstance:
        """The instance with the rows ``constraints``, each row's entries
        in its ``coeffs`` order."""
        cons = constraints
        indptr = np.cumsum([0] + [len(con.coeffs) for con in cons], dtype=np.int64)
        nnz = int(indptr[-1])
        rows = RowArrays(
            indptr,
            np.fromiter(chain.from_iterable(con.coeffs for con in cons), np.int64, nnz),
            np.fromiter(chain.from_iterable(con.coeffs.values() for con in cons),
                        float, nnz),
            np.array([con.lhs for con in cons], dtype=float),
            np.array([con.rhs for con in cons], dtype=float))
        return cls(name, sense, variables, rows, [con.name for con in cons], objective)

    @property
    def constraints(self) -> list[Constraint]:
        """The rows as ``Constraint`` records, built anew on every read."""
        ptr, cols, vals, lhs, rhs = (a.tolist() for a in self.rows)
        return [Constraint(*rec) for rec in zip(
            self.row_names, (dict(zip(cols[lo:hi], vals[lo:hi]))
                             for lo, hi in zip(ptr, ptr[1:])), lhs, rhs)]

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def binary_indices(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if v.vtype == BINARY]

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(len(self.variables))
        for j, cj in self.objective.items():
            c[j] = cj
        return c


@dataclass
class Solution:
    values: np.ndarray
    objective: float
    feasible: bool
    max_violation: float


def validate_instance(inst: MipInstance) -> list[str]:
    """Check structural invariants; return a list of violation messages.

    An empty list means the instance is valid.  Checks: known sense and
    variable types, unique variable names, consistent bounds (binaries
    within [0, 1]), constraint indices in range and not repeated within
    a row, non-empty rows, and each row having lhs <= rhs with at least
    one finite side.  The rows are checked as arrays.
    """
    errs: list[str] = []
    if inst.sense not in (MINIMIZE, MAXIMIZE):
        errs.append(f"unknown sense {inst.sense!r}")
    seen: set[str] = set()
    for j, v in enumerate(inst.variables):
        if v.name in seen:
            errs.append(f"duplicate variable name {v.name!r}")
        seen.add(v.name)
        if v.vtype not in VTYPES:
            errs.append(f"variable {v.name!r}: unknown vtype {v.vtype!r}")
        if v.lb > v.ub:
            errs.append(f"variable {v.name!r}: lb {v.lb} > ub {v.ub}")
        if v.vtype == BINARY and (v.lb < 0.0 or v.ub > 1.0):
            errs.append(f"variable {v.name!r}: binary bounds outside [0, 1]")
    n, ra, rid = len(inst.variables), inst.rows, inst.rows.row_ids()
    outside = (ra.cols < 0) | (ra.cols >= n)
    key = rid * (n + 1) + np.where(outside, n, ra.cols)  # sorts by row, column
    order = np.argsort(key, kind="stable")
    twin = np.zeros(len(key), dtype=bool)  # a column repeated in its row
    twin[order[1:]] = (np.diff(key[order]) == 0) & ~outside[order[1:]]
    bad = (np.diff(ra.indptr) == 0) | (ra.lhs > ra.rhs) | (
        np.isinf(ra.lhs) & np.isinf(ra.rhs)) | (
        np.bincount(rid, outside | twin, len(ra.lhs)) > 0)
    for i in np.flatnonzero(bad).tolist():
        name, (lo, hi) = inst.row_names[i], ra.indptr[i:i + 2]
        lhs, rhs = float(ra.lhs[i]), float(ra.rhs[i])
        if lo == hi:
            errs.append(f"constraint {name!r}: empty coefficients")
        for j in ra.cols[lo:hi][outside[lo:hi]].tolist():
            errs.append(f"constraint {name!r}: variable index {j} out of range")
        for j in np.unique(ra.cols[lo:hi][twin[lo:hi]]).tolist():
            errs.append(f"constraint {name!r}: variable index {j} repeated")
        if lhs > rhs:
            errs.append(f"constraint {name!r}: lhs {lhs} > rhs {rhs}")
        if math.isinf(lhs) and math.isinf(rhs):
            errs.append(f"constraint {name!r}: both sides infinite")
    for j in inst.objective:
        if not 0 <= j < n:
            errs.append(f"objective: variable index {j} out of range")
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
    return replace(
        inst,
        sense=MINIMIZE,
        objective={j: -c for j, c in inst.objective.items()},
    )


def hamming_coeffs(x_ref, indices) -> dict[int, float]:
    """Coefficients of the Hamming distance to ``x_ref`` over binaries.

    Index j gets 1 where ``x_ref[j]`` is 0 and -1 where it is 1, so the
    distance is ``sum(coeffs[j] * x[j]) + (number of -1 entries)``.
    """
    return {int(j): (-1.0 if x_ref[j] > 0.5 else 1.0) for j in indices}


def evaluate_solution(inst: MipInstance, x) -> Solution:
    """Evaluate a point against the instance exactly as stored.

    Returns objective c.x (in the instance's own sense), the maximum
    violation over constraints, bounds and integrality residuals, and a
    feasibility flag at tolerance 1e-6.  Row activities are summed in
    each row's entry order.  A point with a NaN or infinite entry
    is infeasible, with violation inf.  Raises ValueError on dimension
    mismatch.
    """
    x, n, rows = np.asarray(x, dtype=float), len(inst.variables), inst.rows
    if x.shape != (n,):
        raise ValueError(
            f"solution has shape {x.shape}, instance has {n} variables"
        )
    obj = float(sum(c * x[j] for j, c in inst.objective.items()))
    if not np.isfinite(x).all():
        return Solution(values=x, objective=obj, feasible=False,
                        max_violation=math.inf)
    act = np.bincount(rows.row_ids(), rows.vals * x[rows.cols],
                      minlength=len(rows.lhs))
    lb = np.fromiter((v.lb for v in inst.variables), float, n)
    ub = np.fromiter((v.ub for v in inst.variables), float, n)
    # an infinite side or bound gives -inf here, never a violation
    viol = float(np.concatenate((rows.lhs - act, act - rows.rhs,
                                 lb - x, x - ub)).max(initial=0.0))
    ints = np.fromiter((v.vtype != CONTINUOUS for v in inst.variables),
                       bool, n)
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
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return float(v)


def _num_in(raw, where: str) -> float:
    if isinstance(raw, str):
        if raw == "inf":
            return math.inf
        if raw == "-inf":
            return -math.inf
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


# array elements per encoder call in compact ``write_json``
JSON_CHUNK = 4096


def write_json(path, payload, indent: int | None = 1) -> None:
    """Write ``payload`` to ``path`` as JSON plus a final newline.

    Indented text is built in one ``json.dumps`` call and written once.
    Compact text (``indent`` None) goes through the C encoder one dict
    value at a time, nested dicts included, and a numpy array value is
    written as the JSON list of its flattened elements, ``JSON_CHUNK`` of
    them at a time.  So the encoded pieces of a large payload (the
    parameter arrays of ``model.json``) are never all held at once, nor
    is a Python float per element; the bytes equal one ``json.dumps``
    call's on the payload with each array as ``arr.ravel().tolist()``.
    """
    with open(path, "w") as fh:
        if indent is not None:
            fh.write(json.dumps(payload, indent=indent) + "\n")
            return
        # depth first: each entry is text to write as is or a value to
        # encode, the next one last; a one-entry dict encodes each key
        # as json.dumps does
        todo = [("text", "\n"), ("value", payload)]
        while todo:
            kind, item = todo.pop()
            if kind == "text":
                fh.write(item)
            elif isinstance(item, np.ndarray):
                flat = item.ravel()
                fh.write("[")
                for at in range(0, flat.size, JSON_CHUNK):
                    text = json.dumps(flat[at:at + JSON_CHUNK].tolist())
                    fh.write((", " if at else "") + text[1:-1])
                fh.write("]")
            elif isinstance(item, dict) and item:
                todo.append(("text", "}"))
                seps = ["{"] + [", "] * (len(item) - 1)
                for sep, (key, value) in reversed(list(zip(seps,
                                                           item.items()))):
                    todo.append(("value", value))
                    todo.append(("text", sep + json.dumps({key: None})[1:-5]))
            else:
                fh.write(json.dumps(item))


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


def instance_to_dict(inst: MipInstance) -> dict:
    names = [v.name for v in inst.variables]
    return {
        "name": inst.name,
        "sense": inst.sense,
        "variables": [
            {"name": v.name, "vtype": v.vtype, "lb": _num_out(v.lb), "ub": _num_out(v.ub)}
            for v in inst.variables
        ],
        "constraints": [
            {
                "name": con.name,
                "lhs": _num_out(con.lhs),
                "rhs": _num_out(con.rhs),
                "coeffs": {names[j]: a for j, a in con.coeffs.items()},
            }
            for con in inst.constraints
        ],
        "objective": {names[j]: float(c) for j, c in inst.objective.items()},
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
        try:
            return index[name]
        except KeyError:
            raise InstanceFormatError(f"{where}: unknown variable {name!r}") from None

    constraints = []
    for k, raw in enumerate(data["constraints"]):
        where = f"constraints[{k}]"
        check_keys(raw, {"name", "lhs", "rhs", "coeffs"}, where, InstanceFormatError)
        coeffs = {
            var_index(vn, where): _num_in(a, f"{where}.coeffs[{vn!r}]")
            for vn, a in raw["coeffs"].items()
        }
        constraints.append(
            Constraint(raw["name"], coeffs, _num_in(raw["lhs"], where), _num_in(raw["rhs"], where))
        )
    objective = {
        var_index(vn, "objective"): _num_in(c, f"objective[{vn!r}]")
        for vn, c in data["objective"].items()
    }
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
