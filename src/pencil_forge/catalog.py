"""Machine-readable catalog of the verified operator families.

Eleven built-in cases: the nine two-component families g1..g9 (grouped by
their isometry normal form: translation (1,0) for g1-g3, diagonal
translation (1,1) for g4-g6, scaling (u,-v) for g7-g9), the constant
astigmatism pair, and the three-component potential-flow pair wdvv3.
Each record stores the context, the metric, the isometry, the tail data,
and reference tables the computation is compared against (connection
coefficient matrices, Liouville potential, H potentials, recursion
operator, expected flows).  Built-in records and case files pass the same
schema check (validate_case_data) when a CaseRecord is made, and a record
builds its metric, its operator and its eta once, so their connections
are computed once per record.  builtin_case and builtin_cases return fresh
records, so no cache outlives its caller.  Metric and isometry entries may
hold fields and parameters only, epsilon and c parameters only.
verify_case runs the operator validity conditions, the pair criterion
against the antidiagonal eta, and every reference comparison into one
operators.ValidationReport, without raising; each check's seconds are
measured where it is decided, and they add up to the whole run.

The degenerate-split observation lives here as well.
"""

from __future__ import annotations

from itertools import product

from . import diffgeo as dg
from . import hierarchy as hy
from . import operators as ops
from . import pencil as pc
from . import symcore as sc
from .diffgeo import DegenerateMetricError, Metric, VectorField, first_nonzero, tensor
from .operators import ConstantOp, NonlocalIsometryOp, ValidationReport
from .symcore import Context, Expr

__all__ = [
    "CaseFileError",
    "validate_case_data",
    "CaseRecord",
    "builtin_cases",
    "builtin_case",
    "verify_case",
    "verify_all",
    "degenerate_split_check",
]


# ---------------------------------------------------------------------------
# Case records


class CaseFileError(ValueError):
    """Case file violates the schema or contains unparseable expressions."""


def _schema_error(message: str) -> CaseFileError:
    return CaseFileError(f"case file schema violation: {message}")


def validate_case_data(data) -> None:
    if not isinstance(data, dict):
        raise _schema_error("top level must be an object")
    for key, typ in (("name", str), ("n", int), ("coordinates", list),
                     ("metric", list), ("isometry", list)):
        if key not in data:
            raise _schema_error(f"missing key {key!r}")
        if not isinstance(data[key], typ):
            raise _schema_error(f"{key!r} must be a {typ.__name__}")
    n = data["n"]
    if n < 1:
        raise _schema_error("n must be positive")
    if len(data["coordinates"]) != n:
        raise _schema_error(f"expected {n} coordinates")
    if len(data["metric"]) != n or any(
        not isinstance(row, list) or len(row) != n
        or any(not isinstance(e, str) for e in row)
        for row in data["metric"]
    ):
        raise _schema_error(f"metric must be an {n}x{n} matrix of strings")
    if len(data["isometry"]) != n or any(
        not isinstance(e, str) for e in data["isometry"]
    ):
        raise _schema_error(f"isometry must have {n} string components")
    if any(not isinstance(c, str) for c in data["coordinates"]):
        raise _schema_error("coordinates must be strings")
    for p in data.get("parameters", ()):
        if not isinstance(p, dict) or "name" not in p:
            raise _schema_error("parameters must be objects with a name")
    for f in data.get("functions", ()):
        if not isinstance(f, dict) or "name" not in f or "arg" not in f:
            raise _schema_error("functions must be objects with name and arg")
    for key in ("epsilon", "c"):
        if key in data and not isinstance(data[key], str):
            raise _schema_error(f"{key!r} must be an expression string")
    if "references" in data and not isinstance(data["references"], dict):
        raise _schema_error("references must be an object")


_FIELD_KINDS = ("field", "parameter")


def _parse_in(ctx: Context, text: str, what: str, kinds: tuple[str, ...]) -> Expr:
    """ctx.parse(text); raises ValueError when the value has no normal form or
    holds a symbol whose kind is not in kinds, such as x, t or a jet symbol
    in a metric entry.  Function atoms count by the symbols of their argument."""
    e = ctx.parse(text)
    bad = sorted(s.name for s in e.raw.free_symbols if ctx.kind(s.name) not in kinds)
    if bad:
        raise ValueError(
            f"{what} {text!r} holds {', '.join(bad)}, which is not a {' or '.join(kinds)}"
        )
    try:
        e.normal_form()
    except ValueError as exc:
        raise ValueError(f"{what} {text!r} has no normal form: {exc}") from exc
    return e


class CaseRecord:
    """One named, parameterized case; wraps the JSON-shaped data dict,
    which must pass validate_case_data."""

    def __init__(self, data: dict):
        validate_case_data(data)
        self.data = data
        self.name = data["name"]
        self.n = data["n"]
        self._ctx: Context | None = None
        self._metric: Metric | None = None
        self._isometry: VectorField | None = None
        self._epsilon: Expr | None = None
        self._c: Expr | None = None
        self._operator: NonlocalIsometryOp | None = None
        self._eta: ConstantOp | None = None

    @property
    def description(self) -> str:
        return self.data.get("description", "")

    @property
    def references(self) -> dict:
        return self.data.get("references", {})

    def context(self) -> Context:
        if self._ctx is None:
            params = [p["name"] for p in self.data.get("parameters", ())]
            assume = [
                p["nonzero"] for p in self.data.get("parameters", ())
                if p.get("nonzero")
            ]
            functions = [(f["name"], f["arg"]) for f in self.data.get("functions", ())]
            self._ctx = Context(
                fields=self.data["coordinates"],
                parameters=params,
                functions=functions,
                assume_nonzero=assume,
            )
        return self._ctx

    def metric(self) -> Metric:
        if self._metric is None:
            ctx = self.context()
            self._metric = Metric(ctx, [
                [_parse_in(ctx, text, f"metric entry ({i+1},{j+1})", _FIELD_KINDS)
                 for j, text in enumerate(row)]
                for i, row in enumerate(self.data["metric"])
            ])
        return self._metric

    def isometry(self) -> VectorField:
        if self._isometry is None:
            ctx = self.context()
            self._isometry = VectorField(tuple(
                _parse_in(ctx, text, f"isometry component {i+1}", _FIELD_KINDS)
                for i, text in enumerate(self.data["isometry"])
            ))
        return self._isometry

    def epsilon(self) -> Expr:
        if self._epsilon is None:
            self._epsilon = _parse_in(
                self.context(), self.data.get("epsilon", "1"), "epsilon", ("parameter",))
        return self._epsilon

    def c(self) -> Expr:
        if self._c is None:
            self._c = _parse_in(self.context(), self.data.get("c", "0"), "c", ("parameter",))
        return self._c

    def operator(self) -> NonlocalIsometryOp:
        if self._operator is None:
            self._operator = NonlocalIsometryOp.from_metric(
                self.metric(), self.isometry(), self.epsilon(), self.c()
            )
        return self._operator

    def eta(self) -> ConstantOp:
        if self._eta is None:
            self._eta = ConstantOp.antidiagonal(self.context())
        return self._eta

    def specialize(self, bindings: dict[str, str], suffix: str = "specialized") -> "CaseRecord":
        """New record with parameter bindings substituted into every
        expression; reference tables are dropped."""
        ctx = self.context()
        subs = {name: ctx.parse(text) for name, text in bindings.items()}

        def tr(text: str) -> str:
            return sc.render(sc.substitute(ctx.parse(text), subs))

        data = {
            "name": f"{self.name}-{suffix}",
            "n": self.n,
            "coordinates": list(self.data["coordinates"]),
            "parameters": [dict(p) for p in self.data.get("parameters", ())],
            "functions": [dict(f) for f in self.data.get("functions", ())],
            "metric": [[tr(t) for t in row] for row in self.data["metric"]],
            "isometry": [tr(t) for t in self.data["isometry"]],
            "epsilon": tr(self.data.get("epsilon", "1")),
            "c": tr(self.data.get("c", "0")),
            "description": f"{self.name} with {bindings}",
        }
        return CaseRecord(data)

    def perturb_metric_entry(self, i: int, j: int) -> "CaseRecord":
        """New record with +u added to the (i, j) and (j, i) metric entries
        (u = first coordinate); reference tables are kept, since a
        perturbation can land on another valid operator and only the
        reference comparisons expose it."""
        first = self.data["coordinates"][0]
        metric = [list(row) for row in self.data["metric"]]
        metric[i][j] = f"({metric[i][j]}) + {first}"
        if i != j:
            metric[j][i] = f"({metric[j][i]}) + {first}"
        data = dict(self.data)
        data["name"] = f"{self.name}-perturbed-{i+1}{j+1}"
        data["metric"] = metric
        data["description"] = f"{self.name} with metric entry ({i+1},{j+1}) shifted by {first}"
        return CaseRecord(data)

    def __repr__(self):
        return f"CaseRecord({self.name!r})"


def _case_data() -> list[dict]:
    eps18 = (
        "sqrt((gamma^2 - 4*alpha)*u^2*v^2 + 2*gamma*eps2*u*v + eps2^2)"
    )
    F9 = f"(gamma*u*v + eps2 + {eps18})/(2*u^2)"
    v20 = [
        ["0", "-3*v^2/(2*w^2)", "v^3/w^3"],
        ["1", "3*v/w", "-3*v^2/(2*w^2)"],
        ["0", "1", "0"],
    ]
    return [
        {
            "name": "g1",
            "n": 2,
            "coordinates": ["u", "v"],
            "parameters": [
                {"name": "alpha", "nonzero": "alpha - beta^2"},
                {"name": "beta"},
            ],
            "metric": [["alpha/v", "beta"], ["beta", "v"]],
            "isometry": ["1", "0"],
            "epsilon": "1",
            "c": "0",
            "description": "translation isometry (1,0); metric [[alpha/v, beta], [beta, v]]",
            "references": {
                "recursion": {
                    "entries": [
                        [
                            {"dx": "beta", "mult": "u_x/2"},
                            {"dx": "alpha/v", "mult": "-alpha/(2*v^2)*v_x",
                             "tails": [["1", "1"]]},
                        ],
                        [
                            {"dx": "v", "mult": "v_x/2"},
                            {"dx": "beta", "mult": "-u_x/2"},
                        ],
                    ],
                },
            },
        },
        {
            "name": "g2",
            "n": 2,
            "coordinates": ["u", "v"],
            "parameters": [],
            "functions": [
                {"name": "g11", "arg": "v"},
                {"name": "g12", "arg": "v", "nonzero": True},
            ],
            "metric": [["g11(v)", "g12(v)"], ["g12(v)", "0"]],
            "isometry": ["1", "0"],
            "epsilon": "1",
            "c": "0",
            "description": "translation isometry (1,0); arbitrary functions g11(v), g12(v) != 0",
            "references": {
                "recursion": {
                    "entries": [
                        [
                            {"dx": "g12(v)", "mult": "g12'(v)*v_x"},
                            {"dx": "g11(v)", "mult": "g11'(v)*v_x/2",
                             "tails": [["1", "1"]]},
                        ],
                        [
                            {"dx": "0", "mult": "0"},
                            {"dx": "g12(v)", "mult": "0"},
                        ],
                    ],
                },
            },
        },
        {
            "name": "g3",
            "n": 2,
            "coordinates": ["u", "v"],
            "parameters": [{"name": "beta", "nonzero": "beta"}],
            "metric": [["0", "beta"], ["beta", "v"]],
            "isometry": ["1", "0"],
            "epsilon": "1",
            "c": "0",
            "description": "translation isometry (1,0); metric [[0, beta], [beta, v]], beta != 0",
            "references": {
                "recursion": {
                    "entries": [
                        [
                            {"dx": "beta", "mult": "u_x/2"},
                            {"dx": "0", "mult": "0", "tails": [["1", "1"]]},
                        ],
                        [
                            {"dx": "v", "mult": "v_x/2"},
                            {"dx": "beta", "mult": "-u_x/2"},
                        ],
                    ],
                },
            },
        },
        {
            "name": "g4",
            "n": 2,
            "coordinates": ["u", "v"],
            "parameters": [{"name": "beta", "nonzero": "beta"}],
            "functions": [{"name": "f", "arg": "-u+v"}],
            "metric": [
                ["f(-u+v)", "-f(-u+v) + beta"],
                ["-f(-u+v) + beta", "f(-u+v)"],
            ],
            "isometry": ["1", "1"],
            "epsilon": "1",
            "c": "0",
            "description": "diagonal isometry (1,1); arbitrary non-constant f(-u+v), beta != 0",
            "references": {
                "recursion": {
                    "entries": [
                        [
                            {"dx": "-f(-u+v) + beta",
                             "mult": "f'(-u+v)*(u_x - v_x)/2",
                             "tails": [["1", "1"]]},
                            {"dx": "f(-u+v)",
                             "mult": "f'(-u+v)*(v_x - u_x)/2",
                             "tails": [["1", "1"]]},
                        ],
                        [
                            {"dx": "f(-u+v)",
                             "mult": "f'(-u+v)*(v_x - u_x)/2",
                             "tails": [["1", "1"]]},
                            {"dx": "-f(-u+v) + beta",
                             "mult": "f'(-u+v)*(u_x - v_x)/2",
                             "tails": [["1", "1"]]},
                        ],
                    ],
                },
            },
        },
        {
            "name": "g5",
            "n": 2,
            "coordinates": ["u", "v"],
            "parameters": [{"name": "beta", "nonzero": "beta"}],
            "metric": [["-u + v", "beta"], ["beta", "0"]],
            "isometry": ["1", "1"],
            "epsilon": "1",
            "c": "0",
            "description": "diagonal isometry (1,1); metric [[-u+v, beta], [beta, 0]], beta != 0",
            "references": {
                "recursion": {
                    "entries": [
                        [
                            {"dx": "beta", "mult": "v_x/2", "tails": [["1", "1"]]},
                            {"dx": "-u + v", "mult": "-u_x/2 + v_x/2",
                             "tails": [["1", "1"]]},
                        ],
                        [
                            {"dx": "0", "mult": "0", "tails": [["1", "1"]]},
                            {"dx": "beta", "mult": "-v_x/2", "tails": [["1", "1"]]},
                        ],
                    ],
                },
            },
        },
        {
            "name": "g6",
            "n": 2,
            "coordinates": ["u", "v"],
            "parameters": [
                {"name": "alpha", "nonzero": "alpha*gamma - beta^2"},
                {"name": "beta"},
                {"name": "gamma"},
            ],
            "metric": [["alpha", "beta"], ["beta", "gamma"]],
            "isometry": ["1", "1"],
            "epsilon": "1",
            "c": "0",
            "description": "diagonal isometry (1,1); constant metric, alpha*gamma != beta^2",
            "references": {
                "recursion": {
                    "entries": [
                        [
                            {"dx": "beta", "tails": [["1", "1"]]},
                            {"dx": "alpha", "tails": [["1", "1"]]},
                        ],
                        [
                            {"dx": "gamma", "tails": [["1", "1"]]},
                            {"dx": "beta", "tails": [["1", "1"]]},
                        ],
                    ],
                },
            },
        },
        {
            "name": "g7",
            "n": 2,
            "coordinates": ["u", "v"],
            "parameters": [
                {"name": "alpha"},
                {"name": "beta", "nonzero": "beta"},
                {"name": "eps2"},
            ],
            "metric": [
                ["(alpha*u*v + eps2)/v^2", "beta"],
                ["beta", "0"],
            ],
            "isometry": ["u", "-v"],
            "epsilon": "1",
            "c": "0",
            "description": "scaling isometry (u,-v); metric [[(alpha*u*v + eps2)/v^2, beta], [beta, 0]], beta != 0",
            "references": {
                "recursion": {
                    "entries": [
                        [
                            {"dx": "beta", "mult": "-alpha/(2*v)*v_x",
                             "tails": [["u", "-v"]]},
                            {"dx": "(alpha*u*v + eps2)/v^2",
                             "mult": "alpha/(2*v)*u_x"
                                     " + (alpha*u/(2*v^2) - (alpha*u*v + eps2)/v^3)*v_x",
                             "tails": [["u", "u"]]},
                        ],
                        [
                            {"dx": "0", "mult": "0", "tails": [["v", "v"]]},
                            {"dx": "beta", "mult": "alpha/(2*v)*v_x",
                             "tails": [["-v", "u"]]},
                        ],
                    ],
                },
            },
        },
        {
            "name": "g8",
            "n": 2,
            "coordinates": ["u", "v"],
            "parameters": [
                {"name": "alpha", "nonzero": "alpha - beta^2"},
                {"name": "beta"},
            ],
            "metric": [["u/v", "beta"], ["beta", "alpha*v/u"]],
            "isometry": ["u", "-v"],
            "epsilon": "1",
            "c": "0",
            "description": "scaling isometry (u,-v); metric [[u/v, beta], [beta, alpha*v/u]], alpha != beta^2",
            "references": {
                "recursion": {
                    "entries": [
                        [
                            {"dx": "beta",
                             "mult": "alpha/(2*u)*u_x - 1/(2*v)*v_x",
                             "tails": [["u", "-v"]]},
                            {"dx": "u/v",
                             "mult": "1/(2*v)*u_x - u/(2*v^2)*v_x",
                             "tails": [["u", "u"]]},
                        ],
                        [
                            {"dx": "alpha*v/u",
                             "mult": "-alpha*v/(2*u^2)*u_x + alpha/(2*u)*v_x",
                             "tails": [["v", "v"]]},
                            {"dx": "beta",
                             "mult": "-alpha/(2*u)*u_x + 1/(2*v)*v_x",
                             "tails": [["-v", "u"]]},
                        ],
                    ],
                },
            },
        },
        {
            "name": "g9",
            "n": 2,
            "coordinates": ["u", "v"],
            "parameters": [
                {"name": "alpha", "nonzero": "alpha - beta^2"},
                {"name": "beta"},
                {"name": "gamma"},
                {"name": "eps2"},
            ],
            "metric": [
                [f"alpha/({F9})", "beta"],
                ["beta", F9],
            ],
            "isometry": ["u", "-v"],
            "epsilon": "1",
            "c": "0",
            "description": "scaling isometry (u,-v); radical metric entry"
                           " F = (gamma*u*v + eps2 + sqrt(...))/(2*u^2), alpha != beta^2",
            "references": {},
        },
        {
            "name": "astigmatism",
            "n": 2,
            "coordinates": ["u", "v"],
            "parameters": [
                {"name": "alpha", "nonzero": "alpha - beta^2"},
                {"name": "beta"},
                {"name": "epsilon"},
            ],
            "metric": [["u", "beta"], ["beta", "alpha/u"]],
            "isometry": ["0", "1"],
            "epsilon": "epsilon",
            "c": "0",
            "description": "constant astigmatism pair: metric [[u, beta], [beta, alpha/u]],"
                           " isometry (0,1), symbolic tail coefficient",
            "references": {
                "christoffel": {
                    "u": [["1/2", "0"], ["0", "-alpha/(2*u^2)"]],
                    "v": [["0", "-1/2"], ["1/2", "0"]],
                },
                "liouville": [
                    ["u/2", "-v/2 + beta"],
                    ["v/2", "alpha/(2*u)"],
                ],
                "casimir_flow": {
                    "density": "-2*v",
                    "sign": 1,
                    "V": [["0", "1"], ["alpha/u^2", "0"]],
                    "sigma": ["0", "-2*epsilon*x"],
                },
                "magri": {
                    "h0": "-2*v",
                    "h1": "v^2/2 - ln(u) - x^2*u",
                    "binds": {"alpha": "1", "epsilon": "1"},
                },
                "recursion": {
                    "binds": {"alpha": "1", "beta": "0", "epsilon": "1"},
                    "entries": [
                        [
                            {"dx": "0", "mult": "-v_x/2"},
                            {"dx": "u", "mult": "u_x/2"},
                        ],
                        [
                            {"dx": "1/u", "mult": "-u_x/(2*u^2)",
                             "tails": [["1", "1"]]},
                            {"dx": "0", "mult": "v_x/2"},
                        ],
                    ],
                },
                "degenerate_split": False,
            },
        },
        {
            "name": "wdvv3",
            "n": 3,
            "coordinates": ["u", "v", "w"],
            "parameters": [],
            "metric": [
                ["v^3/w^2", "-3*v^2/(2*w)", "-v + 1"],
                ["-3*v^2/(2*w)", "2*v + 1", "w"],
                ["-v + 1", "w", "0"],
            ],
            "isometry": ["1", "0", "0"],
            "epsilon": "1",
            "c": "0",
            "description": "three-component potential-flow pair; isometry (1,0,0);"
                           " second metric minus eta is degenerate",
            "references": {
                "christoffel": {
                    "u": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
                    "v": [
                        ["3*v^2/(2*w^2)", "0", "0"],
                        ["-3*v/w", "1", "0"],
                        ["-1", "0", "0"],
                    ],
                    "w": [
                        ["-v^3/w^3", "0", "0"],
                        ["3*v^2/(2*w^2)", "0", "0"],
                        ["0", "1", "0"],
                    ],
                },
                "liouville": [
                    ["v^3/(2*w^2)", "u", "1"],
                    ["-3*v^2/(2*w) - u", "(2*v + 1)/2", "0"],
                    ["-v", "w", "0"],
                ],
                "h_potential": [
                    "-u*v - v^3/(2*w)",
                    "u*w + v^2/2 + v/2",
                    "w",
                ],
                "casimir_flow": {
                    "density": "u",
                    "sign": -1,
                    "V": v20,
                    "sigma": ["-x", "0", "0"],
                },
                "density_flow": {
                    "density": "u*v + v^3/(2*w) - x^2*w/2",
                    "V": v20,
                    "sigma": ["-x", "0", "0"],
                },
                "magri": {
                    "h0": "-u",
                    "h1": "u*v + v^3/(2*w) - x^2*w/2",
                },
                "degenerate_split": True,
            },
        },
    ]


def builtin_cases() -> list[CaseRecord]:
    """Fresh records of all built-in cases, ordered by name."""
    return sorted((CaseRecord(d) for d in _case_data()), key=lambda c: c.name)


def builtin_case(name: str) -> CaseRecord:
    """A fresh record of the named built-in case."""
    for data in _case_data():
        if data["name"] == name:
            return CaseRecord(data)
    raise KeyError(f"no builtin case named {name!r}")


# ---------------------------------------------------------------------------
# Verification runner


def _bind_operator(case: CaseRecord, binds: dict[str, str] | None) -> NonlocalIsometryOp:
    op = case.operator()
    if not binds:
        return op
    ctx = case.context()
    subs = {name: ctx.parse(text) for name, text in binds.items()}

    def s(e: Expr) -> Expr:
        return sc.substitute(e, subs)

    metric = Metric(ctx, tensor(op.n, 2, lambda i, j: s(op.metric.entries[i][j])))
    gamma = tensor(op.n, 3, lambda i, j, k: s(op.gamma[i][j][k]))
    iso = VectorField(tuple(s(c) for c in op.isometry.components))
    return NonlocalIsometryOp(metric, gamma, s(op.c), s(op.epsilon), iso)


def _check_christoffel(case: CaseRecord, op: NonlocalIsometryOp):
    ctx = case.context()
    table = case.references["christoffel"]

    def want(k: int, i: int, j: int) -> Expr:
        return ctx.parse(table[ctx.fields[k]][i][j])

    return ops.scan_verdict(
        first_nonzero(
            product(range(op.n), repeat=3), lambda k, i, j: op.gamma[i][j][k] - want(k, i, j)
        ),
        lambda k, i, j, _: f"Gamma^{{{i+1}{j+1}}}_{ctx.fields[k]}: computed"
                           f" {op.gamma[i][j][k]}, reference {want(k, i, j)}",
    )


def _check_liouville(case: CaseRecord, op: NonlocalIsometryOp):
    ctx = case.context()
    ref = [[ctx.parse(t) for t in row] for row in case.references["liouville"]]
    r = ops.liouville_potential(op, ref)
    return ops.scan_verdict(
        first_nonzero(product(range(op.n), repeat=2), lambda i, j: r[i][j] - ref[i][j]),
        lambda i, j, _: f"r^{{{i+1}{j+1}}} = {r[i][j]} differs from reference"
                        f" {ref[i][j]} beyond the constant antisymmetric gauge",
    )


def _check_h_potential(case: CaseRecord, op: NonlocalIsometryOp):
    ctx = case.context()
    H = [ctx.parse(t) for t in case.references["h_potential"]]
    ok = ops.h_potential_check(op, case.eta(), H)
    return ok, None if ok else "potential identities fail for the stored H"


def _parse_symbol_entry(ctx: Context, entry: dict) -> hy.OperatorSymbol:
    dx = ctx.parse(entry.get("dx", "0"))
    mult = ctx.parse(entry.get("mult", "0"))
    tails = tuple(
        (ctx.parse(l), ctx.parse(r)) for l, r in entry.get("tails", ())
    )
    return hy.OperatorSymbol(dx.normalized(), mult.normalized(), tails)


def _check_recursion(case: CaseRecord, op: NonlocalIsometryOp):
    ctx = case.context()
    ref = case.references.get("recursion")
    if ref is None:
        hy.recursion_operator(case.eta(), op)
        return True, "no printed reference; computed without error"
    bound = _bind_operator(case, ref.get("binds"))
    R = hy.recursion_operator(case.eta(), bound)
    n = op.n
    for i in range(n):
        for j in range(n):
            want = _parse_symbol_entry(ctx, ref["entries"][i][j])
            if not hy.symbols_equal(R.entries[i][j], want):
                got = R.entries[i][j]
                return False, (
                    f"R[{i+1}][{j+1}] mismatch: computed"
                    f" dx={got.dx} mult={got.mult}"
                    f" tails={[(str(l), str(r)) for l, r in got.tails]}"
                )
    return True, None


def _parse_flow(ctx: Context, block: dict) -> hy.QuasilinearFlow:
    V = tuple(tuple(ctx.parse(t) for t in row) for row in block["V"])
    sigma = tuple(ctx.parse(t) for t in block["sigma"])
    return hy.QuasilinearFlow(V, sigma)


def _check_casimir_flow(case: CaseRecord, op: NonlocalIsometryOp):
    ctx = case.context()
    block = case.references["casimir_flow"]
    bound = _bind_operator(case, block.get("binds"))
    density = hy.Density(ctx.parse(block["density"]))
    flow = hy.apply_operator(bound, hy.variational_gradient(density))
    ref = _parse_flow(ctx, block)
    sign = int(block.get("sign", 1))
    if flow.equal(ref, sign=sign):
        note = None
        if sign == -1:
            note = (
                "matches the reference flow up to the recorded overall sign"
                " (documented discrepancy, not corrected)"
            )
        return True, note
    return False, "operator applied to the stored gradient differs from the reference flow"


def _check_density_flow(case: CaseRecord, op: NonlocalIsometryOp):
    ctx = case.context()
    block = case.references["density_flow"]
    density = hy.Density(ctx.parse(block["density"]))
    flow = hy.flow_from_density(case.eta(), density)
    ref = _parse_flow(ctx, block)
    ok = flow.equal(ref)
    return ok, None if ok else "flow of the stored density differs from the reference system"


def _check_magri(case: CaseRecord, op: NonlocalIsometryOp):
    ctx = case.context()
    block = case.references["magri"]
    bound = _bind_operator(case, block.get("binds"))
    h0 = hy.Density(ctx.parse(block["h0"]))
    h1 = hy.magri_step(case.eta(), bound, h0)
    want = ctx.parse(block["h1"])
    if not sc.is_zero(h1.h - want):
        return False, f"next density {h1.h} differs from reference {want}"
    regenerated = hy.flow_from_density(case.eta(), h1)
    direct = hy.apply_operator(bound, hy.variational_gradient(h0))
    if not regenerated.equal(direct):
        return False, "regenerated flow differs from the operator flow"
    return True, None


def _check_degenerate_split(case: CaseRecord, op: NonlocalIsometryOp):
    expected = bool(case.references["degenerate_split"])
    actual = degenerate_split_check(case)
    if actual == expected:
        return True, f"det(g - eta) {'vanishes' if actual else 'is nonzero'} as recorded"
    return False, f"degenerate-split verdict {actual}, recorded {expected}"


_REFERENCE_CHECKS = {
    "christoffel": ("christoffel_reference", _check_christoffel),
    "liouville": ("liouville_reference", _check_liouville),
    "h_potential": ("h_potential_reference", _check_h_potential),
    "recursion": ("recursion_reference", _check_recursion),
    "casimir_flow": ("casimir_flow_reference", _check_casimir_flow),
    "density_flow": ("density_flow_reference", _check_density_flow),
    "magri": ("magri_reference", _check_magri),
    "degenerate_split": ("degenerate_split_reference", _check_degenerate_split),
}


def verify_case(case: CaseRecord) -> ValidationReport:
    """Runs operator validity, the pair criterion, and every reference
    comparison attached to the case; sub-check errors are reported, not
    raised.  The operator is built inside the guarded validity step, so
    its seconds go to the first validity item."""
    report = ValidationReport(case.name)

    def run(name: str, fn) -> bool:
        try:
            return report.add(name, *fn())
        except Exception as exc:  # noqa: BLE001 -- reported, not raised
            return report.add(name, False, f"{type(exc).__name__}: {exc}", error=True)

    def well_formed():
        case.metric()
        case.isometry()
        case.epsilon()
        case.c()
        return True, None

    if not run("well_formed", well_formed):
        return report

    def nondegenerate():
        if case.metric().is_degenerate():
            raise DegenerateMetricError(
                f"det(g) = {case.metric().det} vanishes identically"
            )
        return True, None

    if not run("nondegenerate", nondegenerate):
        return report
    if not case.metric().is_symmetric():  # no Levi-Civita connection, so no operator
        report.add("metric_symmetric", False)
        return report

    for validator in (lambda: ops.validate_nonlocal(case.operator()),
                      lambda: pc.pair_check(case.eta(), case.operator())):
        try:
            report.extend(validator())
        except Exception as exc:  # noqa: BLE001
            report.add("validity", False, f"{type(exc).__name__}: {exc}", error=True)

    for key, (name, fn) in _REFERENCE_CHECKS.items():
        if key == "recursion" or key in case.references:
            run(name, lambda fn=fn: fn(case, case.operator()))
    return report


def verify_all(cases: list[CaseRecord] | None = None) -> list[ValidationReport]:
    """verify_case over the catalog, deterministic order by name."""
    if cases is None:
        cases = builtin_cases()
    return [verify_case(c) for c in sorted(cases, key=lambda c: c.name)]


# ---------------------------------------------------------------------------
# Degenerate split


def degenerate_split_check(case: CaseRecord | None = None) -> bool:
    """Whether the second metric minus eta is degenerate for the case."""
    if case is None:
        case = builtin_case("wdvv3")
    g = case.metric()
    eta = case.eta()
    gt = tensor(case.n, 2, lambda i, j: g.entries[i][j] - eta.entries[i][j])
    return sc.is_zero(dg.mat_det(gt))
