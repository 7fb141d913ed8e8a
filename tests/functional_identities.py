"""Functional identities of the wdvv3 family, checked by the tests only.

The potential-associativity residual, the third-order reduction
gamma''' - 6 gamma gamma'' + 9 gamma'^2 and the potential-variable
elimination certify that the wdvv3 pair comes from the stated WDVV
solution; verify does not run them.  Import as a module from the tests
directory.
"""

from pencil_forge import catalog as cat
from pencil_forge import hierarchy as hy
from pencil_forge import symcore as sc
from pencil_forge.diffgeo import contract
from pencil_forge.symcore import Context, Expr


def wdvv_residual(F: Expr) -> Expr:
    """Associativity residual f_www - f_vvw^2 + f_vww*f_vvv for potentials
    of the shape F = u^2 w / 2 + u v^2 / 2 + f(v, w)."""
    ctx = F.ctx
    if ctx.n != 3:
        raise ValueError("three field variables required")
    u, v, w = ctx.fields
    quad = ctx.parse(f"{u}^2*{w}/2 + {u}*{v}^2/2")
    rest = (F - quad).normalized()
    if rest.depends_on(u):
        raise ValueError(
            "potential lacks the quadratic normal part u^2 w/2 + u v^2/2"
        )

    def third(a, b, c):
        return sc.diff(sc.diff(sc.diff(rest, a), b), c)

    res = (
        third(w, w, w)
        - third(v, v, w) * third(v, v, w)
        + third(v, w, w) * third(v, v, v)
    )
    return res.normalized()


def chazy_residual(gamma: Expr, var: str | None = None) -> Expr:
    """gamma''' - 6 gamma gamma'' + 9 gamma'^2 in the given variable
    (defaults to 'w' when declared, else the unique free variable)."""
    ctx = gamma.ctx
    if var is None:
        if ctx.has("w"):
            var = "w"
        else:
            free = sorted(gamma.free_names())
            if len(free) != 1:
                raise ValueError("variable of the reduction is ambiguous")
            var = free[0]
    g1 = sc.diff(gamma, var)
    g2 = sc.diff(g1, var)
    g3 = sc.diff(g2, var)
    return (g3 - 6 * gamma * g2 + 9 * g1 * g1).normalized()


_ZJETS = (
    "z_t", "z_x", "z_tt", "z_tx", "z_xx", "z_ttt", "z_ttx", "z_txx", "z_xxx",
)


# the variables a z-derivative acts on, and their t- and x-derivatives
_ZVARS = ("x", "z_t", "z_x", "z_tt", "z_tx", "z_xx")
_ZIMAGES = {
    True: ("0", "z_tt", "z_tx", "z_ttt", "z_ttx", "z_txx"),
    False: ("1", "z_tx", "z_xx", "z_ttx", "z_txx", "z_xxx"),
}


def _z_derivative(ctx: Context, e: Expr, timewise: bool) -> Expr:
    images = _ZIMAGES[timewise]
    return contract(
        ctx, len(_ZVARS), lambda a: sc.diff(e, _ZVARS[a]) * ctx.parse(images[a])
    ).normalized()


def elimination_residual(flow: hy.QuasilinearFlow | None = None) -> Expr:
    """Residual of the potential-variable reduction of a three-component
    flow of the stored shape (w_t = v_x, v_t = u_x + ..., u-free
    coefficients) against the stored third-order equation

        z_ttt = (3 z_t^2 / (2 z_x))_xt - (z_t^3 / (2 z_x^2))_xx - 1,

    after the substitution w = z_x, v = z_t and elimination of u via the
    cross-derivative (u_x)_t = (u_t)_x."""
    if flow is None:
        case = cat.builtin_case("wdvv3")
        flow = cat._parse_flow(case.context(), case.references["density_flow"])
    ctx = flow.ctx
    n = flow.n
    if n != 3:
        raise ValueError("three-component flow required")
    u, v, w = ctx.fields
    if not (flow.V[2][0].equals(0) and flow.V[2][1].equals(1)
            and flow.V[2][2].equals(0) and flow.sigma[2].equals(0)):
        raise ValueError("third component must read w_t = v_x")
    if not flow.V[1][0].equals(1):
        raise ValueError("second component must carry u_x with coefficient 1")
    if not flow.V[0][0].equals(0):
        raise ValueError("first component must be free of u_x")
    for e in (*[x for row in flow.V for x in row], *flow.sigma):
        if e.depends_on(u):
            raise ValueError("coefficients must not depend on the first field")

    zctx = ctx.extend(parameters=_ZJETS)
    mapping = {v: zctx.parse("z_t"), w: zctx.parse("z_x")}
    jets = {
        ctx.fields[1] + "_x": zctx.parse("z_tx"),
        ctx.fields[2] + "_x": zctx.parse("z_xx"),
    }

    def to_z(e: Expr) -> Expr:
        return sc.substitute(e, mapping)

    # u_x from the second equation: z_tt = u_x + V22 z_tx + V23 z_xx + sigma2
    u_x = (
        zctx.parse("z_tt")
        - to_z(flow.V[1][1]) * jets[ctx.fields[1] + "_x"]
        - to_z(flow.V[1][2]) * jets[ctx.fields[2] + "_x"]
        - to_z(flow.sigma[1])
    ).normalized()
    # u_t from the first equation
    u_t = (
        to_z(flow.V[0][1]) * jets[ctx.fields[1] + "_x"]
        + to_z(flow.V[0][2]) * jets[ctx.fields[2] + "_x"]
        + to_z(flow.sigma[0])
    ).normalized()

    cross = _z_derivative(zctx, u_x, timewise=True) - _z_derivative(zctx, u_t, timewise=False)
    # cross = z_ttt - (...); solve for z_ttt
    z_ttt = zctx.parse("z_ttt")
    solved = (z_ttt - cross).normalized()

    inner_t = zctx.parse("3*z_t^2/(2*z_x)")
    inner_x = zctx.parse("z_t^3/(2*z_x^2)")
    target = (
        _z_derivative(zctx, _z_derivative(zctx, inner_t, timewise=False), timewise=True)
        - _z_derivative(zctx, _z_derivative(zctx, inner_x, timewise=False), timewise=False)
        - zctx.number(1)
    ).normalized()
    return (solved - target).normalized()


def elimination_check(flow: hy.QuasilinearFlow | None = None) -> bool:
    return sc.is_zero(elimination_residual(flow))
