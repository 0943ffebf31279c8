"""Connections stored as fiber-dependent coefficient fields.

A connection on the chart R^n is represented by its coefficient map
Gamma(p, v), an n x n matrix acting on base velocities.  The horizontal
space at (p, v) is the graph

    H_(p,v) = {(u, -Gamma(p, v) u) : u in R^n},

inside the basal (+) vertical splitting of R^2n, and the vertical space is
{0} x R^n.  The induced lift equation is Dc = -Gamma(gamma, c) gamma_dot,
which for a linear connection built from Christoffel coefficients is the
classical parallel-transport equation Dc^k = -G^k_ij gamma_dot^i c^j.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import as_coords
from .integrate import _plain_sum

__all__ = [
    "ConnectionField",
    "ConnectionSpec",
    "make_linear_connection",
    "gallery",
    "gallery_members",
    "connection_from_json",
]


@dataclass(frozen=True)
class ConnectionField:
    """A connection given by its coefficient map Gamma(p, v).

    ``coeff`` is the validated entry point: ``row``, the one shape check of
    a call on one point and one fiber vector, plus dimension and finiteness
    checks.  A lift validates through it once, at the seed, and then calls
    ``gamma`` raw in every rhs evaluation, or contracts the tensors of
    ``christoffel`` (below): ``gamma`` must return an (n, n) float array;
    non-finite entries (an overflow during a blow-up) make the integrator
    reject the trial step.

    When ``broadcasts`` is true, ``gamma`` also evaluates a stack: for v of
    shape (k, n) and p of shape (n,) or (k, n) it returns the (k, n, n)
    matrices of the rows, each bit for bit the matrix of a single call.
    ``stack`` is the one reader of the flag: lifts and fiber scans get their
    (k, n, n) stacks from it, one ``gamma`` call per stack when the flag is
    set, else one ``row`` per row.  A stack of one row is one ``row`` call
    either way, so a map that claims the flag but takes one row only still
    lifts a lone seed.  The built-in members broadcast.

    When ``uses_base`` is false, ``gamma`` must not read p: lifts then pass
    the path's starting point instead of its position at each stage.

    ``float_vertical(p, v, u)``, the float form, is the vertical velocity
    -Gamma(p, v) u in Python floats: for floats p, v and u in 1-d, a float,
    and for n-lists in n-d, a list.  Each entry is bit for bit that of the
    lift's product of ``-gamma(p, v)`` with u, its terms added left to right
    and then to +0.0, but for a NaN's sign.  Lifts then step every lane in
    Python floats.  Only the gallery builders set it, on every member but
    christoffel.  It is no ``__init__`` argument: ``dataclasses.replace``
    drops it, and the copy lifts through ``gamma``, stacked, to the same bits.

    ``christoffel(P)``, set on the members built from Christoffel data, maps
    a (k, n) stack of base points to their (k, n, n, n) tensors G^k_ij;
    ``gamma(p, v)`` is their contraction sum_j G^k_ij v^j, bit for bit.  A
    lift builds them once per step, at all its stage base points, and a
    stage only contracts them.  The contraction is numpy's einsum, in its
    own order: for n = 3 it adds (p0 + p2) + p1, the one lift sum not added
    left to right.  Like ``float_vertical`` it is no ``__init__`` argument,
    so a replaced ``gamma`` is never paired with the old tensors.

    Attributes:
        dimension: chart dimension n.
        gamma: map (p, v) -> n x n coefficient matrix, for 1-d float arrays
            p and v of length n.
        is_linear_in_fiber: whether Gamma(p, a v) = a Gamma(p, v) for all
            scalars a (true for connections built from Christoffel data).
        growth_hint: exponent alpha with ||Gamma(p, v)|| = O(||v||^alpha)
            on compact sets of base points, when known.
        broadcasts: whether ``gamma`` evaluates stacks of rows as above.
        uses_base: whether ``gamma`` reads p; false for flat, fig1,
            scalar-linear and power-growth.
    """

    dimension: int
    gamma: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    is_linear_in_fiber: bool = False
    growth_hint: float | None = None
    name: str = "custom"
    params: dict = field(default_factory=dict)
    broadcasts: bool = False
    uses_base: bool = True
    float_vertical: Callable[..., float | list] | None = field(
        default=None, init=False, repr=False, compare=False)
    christoffel: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def coeff(self, p, v) -> np.ndarray:
        """Coefficient matrix Gamma(p, v); validates dimensions and finiteness."""
        pc = as_coords(p, "base point")
        vc = as_coords(v, "fiber vector")
        n = self.dimension
        if pc.size != n or vc.size != n:
            raise ValueError(
                f"connection has dimension {n}, got point of length {pc.size} "
                f"and vector of length {vc.size}"
            )
        mat = self.row(pc, vc)
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"coefficient matrix is not finite at p={pc}, v={vc}")
        return mat

    def row(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Float (n, n) Gamma at one point p and fiber vector v, both (n,); entries unchecked."""
        mat, n = np.asarray(self.gamma(p, v), dtype=float), self.dimension
        if mat.shape != (n, n):
            raise ValueError(f"coefficient map returned shape {mat.shape}, expected ({n}, {n})")
        return mat

    def stack(self, p: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Float (k, n, n) Gamma at p (n,) or (k, n) and the rows of V (k, n); entries unchecked."""
        if len(V) == 1:
            return self.row(p if p.ndim == 1 else p[0], V[0])[None]
        if not self.broadcasts:
            return np.array([self.row(q, v) for q, v in zip(np.broadcast_to(p, V.shape), V)])
        G, shape = np.asarray(self.gamma(p, V), dtype=float), V.shape + (self.dimension,)
        if G.shape != shape:
            raise ValueError(f"coefficient map returned shape {G.shape}, expected {shape}")
        return G

    def horizontal_basis(self, p, v) -> np.ndarray:
        """Columns spanning H_(p,v): column j is (e_j, -Gamma(p,v) e_j) in R^2n.

        The top n x n block is the identity (graph parametrization over the
        basal space).
        """
        g = self.coeff(p, v)
        n = self.dimension
        return np.vstack([np.eye(n), -g])

    def vertical_basis(self) -> np.ndarray:
        """Columns spanning the vertical space {0} x R^n."""
        n = self.dimension
        return np.vstack([np.zeros((n, n)), np.eye(n)])


@dataclass(frozen=True)
class ConnectionSpec:
    """Parsed description of a connection: gallery name plus parameters."""

    name: str
    params: dict = field(default_factory=dict)


def make_linear_connection(n: int, christoffel, name: str = "christoffel",
                           params: dict | None = None) -> ConnectionField:
    """Connection from Christoffel coefficients G^k_ij(p).

    ``christoffel`` maps a base point to an (n, n, n) array indexed [k, i, j];
    the coefficient matrix is (Gamma(p, v) u)^k = sum_ij G^k_ij(p) u^i v^j, so
    the induced lift equation is the classical transport equation.  ``n``
    must be a positive integer.

    ``gamma`` broadcasts; each call builds the tensors anew, calling
    ``christoffel`` once per row of a (k, n) stack of base points, as lifts
    do on the stack of a step's stage base points (see ConnectionField).
    """
    n = _dimension(name, n)

    def tensors(p: np.ndarray) -> np.ndarray:  # (n,) or (k, n) points to their tensors
        G = np.asarray(christoffel(p) if p.ndim == 1 else [christoffel(q) for q in p], dtype=float)
        shape = p.shape[:-1] + (n, n, n)
        if G.shape != shape:
            raise ValueError(f"christoffel map returned shape {G.shape}, expected {shape}")
        return G

    conn = ConnectionField(
        dimension=n,
        gamma=lambda p, v: _contract(tensors(p), v),
        is_linear_in_fiber=True,
        growth_hint=1.0,
        name=name,
        params=dict(params or {}),
        broadcasts=True,
    )
    object.__setattr__(conn, "christoffel", tensors)
    return conn


def _contract(G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gamma(p, v)^k_i = sum_j G^k_ij(p) v^j, for one point or a stack of them."""
    return np.einsum("...kij,...j->...ki", G, v)


def _polynomial_christoffels(n: int, terms):
    if not isinstance(terms, list):
        raise ValueError(f"christoffel terms must be a list of objects, got {terms!r}")
    parsed = []
    for t in terms:
        if not isinstance(t, dict):
            raise ValueError(f"christoffel term must be an object, got {t!r}")
        for key in ("k", "i", "j", "coeff"):
            if key not in t:
                raise ValueError(f"christoffel term {t!r} is missing field {key!r}")
        index = [_number(t[key]) for key in "kij"]
        for key, x in zip("kij", index):
            if not (x.is_integer() and 0 <= x < n):
                raise ValueError(f"christoffel term {key} must be an integer in [0, {n}), "
                                 f"got {t[key]!r}")
        coeff = _number(t["coeff"])
        if not np.isfinite(coeff):
            raise ValueError(f"christoffel term coeff must be a finite number, got {t['coeff']!r}")
        mono = as_coords(t.get("monomial", [0] * n), "christoffel term monomial")
        if mono.shape != (n,):
            raise ValueError(f"monomial {t.get('monomial')!r} must list one exponent per coordinate")
        parsed.append((*map(int, index), coeff, mono))

    def chris(p: np.ndarray) -> np.ndarray:
        G = np.zeros((n, n, n))
        for k, i, j, c, mono in parsed:
            G[k, i, j] += c * np.prod(p ** mono)
        return G

    return chris


def _number(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return float("nan")


def _dimension(name: str, value) -> int:
    x = _number(value)
    if not (x.is_integer() and x >= 1):
        raise ValueError(f"{name} dimension must be a positive integer, got {value!r}")
    return int(x)


# The members broadcast (see ConnectionField), and all but the linear
# connections ignore the base point.  One formula on v[..., None] serves a
# single row and a stack.  The 1-d members also get their float form, on
# floats: 0.0 + (-Gamma) u, as the lift's 1x1 product adds it.  The powers use
# float_power, which rounds like its ``**`` where an array ``**`` does not.
def _pow(x: float, e: float) -> float:  # libm pow, as np.float_power; inf on overflow
    try:
        return x ** e
    except OverflowError:
        return math.inf


def _flat(params: dict) -> ConnectionField:
    n = _dimension("flat", params.get("dimension", 1))

    def gamma(p, v):
        return np.zeros(v.shape + (n,))

    conn = ConnectionField(n, gamma, True, 0.0, "flat", {"dimension": n}, True, False)
    # Zero rows times u add to +0.0 (in n-d for a finite u), in a list built per call.
    object.__setattr__(conn, "float_vertical",
                       (lambda p, v, u: 0.0 - 0.0 * u) if n == 1 else lambda p, v, u: [0.0] * n)
    return conn


def _fig1(params: dict) -> ConnectionField:
    def gamma(p, v):
        return -(1.0 + np.float_power(v[..., None], 2))

    conn = ConnectionField(1, gamma, False, 2.0, "fig1", broadcasts=True, uses_base=False)
    object.__setattr__(conn, "float_vertical", lambda p, v, u: 0.0 + (1.0 + _pow(v, 2)) * u)
    return conn


def _scalar_linear(params: dict) -> ConnectionField:
    value = params.get("lambda", 1.0)
    lam = _number(value)
    if not np.isfinite(lam):
        raise ValueError(f"scalar-linear lambda must be finite, got {value!r}")

    def gamma(p, v, lam=lam):
        return lam * v[..., None]

    conn = ConnectionField(1, gamma, True, 1.0, "scalar-linear", {"lambda": lam}, True, False)
    object.__setattr__(conn, "float_vertical", lambda p, v, u: 0.0 - lam * v * u)
    return conn


def _power_growth(params: dict) -> ConnectionField:
    if "alpha" not in params:
        raise ValueError("power-growth needs parameter 'alpha'")
    alpha = _number(params["alpha"])
    if not (alpha >= 0 and np.isfinite(alpha)):
        raise ValueError(f"power-growth alpha must be >= 0, got {params['alpha']!r}")

    def gamma(p, v, alpha=alpha):
        return -np.float_power(1.0 + np.float_power(v[..., None], 2), alpha / 2.0)

    def vertical(p: float, v: float, u: float, e: float = alpha / 2.0) -> float:
        return 0.0 + _pow(1.0 + _pow(v, 2), e) * u

    conn = ConnectionField(1, gamma, False, alpha, "power-growth", {"alpha": alpha}, True, False)
    object.__setattr__(conn, "float_vertical", vertical)
    return conn


def _sphere(params: dict) -> ConnectionField:
    # The round metric 4 delta_ij / (1 + |p|^2)^2 on the plane chart has the
    # conformal factor phi = log 2 - log(1 + |p|^2), so with dphi = -2 p / (1 +
    # |p|^2), G^k_ij = dphi_i delta_kj + dphi_j delta_ki - dphi_k delta_ij and
    # Gamma(p, v) = (dphi . v) I + v dphi^T - dphi v^T.  Both dots add left to
    # right, as the float form adds them.
    eye = np.eye(2)

    def gamma(p, v):
        dphi = -2.0 * p / (1.0 + _plain_sum(p * p))[..., None]
        return ((_plain_sum(dphi * v)[..., None, None] * eye + v[..., :, None] * dphi[..., None, :])
                - dphi[..., :, None] * v[..., None, :])

    def vertical(p, v, u):
        # gamma's entries, then each row times u from +0.0: 0.0 - a - b is
        # 0.0 + (-a) + (-b) to the bit.  An off-diagonal entry drops gamma's
        # (dphi . v) * 0.0, which moves no bit of a finite row's sum.
        (p0, p1), (v0, v1), (u0, u1) = p, v, u
        s = 1.0 + (p0 * p0 + p1 * p1)
        d0, d1 = -2.0 * p0 / s, -2.0 * p1 / s
        dv = d0 * v0 + d1 * v1
        return [0.0 - ((dv + v0 * d0) - d0 * v0) * u0 - (v0 * d1 - d0 * v1) * u1,
                0.0 - (v1 * d0 - d1 * v0) * u0 - ((dv + v1 * d1) - d1 * v1) * u1]

    conn = ConnectionField(2, gamma, True, 1.0, "sphere-stereographic", broadcasts=True)
    object.__setattr__(conn, "float_vertical", vertical)
    return conn


def _christoffel(params: dict) -> ConnectionField:
    if "dimension" not in params or "terms" not in params:
        raise ValueError("christoffel spec needs 'dimension' and 'terms'")
    n = _dimension("christoffel", params["dimension"])
    chris = _polynomial_christoffels(n, params["terms"])
    return make_linear_connection(n, chris, "christoffel", {"dimension": n})


@dataclass(frozen=True)
class _Member:
    """A gallery member: its builder, and the facts the listing and the CLI show."""

    build: Callable[[dict], ConnectionField]
    dimension: int | None  # None: any chart dimension, set by the "dimension" parameter
    params: tuple[str, ...]  # the parameters it reads; the only one is the value of name:value
    linear: bool
    growth: float | str  # a parameter's name when the growth order is that parameter
    description: str


_GALLERY = {
    "christoffel": _Member(_christoffel, None, ("dimension", "terms"), True, 1.0,
                           "linear connection from polynomial Christoffel terms"),
    "fig1": _Member(_fig1, 1, (), False, 2.0,
                    "blow-up witness Gamma(p,v) = -(1+v^2); lifts are shifted tangents"),
    "flat": _Member(_flat, None, ("dimension",), True, 0.0,
                    "zero coefficients; horizontal = basal everywhere"),
    "power-growth": _Member(_power_growth, 1, ("alpha",), False, "alpha",
                            "Gamma(p,v) = -(1+v^2)^(alpha/2); fiber growth of order alpha"),
    "scalar-linear": _Member(_scalar_linear, 1, ("lambda",), True, 1.0,
                             "Gamma(p,v) = lambda v; transport scales by exp(-lambda displacement)"),
    "sphere-stereographic": _Member(_sphere, 2, (), True, 1.0,
                                    "round-sphere transport in the stereographic plane chart"),
}


def _member(name: str) -> _Member:
    if not isinstance(name, str) or name not in _GALLERY:
        raise ValueError(f"unknown gallery connection {name!r}")
    return _GALLERY[name]


def gallery_members() -> list[dict]:
    """Deterministic metadata listing of the built-in connection gallery."""
    return [
        {
            "name": name,
            "dimension": m.dimension if m.dimension is not None else "any",
            "is_linear_in_fiber": m.linear,
            "growth_hint": m.growth,
            "description": m.description,
        }
        for name, m in sorted(_GALLERY.items())
    ]


def gallery(spec: ConnectionSpec | str) -> ConnectionField:
    """Resolve a connection description to a ConnectionField.

    Members: flat(dimension) | fig1 | scalar-linear(lambda) | power-growth(alpha) |
    sphere-stereographic | christoffel(dimension, terms).  A parameter the
    member does not read is an error.
    """
    if isinstance(spec, str):
        spec = ConnectionSpec(spec)
    member = _member(spec.name)
    for key in spec.params:
        if key not in member.params:
            raise ValueError(f"connection {spec.name!r} takes no parameter {key!r}")
    return member.build(spec.params)


def _inline_spec(text: str, dimension: int | None = None) -> ConnectionSpec:
    """Spec of the command-line form ``name`` or ``name:value`` of a gallery member.

    ``value`` is one number, the member's only parameter.  A member of no
    fixed dimension is given ``dimension`` when the text does not set it.
    """
    name, _, value = text.partition(":")
    member = _member(name)
    params: dict = {}
    if value:
        if len(member.params) != 1:
            raise ValueError(f"connection {name!r} takes no inline parameter")
        try:
            params[member.params[0]] = float(value)
        except ValueError:
            raise ValueError(f"{name} {member.params[0]} must be one number, got {value!r}") from None
    if member.dimension is None and dimension is not None:
        params.setdefault("dimension", dimension)
    return ConnectionSpec(name, params)


def connection_from_json(spec) -> ConnectionField:
    """Build a connection from its JSON description (dict or JSON string).

    Examples: {"name": "fig1"}, {"name": "scalar-linear", "lambda": 1.0},
    {"name": "christoffel", "dimension": 2, "terms": [...]}.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict) or "name" not in spec:
        raise ValueError("connection spec must be an object with a 'name' field")
    params = {k: v for k, v in spec.items() if k != "name"}
    return gallery(ConnectionSpec(spec["name"], params))
