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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import as_coords

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

    ``coeff`` is the validated entry point.  A lift validates through it
    once, at the seed, and then calls ``gamma`` raw in every rhs evaluation:
    ``gamma`` must return an (n, n) float array; non-finite entries (an
    overflow during a blow-up) make the integrator reject the trial step.

    Attributes:
        dimension: chart dimension n.
        gamma: map (p, v) -> n x n coefficient matrix, for 1-d float arrays
            p and v of length n.
        is_linear_in_fiber: whether Gamma(p, a v) = a Gamma(p, v) for all
            scalars a (true for connections built from Christoffel data).
        growth_hint: exponent alpha with ||Gamma(p, v)|| = O(||v||^alpha)
            on compact sets of base points, when known.
    """

    dimension: int
    gamma: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    is_linear_in_fiber: bool = False
    growth_hint: float | None = None
    name: str = "custom"
    params: dict = field(default_factory=dict)

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
        mat = np.asarray(self.gamma(pc, vc), dtype=float)
        if mat.shape != (n, n):
            raise ValueError(f"coefficient map returned shape {mat.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"coefficient matrix is not finite at p={pc}, v={vc}")
        return mat

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
    the induced lift equation is the classical transport equation.
    """
    n = int(n)

    def gamma(p: np.ndarray, v: np.ndarray) -> np.ndarray:
        G = np.asarray(christoffel(p), dtype=float)
        if G.shape != (n, n, n):
            raise ValueError(f"christoffel map returned shape {G.shape}, expected ({n}, {n}, {n})")
        return np.einsum("kij,j->ki", G, v)

    return ConnectionField(
        dimension=n,
        gamma=gamma,
        is_linear_in_fiber=True,
        growth_hint=1.0,
        name=name,
        params=dict(params or {}),
    )


def _stereographic_christoffels(p: np.ndarray) -> np.ndarray:
    # Round metric 4 delta_ij / (1 + |p|^2)^2 on the plane chart; conformal
    # factor phi = log 2 - log(1 + |p|^2) gives
    # G^k_ij = d_i phi delta_kj + d_j phi delta_ki - d_k phi delta_ij.
    n = p.size
    dphi = -2.0 * p / (1.0 + p @ p)
    eye = np.eye(n)
    return (
        np.einsum("j,ki->kij", dphi, eye)
        + np.einsum("i,kj->kij", dphi, eye)
        - np.einsum("k,ij->kij", dphi, eye)
    )


def _polynomial_christoffels(n: int, terms):
    parsed = []
    for t in terms:
        k, i, j = int(t["k"]), int(t["i"]), int(t["j"])
        if not (0 <= k < n and 0 <= i < n and 0 <= j < n):
            raise ValueError(f"christoffel term indices {k},{i},{j} out of range for n={n}")
        mono = np.asarray(t.get("monomial", [0] * n), dtype=float)
        if mono.shape != (n,):
            raise ValueError(f"monomial {t.get('monomial')!r} must list one exponent per coordinate")
        parsed.append((k, i, j, float(t["coeff"]), mono))

    def chris(p: np.ndarray) -> np.ndarray:
        G = np.zeros((n, n, n))
        for k, i, j, c, mono in parsed:
            G[k, i, j] += c * np.prod(p ** mono)
        return G

    return chris


# name -> (fixed dimension or None if flexible, brief description)
_GALLERY = {
    "flat": (None, "zero coefficients; horizontal = basal everywhere"),
    "fig1": (1, "blow-up witness Gamma(p,v) = -(1+v^2); lifts are shifted tangents"),
    "scalar-linear": (1, "Gamma(p,v) = lambda v; transport scales by exp(-lambda displacement)"),
    "power-growth": (1, "Gamma(p,v) = -(1+v^2)^(alpha/2); fiber growth of order alpha"),
    "sphere-stereographic": (2, "round-sphere transport in the stereographic plane chart"),
    "christoffel": (None, "linear connection from polynomial Christoffel terms"),
}


def gallery_members() -> list[dict]:
    """Deterministic metadata listing of the built-in connection gallery."""
    rows = []
    for name in sorted(_GALLERY):
        dim, desc = _GALLERY[name]
        probe = {
            "flat": ConnectionSpec("flat"),
            "fig1": ConnectionSpec("fig1"),
            "scalar-linear": ConnectionSpec("scalar-linear", {"lambda": 1.0}),
            "power-growth": ConnectionSpec("power-growth", {"alpha": 1.0}),
            "sphere-stereographic": ConnectionSpec("sphere-stereographic"),
            "christoffel": None,
        }[name]
        if probe is None:
            linear, growth = True, 1.0
        else:
            conn = gallery(probe)
            linear, growth = conn.is_linear_in_fiber, conn.growth_hint
        rows.append(
            {
                "name": name,
                "dimension": dim if dim is not None else "any",
                "is_linear_in_fiber": linear,
                "growth_hint": "alpha" if name == "power-growth" else growth,
                "description": desc,
            }
        )
    return rows


def gallery(spec: ConnectionSpec | str) -> ConnectionField:
    """Resolve a connection description to a ConnectionField.

    Members: flat | fig1 | scalar-linear(lambda) | power-growth(alpha) |
    sphere-stereographic | christoffel(dimension, terms).
    """
    if isinstance(spec, str):
        spec = ConnectionSpec(spec)
    name, params = spec.name, spec.params

    if name == "flat":
        n = int(params.get("dimension", 1))
        zero = np.zeros((n, n))
        return ConnectionField(n, lambda p, v: zero, True, 0.0, "flat", {"dimension": n})

    if name == "fig1":
        def gamma(p, v):
            return np.array([[-(1.0 + v[0] ** 2)]])

        return ConnectionField(1, gamma, False, 2.0, "fig1")

    if name == "scalar-linear":
        lam = float(params.get("lambda", 1.0))

        def gamma(p, v, lam=lam):
            return np.array([[lam * v[0]]])

        return ConnectionField(1, gamma, True, 1.0, "scalar-linear", {"lambda": lam})

    if name == "power-growth":
        if "alpha" not in params:
            raise ValueError("power-growth needs parameter 'alpha'")
        alpha = float(params["alpha"])
        if alpha < 0 or not np.isfinite(alpha):
            raise ValueError(f"power-growth alpha must be >= 0, got {alpha}")

        def gamma(p, v, alpha=alpha):
            return np.array([[-((1.0 + v[0] ** 2) ** (alpha / 2.0))]])

        return ConnectionField(1, gamma, False, alpha, "power-growth", {"alpha": alpha})

    if name == "sphere-stereographic":
        return make_linear_connection(2, _stereographic_christoffels, "sphere-stereographic")

    if name == "christoffel":
        if "dimension" not in params or "terms" not in params:
            raise ValueError("christoffel spec needs 'dimension' and 'terms'")
        n = int(params["dimension"])
        chris = _polynomial_christoffels(n, params["terms"])
        return make_linear_connection(n, chris, "christoffel", {"dimension": n})

    raise ValueError(f"unknown gallery connection {name!r}")


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
