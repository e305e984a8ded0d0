"""Variable-labeled conductance networks and their rank-one pencils.

A network of branches whose conductances are independent variables has
a weighted graph Laplacian that is linear in those variables with
rank-one PSD coefficients.  Eliminating the internal (non-port) nodes
by a Schur complement (Kron reduction) yields the port characteristic
matrix, so every such network gives a realized function directly.

Netlist text format (line oriented, ``#`` starts a comment)::

    ports <name> [<name> ...]
    branch <nodeA> <nodeB> z<k> <weight>

The node name ``GND`` is reserved for the grounded reference node and
is eliminated before pencil assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_POLICY, TolerancePolicy, ValidationError, psd_spectrum
from .pencil import PsdPencil, RealizedFunction

__all__ = ["Branch", "Network", "parse_netlist", "network_pencil"]

GROUND = "GND"


@dataclass(frozen=True)
class Branch:
    node_a: str
    node_b: str
    var: int       # 1-based variable index
    weight: float


@dataclass(frozen=True)
class Network:
    ports: tuple
    branches: tuple

    @property
    def num_vars(self) -> int:
        return max(b.var for b in self.branches)

    @property
    def nodes(self) -> tuple:
        seen = list(self.ports)
        for b in self.branches:
            for name in (b.node_a, b.node_b):
                if name != GROUND and name not in seen:
                    seen.append(name)
        return tuple(seen)


def parse_netlist(text: str) -> Network:
    """Parse and validate the line-oriented netlist format."""
    ports: list[str] = []
    branches: list[Branch] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        if kind == "ports":
            if len(parts) < 2:
                raise ValidationError(f"line {lineno}: ports line needs at least one name")
            for name in parts[1:]:
                if name == GROUND:
                    raise ValidationError(f"line {lineno}: {GROUND} cannot be a port")
                if name in ports:
                    raise ValidationError(f"line {lineno}: duplicate port {name}")
                ports.append(name)
        elif kind == "branch":
            if len(parts) != 5:
                raise ValidationError(f"line {lineno}: branch needs nodeA nodeB z<k> weight")
            _, a, b, var, weight = parts
            if a == b:
                raise ValidationError(f"line {lineno}: branch endpoints coincide")
            if not (var.startswith("z") and var[1:].isdigit() and int(var[1:]) >= 1):
                raise ValidationError(f"line {lineno}: bad variable label {var!r}")
            try:
                g = float(weight)
            except ValueError:
                raise ValidationError(f"line {lineno}: bad weight {weight!r}") from None
            if g <= 0:
                raise ValidationError(f"line {lineno}: weight must be positive")
            branches.append(Branch(a, b, int(var[1:]), g))
        else:
            raise ValidationError(f"line {lineno}: unknown directive {parts[0]!r}")
    if not ports:
        raise ValidationError("netlist declares no ports")
    if not branches:
        raise ValidationError("netlist declares no branches")
    branch_nodes = {n for b in branches for n in (b.node_a, b.node_b)}
    dangling = [p for p in ports if p not in branch_nodes]
    if dangling:
        raise ValidationError(f"dangling port(s) not touched by any branch: {', '.join(dangling)}")
    return Network(tuple(ports), tuple(branches))


def network_pencil(net: Network, pol: TolerancePolicy = DEFAULT_POLICY) -> RealizedFunction:
    """Grounded-Laplacian pencil of a network; ports first, internals after.

    Each branch contributes one rank-one PSD term g w w^T with w the
    signed incidence column over the non-ground nodes; the Schur
    complement over the internal block is the port characteristic
    matrix.  Internal islands disconnected from both ports and ground
    make that block singular for every z and are rejected.
    """
    nodes = net.nodes
    index = {name: i for i, name in enumerate(nodes)}
    n = len(net.ports)
    p = len(nodes) - n
    dim = n + p
    num_vars = net.num_vars
    coeffs = [np.zeros((dim, dim), dtype=complex) for _ in range(num_vars)]
    for b in net.branches:
        w = np.zeros(dim)
        if b.node_a != GROUND:
            w[index[b.node_a]] = 1.0
        if b.node_b != GROUND:
            w[index[b.node_b]] = -1.0
        coeffs[b.var - 1] += b.weight * np.outer(w, w)
    if p and not np.all(psd_spectrum(sum(coeffs)[n:, n:], pol).kept):
        raise ValidationError(
            "internal node block is singular for all z (island disconnected "
            "from ports and ground)")
    pencil = PsdPencil.from_coeffs(coeffs, n, pol)
    return RealizedFunction(pencil, compressed=True)
