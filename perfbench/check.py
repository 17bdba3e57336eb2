"""Independent checks of levelgraph outputs.

Nothing here imports levelgraph.  Every quantity is recomputed from plain
data handed over by the workloads (vertex counts, edge lists, coordinates,
vectors, exported mesh text), so a fault in the program cannot hide behind
the same fault in its checker.  Each check raises CheckError with a short
reason; callers collect the reasons.

Sphere recognition here uses link tests and the classification of closed
surfaces only, so it decides spheres of dimension <= 2 outright, closed
3-manifolds by their links, and 3-spheres and cross-polytopes only through
explicit structural certificates (suspension of a 2-sphere, cross-polytope
complement).  It answers None where those do not apply.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np


class CheckError(Exception):
    pass


def require(ok, why):
    if not ok:
        raise CheckError(why)


# -- graphs as adjacency sets ------------------------------------------------


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        require(u != v and 0 <= u < n and 0 <= v < n, f"bad edge {(u, v)} for n={n}")
        adj[u].add(v)
        adj[v].add(u)
    return adj


def induced(adj, verts):
    verts = sorted(verts)
    index = {v: i for i, v in enumerate(verts)}
    return [{index[u] for u in adj[v] if u in index} for v in verts]


def link(adj, v):
    return induced(adj, adj[v])


def cliques(adj):
    """All complete subgraphs, grouped by dimension, as sorted tuples."""
    groups = []
    level = [((v,), {u for u in adj[v] if u > v}) for v in range(len(adj))]
    while level:
        groups.append([s for s, _ in level])
        nxt = []
        for s, cand in level:
            for v in sorted(cand):
                nxt.append((s + (v,), {u for u in cand if u > v and u in adj[v]}))
        level = nxt
    return groups


def f_vector(adj):
    return [len(g) for g in cliques(adj)]


def euler(adj):
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(f_vector(adj)))


def component_count(adj):
    seen = [False] * len(adj)
    count = 0
    for s in range(len(adj)):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
    return count


# -- spheres and d-graphs by link tests ---------------------------------------


def is_one_graph(adj):
    """Disjoint union of cycles of length >= 4 (every unit sphere is two points)."""
    if any(len(a) != 2 for a in adj):
        return False
    return _smallest_component(adj) >= 4


def _smallest_component(adj):
    seen = [False] * len(adj)
    smallest = math.inf
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        stack, size = [s], 0
        while stack:
            v = stack.pop()
            size += 1
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        smallest = min(smallest, size)
    return smallest


# The link tests below work on a vertex set inside one adjacency list, so
# links of links are never copied out.


def _connected_in(adj, verts):
    if not verts:
        return True
    start = next(iter(verts))
    seen, stack = {start}, [start]
    while stack:
        for u in adj[stack.pop()] & verts:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(verts)


def _circle_in(adj, verts):
    return (len(verts) >= 4 and all(len(adj[u] & verts) == 2 for u in verts)
            and _connected_in(adj, verts))


def _closed_surface_in(adj, verts):
    return all(_circle_in(adj, adj[v] & verts) for v in verts)


def _two_sphere_in(adj, verts):
    # a connected closed surface with chi = 2 is a 2-sphere (classification);
    # on a closed surface every edge lies in two triangles, so chi = V - E/3
    if not verts or not _closed_surface_in(adj, verts) or not _connected_in(adj, verts):
        return False
    edges = sum(len(adj[u] & verts) for u in verts) // 2
    return len(verts) - edges // 3 == 2


def is_circle(adj):
    return _circle_in(adj, set(range(len(adj))))


def is_closed_surface(adj):
    """Every unit sphere is a circle: a closed 2-manifold (possibly several)."""
    return _closed_surface_in(adj, set(range(len(adj))))


def is_two_sphere(adj):
    return _two_sphere_in(adj, set(range(len(adj))))


def is_dgraph(adj, d):
    """Every unit sphere is a (d-1)-sphere, for d <= 3; the empty graph passes."""
    if d == 0:
        return all(not a for a in adj)
    if d == 1:
        return len(adj) == 0 or is_one_graph(adj)
    if d == 2:
        return is_closed_surface(adj)
    if d == 3:
        return all(_two_sphere_in(adj, adj[v]) for v in range(len(adj)))
    raise CheckError(f"no link test for d={d}")


def _cross_polytope_dim(adj):
    """d when the graph is the cross-polytope on 2d+2 vertices, else None."""
    n = len(adj)
    if n < 2 or n % 2 or any(len(a) != n - 2 for a in adj):
        return None
    return n // 2 - 1


def sphere_verdict(adj, d):
    """True / False when decidable here, None otherwise."""
    n = len(adj)
    if d == -1:
        return n == 0
    if d == 0:
        return n == 2 and not adj[0]
    if _cross_polytope_dim(adj) == d:
        return True
    if d == 1:
        return is_circle(adj)
    if d == 2:
        return is_two_sphere(adj)
    if d == 3:
        if n == 0 or component_count(adj) != 1 or not is_dgraph(adj, 3):
            return False
        # closed 3-manifolds have chi = 0; a suspension of a 2-sphere is a 3-sphere
        if euler(adj) != 0:
            return False
        apexes = [v for v in range(n) if len(adj[v]) == n - 2]
        for a, b in combinations(apexes, 2):
            if b not in adj[a]:
                rest = [v for v in range(n) if v not in (a, b)]
                if is_two_sphere(induced(adj, rest)):
                    return True
        return None
    return None


# -- level sets ----------------------------------------------------------------


def straddles(simplex, below):
    first = below[simplex[0]]
    return any(below[v] != first for v in simplex[1:])


def straddle_count(adj, values, level, min_dim=1):
    """Simplices of dimension >= min_dim on which values - level changes sign."""
    below = [x < level for x in values]
    groups = cliques(adj)
    return sum(1 for g in groups[min_dim:] for s in g if straddles(s, below))


def locus_count(adj, functions, levels, min_dim):
    belows = [[x < c for x in f] for f, c in zip(functions, levels)]
    groups = cliques(adj)
    return sum(1 for g in groups[min_dim:] for s in g
               if all(straddles(s, b) for b in belows))


# -- Kuhn grids ----------------------------------------------------------------


def _chains(d):
    """Strictly increasing chains of nonempty subsets of range(d), as 0/1 offsets."""
    subsets = [frozenset(c) for k in range(1, d + 1) for c in combinations(range(d), k)]
    out = []

    def grow(chain):
        if chain:
            out.append(tuple(tuple(1 if i in s else 0 for i in range(d)) for s in chain))
        last = chain[-1] if chain else frozenset()
        for s in subsets:
            if last < s:
                grow(chain + [s])

    grow([])
    return out


def grid_values(poly, lo, step, sizes):
    """Exact values at every lattice point, scaled to integers by one common factor."""
    pts = list(product(*(range(s) for s in sizes)))
    raw = {p: Fraction(poly(*(lo[k] + p[k] * step for k in range(len(p))))) for p in pts}
    scale = 1
    for x in raw.values():
        scale = scale * x.denominator // math.gcd(scale, x.denominator)
    return {p: int(x * scale) for p, x in raw.items()}


def kuhn_straddle_count(values, sizes, level_positive):
    """Kuhn-grid simplices of dimension >= 1 whose vertex values straddle the level.

    values are integer-scaled; the level is 0, or a tiny positive nudge when
    level_positive, in which case a vertex at exactly 0 lies below it.
    """
    d = len(sizes)
    chains = _chains(d)
    below = {p: (v < 0 or (v == 0 and level_positive)) for p, v in values.items()}
    count = 0
    for p, b in below.items():
        for chain in chains:
            top = chain[-1]
            if any(p[k] + top[k] >= sizes[k] for k in range(d)):
                continue
            if any(below[tuple(p[k] + off[k] for k in range(d))] != b for off in chain):
                count += 1
    return count


def check_near_zero_set(points, lo, step, sizes, values):
    """Every point lies in a closed grid cell whose corners straddle zero.

    Such a cell holds a zero of the polynomial, so the point is within one
    cell diameter, step * sqrt(d), of the zero set.  values are the
    integer-scaled lattice values of one polynomial.
    """
    d = len(sizes)
    eps = 1e-9
    for i, x in enumerate(points):
        ranges = []
        for k in range(d):
            t = (x[k] - float(lo[k])) / float(step)
            require(-eps <= t <= sizes[k] - 1 + eps, f"vertex {i} at {x} lies outside the grid")
            # lattice points of every closed cell that contains x along this axis
            a, b = max(math.floor(t - eps), 0), min(math.ceil(t + eps), sizes[k] - 1)
            ranges.append(range(a, b + 1))
        vals = [values[p] for p in product(*ranges)]
        require(min(vals) <= 0 <= max(vals),
                f"vertex {i} at {x} is farther than step*sqrt(d) from the zero set")


# -- meshes ----------------------------------------------------------------------


def parse_off(text):
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    require(lines and lines[0] == ["OFF"], "OFF header missing")
    nv, nf, _ = (int(x) for x in lines[1])
    points = [tuple(float(x) for x in ln) for ln in lines[2:2 + nv]]
    faces = []
    for ln in lines[2 + nv:2 + nv + nf]:
        require(int(ln[0]) == 3 and len(ln) == 4, f"non-triangle face {ln}")
        faces.append(tuple(int(x) for x in ln[1:]))
    require(len(points) == nv and len(faces) == nf, "OFF counts do not match body")
    return points, faces


def parse_obj(text):
    points, faces = [], []
    for ln in text.splitlines():
        parts = ln.split()
        if not parts:
            continue
        if parts[0] == "v":
            points.append(tuple(float(x) for x in parts[1:4]))
        elif parts[0] == "f":
            faces.append(tuple(int(x) - 1 for x in parts[1:4]))
    return points, faces


def check_mesh(points, faces, coords, triangles, chi):
    """V and F match the surface, every face is a surface triangle, V - E + F = chi."""
    require(len(points) == len(coords), f"mesh has {len(points)} vertices, surface {len(coords)}")
    require(len(faces) == triangles, f"mesh has {len(faces)} faces, surface {triangles}")
    for p, q in zip(points, coords):
        require(all(abs(a - b) <= 1e-9 * max(1.0, abs(b)) for a, b in zip(p, q[:3])),
                f"mesh vertex {p} differs from surface point {q}")
    edges = {tuple(sorted(e)) for f in faces for e in combinations(f, 2)}
    require(len(points) - len(edges) + len(faces) == chi,
            f"mesh V-E+F = {len(points) - len(edges) + len(faces)}, expected {chi}")


# -- spectra ---------------------------------------------------------------------


def laplacian(adj):
    n = len(adj)
    L = np.zeros((n, n))
    for v, a in enumerate(adj):
        L[v, v] = len(a)
        for u in a:
            L[v, u] = -1.0
    return L


def laplacian_spectrum(adj):
    return np.linalg.eigvalsh(laplacian(adj))


def check_spectrum(adj, eigenvalues, vectors=None, tol=1e-8):
    """Eigenvalues against numpy's eigvalsh, plus residual and orthonormality.

    None of these depends on the basis a solver picks inside a degenerate
    eigenspace.  Returns the reference eigenvalues.
    """
    L = laplacian(adj)
    want = np.linalg.eigvalsh(L)
    got = np.asarray(eigenvalues, dtype=float)
    require(got.shape == want.shape, f"{got.shape[0]} eigenvalues for n={len(adj)}")
    err = float(np.max(np.abs(got - want))) if len(adj) else 0.0
    require(err <= tol * max(1.0, float(np.max(np.abs(want), initial=1.0))),
            f"eigenvalues differ from eigvalsh by {err:.3e}")
    if vectors is not None:
        V = np.asarray(vectors, dtype=float)
        res = float(np.max(np.linalg.norm(L @ V - V * got, axis=0)))
        require(res <= tol * max(1.0, float(np.max(np.abs(want)))),
                f"eigenpair residual {res:.3e}")
        orth = float(np.max(np.abs(V.T @ V - np.eye(V.shape[1]))))
        require(orth <= tol, f"eigenvectors not orthonormal ({orth:.3e})")
    return want


def signed_component_counts(adj, vector, zero_tol):
    pos = [v for v, x in enumerate(vector) if x > zero_tol]
    neg = [v for v, x in enumerate(vector) if x < -zero_tol]
    return component_count(induced(adj, pos)), component_count(induced(adj, neg))


# -- index theory ------------------------------------------------------------------


def sublevel_euler(adj, values, x):
    below = [v for v in adj[x] if values[v] < values[x]]
    return euler(induced(adj, below))


def curvature(adj, x):
    k = Fraction(1)
    for dim, count in enumerate(f_vector(link(adj, x))):
        k += Fraction((-1) ** (dim + 1) * count, dim + 2)
    return k
