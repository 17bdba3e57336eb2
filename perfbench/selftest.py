#!/usr/bin/env python3
"""Self-tests of the independent checker: it must accept known-good inputs
and reject known-bad ones.  Run with ``python3 perfbench/selftest.py``; the
smoke mode of run.py runs it first.  Exit code 0 when every case behaves.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product

import numpy as np

import check as C


def octahedron():
    n = 6
    return C.adjacency(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u + v != n - 1])


def kuhn_torus(k):
    """The k x k periodic staircase triangulation of the 2-torus."""
    index = {p: i for i, p in enumerate(product(range(k), repeat=2))}
    edges = set()
    for (x, y), i in index.items():
        for dx, dy in ((1, 0), (0, 1), (1, 1)):
            j = index[((x + dx) % k, (y + dy) % k)]
            edges.add((min(i, j), max(i, j)))
    return C.adjacency(k * k, edges)


def cycle(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def rejects(fn, *args):
    try:
        fn(*args)
    except C.CheckError:
        return True
    return False


def cases():
    octa = octahedron()
    torus = kuhn_torus(4)
    yield "octahedron is a 2-sphere", C.sphere_verdict(octa, 2) is True
    yield "torus offered as a 2-sphere is rejected", C.sphere_verdict(torus, 2) is False
    yield "torus is a 2-graph", C.is_dgraph(torus, 2)
    yield "16-cell is a 3-sphere", C.sphere_verdict(
        C.adjacency(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if u + v != 7]), 3)

    square = C.adjacency(4, cycle(4))
    # two 4-cycles glued at vertex 0: vertex 0 has degree 4
    eight = C.adjacency(7, cycle(4) + [(0, 4), (4, 5), (5, 6), (6, 0)])
    yield "4-cycle is a 1-graph", C.is_dgraph(square, 1)
    yield "figure-eight offered as a 1-graph is rejected", not C.is_dgraph(eight, 1)
    yield "triangle is not a 1-graph", not C.is_dgraph(C.adjacency(3, cycle(3)), 1)

    L = C.laplacian(octa)
    values, vectors = np.linalg.eigh(L)
    yield "octahedron spectrum passes", not rejects(C.check_spectrum, octa, values, vectors)
    shifted = values.copy()
    shifted[3] += 1e-3
    yield "shifted eigenvalue list is rejected", rejects(C.check_spectrum, octa, shifted, vectors)
    yield "shifted eigenvalues without vectors are rejected", rejects(
        C.check_spectrum, octa, shifted)
    bent = vectors.copy()
    bent[:, 2] = bent[:, 2] + 1e-3 * bent[:, 5]
    yield "non-eigenvector is rejected", rejects(C.check_spectrum, octa, values, bent)

    step, lo, sizes = Fraction(1, 2), [Fraction(-2)] * 3, [9, 9, 9]
    vals = C.grid_values(lambda x, y, z: x * x + y * y + z * z - 2, lo, step, sizes)
    on = [(2 ** 0.5, 0.0, 0.0), (0.0, -1.0, 1.0), (0.6, 0.8, 1.0)]
    yield "points on the sphere pass", not rejects(C.check_near_zero_set, on, lo, step, sizes, vals)
    moved = on[:2] + [(0.1, 0.1, 0.1)]
    yield "mesh vertex moved off the variety is rejected", rejects(
        C.check_near_zero_set, moved, lo, step, sizes, vals)

    line = {(0,): -1, (1,): 1, (2,): 2, (3,): -3}
    yield "1-D straddle count", C.kuhn_straddle_count(line, [4], False) == 2
    square_vals = {(0, 0): -1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    # edges from (0,0): to (0,1), (1,0), (1,1); both triangles contain (0,0)
    yield "2-D straddle count", C.kuhn_straddle_count(square_vals, [2, 2], False) == 5
    yield "zero lies below a nudged level", C.kuhn_straddle_count(
        {(0,): 0, (1,): 1}, [2], True) == 1 and C.kuhn_straddle_count(
        {(0,): 0, (1,): 1}, [2], False) == 0

    tris = sorted(C.cliques(octa)[2])
    coords = [(1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0), (0, 0, -1.0), (0, -1.0, 0), (-1.0, 0, 0)]
    off = "OFF\n6 8 0\n" + "".join(f"{x} {y} {z}\n" for x, y, z in coords) \
        + "".join(f"3 {a} {b} {c}\n" for a, b, c in tris)
    points, faces = C.parse_off(off)
    yield "octahedron OFF passes", not rejects(C.check_mesh, points, faces, coords, 8, 2)
    yield "OFF with a missing face is rejected", rejects(
        C.check_mesh, points, faces[:-1], coords, 8, 2)
    obj = "".join(f"v {x} {y} {z}\n" for x, y, z in coords) \
        + "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in tris)
    points, faces = C.parse_obj(obj)
    yield "octahedron OBJ passes", not rejects(C.check_mesh, points, faces, coords, 8, 2)
    yield "mesh offered with the wrong chi is rejected", rejects(
        C.check_mesh, points, faces, coords, 8, 0)


def main():
    failures = [name for name, ok in cases() if not ok]
    for name in failures:
        print(f"selftest FAILED: {name}", file=sys.stderr)
    print(f"checker self-tests: {'ok' if not failures else f'{len(failures)} failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
