"""Finite simple graphs together with their clique complexes.

A graph lives on dense vertex ids 0..n-1 and is treated as immutable after
construction.  Simplices are the vertex sets of complete subgraphs, stored
as strictly increasing tuples and grouped by dimension; the k-th entry of
the f-vector counts the k-dimensional simplices.  One enumerator,
cliques(verts), lists the simplices inside a vertex set at a cost that
follows the subgraph on verts; the whole complex is its result on every
vertex, cached on the graph.

Listing is one depth-first walk of the clique tree, _clique_walk: a
clique grows by its candidates (the common neighbours inside verts after
its last vertex), children in increasing order, so a preorder meets each
dimension's cliques in lexicographic order.  It holds the candidate list
of each clique on its path, so beyond its result its memory is
O(depth x degree).  Given a bit mask per vertex, it keeps only the
cliques whose masks OR to a target: levelset._locus asks it for the
cliques that straddle every level.  Counting is a separate loop,
_clique_counts, because a count builds no tuple and need not descend
into the leaves: a clique's candidates add to the next dimension's count
at once.  f_vector() and euler_characteristic read it when no complex is
cached, and _euler_of (the chi of a vertex set) always does.  The
dimension needs only the largest clique, so it is found by a search that
builds no complex when none is cached, unless the builder knew it; that
search drops branches that cannot beat the largest clique found, where a
walk must visit every clique.

Every graph is assembled in one place, SimplicialGraph._assemble, from one
neighbour set per vertex; the assembly checks labels and coordinates for
their length.  Each edge or set is checked once for self loops and ids out
of range (negative ones too): the public constructor checks its edge list
(and a nonnegative count) and turns coordinates into float tuples of one
length (_float_points); induced, refine.containment_graph and
catalog.kuhn_grid fill neighbour sets themselves and call _from_neighbors,
which checks the sets.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import InputError

# A simplex is a strictly increasing tuple of vertex ids.
Simplex = tuple


class SimplicialGraph:
    """Immutable simple graph over vertices 0..n-1.

    Parameters
    ----------
    n : vertex count.
    edges : iterable of (u, v) pairs, u != v, ids in range.  Duplicates
        collapse; orientation is ignored.
    labels : optional per-vertex metadata (e.g. the originating simplex of a
        derived vertex).  Carried along by constructions that keep vertices.
    coordinates : optional per-vertex point used only for mesh export and
        plotting; never consulted by combinatorial code.
    """

    __slots__ = ("n", "neighbors", "labels", "coordinates", "_simplices", "_dimension")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Optional[Sequence] = None,
                 coordinates: Optional[Sequence[Sequence[float]]] = None):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise InputError(f"self loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self._assemble(nbrs, labels, _float_points(coordinates))

    @classmethod
    def _from_neighbors(cls, nbrs: Sequence[set], labels: Optional[Sequence] = None,
                        coordinates: Optional[Sequence[tuple[float, ...]]] = None,
                        dimension: Optional[int] = None) -> "SimplicialGraph":
        """The graph whose vertex v has the neighbours nbrs[v]; see _assemble.

        Each set is checked for a self loop and for ids outside 0..n-1.
        """
        n = len(nbrs)
        for v, s in enumerate(nbrs):
            if v in s:
                raise InputError(f"self loop at vertex {v}")
            if s and not (0 <= min(s) and max(s) < n):
                raise InputError(f"a neighbour of vertex {v} is out of range for n={n}")
        graph = cls.__new__(cls)
        graph._assemble(nbrs, labels, coordinates, dimension)
        return graph

    def _assemble(self, nbrs, labels, coordinates, dimension=None) -> None:
        """Fill in a graph from its neighbour sets; every constructor ends here.

        nbrs[v] is a set of vertex ids, and the sets are symmetric (u is in
        nbrs[v] exactly when v is in nbrs[u]); builders keep that by adding
        each edge at both ends, and the caller has checked them for self
        loops and range.  Labels and coordinates are checked for their
        length.  Coordinates must already be tuples of floats (see
        _float_points).  A builder that knows the dimension passes it, and
        dimension() then searches nothing.
        """
        n = len(nbrs)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise InputError("labels length must equal vertex count")
        if coordinates is not None:
            coordinates = tuple(coordinates)
            if len(coordinates) != n:
                raise InputError("coordinates length must equal vertex count")
        self.n = n
        # a frozenset built from a set gets a table sized for its entries
        self.neighbors = tuple(map(frozenset, nbrs))
        self.labels = labels
        self.coordinates = coordinates
        self._simplices = None
        self._dimension = dimension

    # -- basic accessors -------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted pairs, lexicographically ordered."""
        return [(u, v) for u in range(self.n) for v in sorted(self.neighbors[u]) if u < v]

    def edge_count(self) -> int:
        return sum(len(s) for s in self.neighbors) // 2

    def label_of(self, v: int):
        return self.labels[v] if self.labels is not None else v

    # -- derived graphs --------------------------------------------------

    def induced(self, verts: Iterable[int]) -> "SimplicialGraph":
        """Induced subgraph; vertex labels record where vertices came from.
        An id outside 0..n-1 raises InputError."""
        verts = list(verts)
        sel = sorted(set(verts))
        if sel and (sel[0] < 0 or sel[-1] >= self.n):
            raise _out_of_range(verts, self.n)
        index = {v: i for i, v in enumerate(sel)}
        nbrs = [set() for _ in sel]
        for i, v in enumerate(sel):
            # each edge is added at both ends when its lower end is reached
            for u in self.neighbors[v]:
                if u > v:
                    j = index.get(u)
                    if j is not None:
                        nbrs[i].add(j)
                        nbrs[j].add(i)
        labels = tuple(self.label_of(v) for v in sel)
        coords = tuple(self.coordinates[v] for v in sel) if self.coordinates is not None else None
        return SimplicialGraph._from_neighbors(nbrs, labels, coords)

    # -- clique complex --------------------------------------------------

    def cliques(self, verts: Iterable[int]) -> tuple[tuple[Simplex, ...], ...]:
        """The simplices with every vertex in verts, grouped as simplices() groups them.

        Groups run from dimension 0 to the largest clique inside verts, each
        in lexicographic order, so the result is simplices() with every
        simplex that leaves verts dropped.  They are listed by one
        depth-first walk of verts alone (_clique_walk): a simplex grows by
        the common neighbours inside verts above its last vertex, so the
        cost follows the subgraph on verts, however large the
        neighbourhoods around it.  An id outside 0..n-1 raises InputError.
        When verts holds every vertex the result is the complex, and it is
        cached.
        """
        verts = list(verts)
        keep = set(verts)
        n = self.n
        if keep and (min(keep) < 0 or max(keep) >= n):
            raise _out_of_range(verts, n)
        groups = tuple(map(tuple, _clique_walk(self.neighbors, keep)))
        if len(keep) == n:  # the cliques of every vertex are the whole complex
            self._simplices = groups
        return groups

    def simplices(self) -> tuple[tuple[Simplex, ...], ...]:
        """All simplices grouped by dimension, each group in lexicographic order.

        The complex is the cliques of every vertex, enumerated once and cached.
        """
        return self._simplices if self._simplices is not None else self.cliques(range(self.n))

    def f_vector(self) -> tuple[int, ...]:
        """Simplex counts per dimension: read from the cached complex when
        there is one, otherwise counted by _clique_counts without listing."""
        if self._simplices is not None:
            return tuple(len(g) for g in self._simplices)
        return _clique_counts(self.neighbors, range(self.n))

    def dimension(self) -> int:
        """Largest simplex dimension; -1 for the empty graph.

        Read from the cached complex when there is one.  Otherwise a
        depth-first search for the largest clique finds it without building
        the complex: a clique grows by its candidates (the common neighbours
        above its last vertex, in increasing order), and a branch is dropped
        once its size plus its remaining candidates cannot beat the largest
        clique found so far (Carraghan and Pardalos, Oper. Res. Lett. 9,
        1990).  The answer is kept, so a caller asking once per vertex (as
        morse.ph_index does) runs one search.
        """
        if self._simplices is not None:
            return len(self._simplices) - 1
        if self._dimension is not None:
            return self._dimension
        nbrs = self.neighbors
        best = 0
        for v in range(self.n):
            # entries: (clique size, candidate list, index of the next candidate)
            stack = [(1, sorted(u for u in nbrs[v] if u > v), 0)]
            while stack:
                size, cand, i = stack.pop()
                if size + len(cand) - i <= best:
                    continue
                if i == len(cand):
                    best = size
                    continue
                u = cand[i]
                stack.append((size, cand, i + 1))  # the branch without u
                nu = nbrs[u]
                stack.append((size + 1, [w for w in cand[i + 1:] if w in nu], 0))
        self._dimension = best - 1
        return self._dimension


# -- module level operations ----------------------------------------------


def _out_of_range(verts: list, n: int) -> InputError:
    """The error that names the first id of verts outside 0..n-1."""
    bad = next(v for v in verts if not 0 <= v < n)
    return InputError(f"vertex {bad} is out of range for n={n}")


def _float_points(coordinates: Optional[Sequence[Sequence[float]]]):
    """Coordinates as a tuple of float tuples, the form a graph holds; None stays None.

    Every point must have the same length: interpolation and centroids work
    coordinate by coordinate, and a short point would cut or break them."""
    if coordinates is None:
        return None
    points = tuple(tuple(float(c) for c in p) for p in coordinates)
    if len({len(p) for p in points}) > 1:
        raise InputError("coordinates differ in length")
    return points


def _clique_walk(nbrs: Sequence[frozenset], verts: Iterable[int],
                 masks: Optional[Sequence[int]] = None, target: int = 0) -> list[list[Simplex]]:
    """The cliques of the subgraph on verts, one list per dimension.

    A depth-first walk: a clique is extended by its candidates (the common
    neighbours inside verts after its last vertex) in increasing order, so
    the preorder lists each dimension in lexicographic order.  The walk
    holds the candidate list of each clique on its path, so beyond the
    result its memory is O(depth x degree).  Without masks every clique
    is kept.  With masks (an int per vertex id), a clique is kept when its
    vertices' masks OR to target, and any group may then be empty.
    """
    keep = set(verts)
    size = len(keep)
    groups = [[]] if keep else []
    for v in sorted(keep):
        m = target if masks is None else masks[v]
        if m == target:
            groups[0].append((v,))
        nv = nbrs[v]
        # a neighbour set larger than verts is intersected first, as in _clique_counts
        cand = sorted(u for u in (nv & keep if len(nv) > size else nv) if u > v and u in keep)
        if not cand:
            continue
        if len(groups) == 1:
            groups.append([])
        # cand extends the clique s, whose masks OR to m, and cand[i] is its
        # next candidate; group collects the cliques one vertex larger than
        # s, of dimension k; stack holds (s, m, cand, i) for the path below
        s, i, k, group, stack = (v,), 0, 1, groups[1], []
        while True:
            if i < len(cand):
                u = cand[i]
                i += 1
                t = s + (u,)
                mt = target if masks is None else m | masks[u]
                if mt == target:
                    group.append(t)
                if i < len(cand):  # u has candidates after it
                    nu = nbrs[u]
                    rest = [w for w in cand[i:] if w in nu]
                    if rest:
                        stack.append((s, m, cand, i))
                        s, m, cand, i, k = t, mt, rest, 0, k + 1
                        if k == len(groups):
                            groups.append([])
                        group = groups[k]
            elif stack:
                s, m, cand, i = stack.pop()
                k -= 1
                group = groups[k]
            else:
                break
    return groups


def _clique_counts(nbrs: Sequence[frozenset], verts: Iterable[int]) -> tuple[int, ...]:
    """The f-vector of the subgraph on verts, counted without listing a simplex.

    The counts of cliques(verts), from dimension 0 to the largest clique.
    A depth-first walk: a clique is extended by its candidates (the common
    neighbours inside verts after its last vertex), and their number adds
    to the count of the next dimension.  The walk holds the candidate list
    of each clique on its path, so its memory is O(depth x degree).
    """
    keep = set(verts)
    size = len(keep)
    counts = [size] if keep else []
    for v in keep:
        nv = nbrs[v]
        # a neighbour set larger than verts (a suspension pole's, against a
        # unit sphere) is intersected first, so the scan follows the smaller
        cand = [u for u in (nv & keep if len(nv) > size else nv) if u > v and u in keep]
        if not cand:
            continue
        if len(counts) == 1:
            counts.append(0)
        counts[1] += len(cand)
        # cand extends a clique of k - 1 vertices, and cand[i] is its next
        # candidate; stack holds (cand, i) for the cliques on the path below
        stack, i, k = [], 0, 2
        while True:
            if i + 1 < len(cand):  # cand[i] has candidates after it
                nu = nbrs[cand[i]]
                i += 1
                rest = [w for w in cand[i:] if w in nu]
                if rest:
                    if k == len(counts):
                        counts.append(0)
                    counts[k] += len(rest)
                    if len(rest) > 1:  # one candidate extends no further
                        stack.append((cand, i))
                        cand, i, k = rest, 0, k + 1
            elif stack:
                cand, i = stack.pop()
                k -= 1
            else:
                break
    return tuple(counts)


def euler_characteristic(g: SimplicialGraph) -> int:
    """Alternating sum over the f-vector; 0 for the empty graph."""
    return _alternating_sum(g.f_vector())


def _euler_of(g: SimplicialGraph, verts: Iterable[int]) -> int:
    """The Euler characteristic of the subgraph of g induced on verts,
    counted on g's neighbour sets without listing or building anything."""
    return _alternating_sum(_clique_counts(g.neighbors, verts))


def _alternating_sum(f_vector: Sequence[int]) -> int:
    return sum(count if k % 2 == 0 else -count for k, count in enumerate(f_vector))


def _merge_labels(a: SimplicialGraph, b: SimplicialGraph):
    if a.labels is None and b.labels is None:
        return None
    return tuple(a.label_of(v) for v in range(a.n)) + tuple(b.label_of(v) for v in range(b.n))


def disjoint_union(a: SimplicialGraph, b: SimplicialGraph) -> SimplicialGraph:
    edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    return SimplicialGraph(a.n + b.n, edges, labels=_merge_labels(a, b))


def join(a: SimplicialGraph, b: SimplicialGraph) -> SimplicialGraph:
    """Zykov join: disjoint union plus every edge between the two parts."""
    edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    edges.extend((u, v + a.n) for u in range(a.n) for v in range(b.n))
    return SimplicialGraph(a.n + b.n, edges, labels=_merge_labels(a, b))
