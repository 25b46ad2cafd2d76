"""Seeded input generator for the benchmark workloads.

This module imports only json, random and fractions; in particular it never
imports the library under test, so the facts it computes are an independent
oracle for the output checks.  ``generate(workload, seed)`` returns the files
to write (name -> text), the facts the output checks need, and the input
sizes.  The same workload and seed always give byte-identical file texts.

A diagram is held as ``vertices`` (one id list per level), ``edges`` (one
list of (id, src, rng) per floor) and ``p`` (one {id: Fraction} per floor);
edge ids need only be unique within their floor.
"""

import json
import random
from fractions import Fraction

WORKLOADS = ("deep-triangle", "wide-paths", "algebra-graphs")

# deep-triangle: the big file feeds every command but decompose, which is
# cubic in depth today and runs on a truncation of the same walk
TRIANGLE_DEPTH = 100
DECOMPOSE_DEPTH = 32
# wide-paths: 3 roots, out-degree 3, 7 floors: 3 * 3^7 = 6561 full paths;
# small enough that a run takes several samples of every command
WIDE_DEPTH = 7
WIDE_ROOTS = 3
WIDE_WIDTH = 6
WIDE_OUT = 3
RN_PAIRS = 4
PASCAL_DEPTH = 12
PASCAL_T = "1/3"
# algebra-graphs: (|X|, |E|, |V| = |Vbar|) per graph, graded
GRAPH_SIZES = ((4, 6, 2), (6, 8, 2), (9, 11, 3), (10, 12, 3), (12, 14, 3))


def _rat(q):
    return f"{q.numerator}/{q.denominator}"


def _dump(payload):
    return json.dumps(payload, separators=(",", ":"))


def _simplex(rng, keys):
    """Positive weights 1..9 over ``keys``, normalized: small denominators."""
    weights = [rng.randint(1, 9) for _ in keys]
    total = sum(weights)
    return {k: Fraction(w, total) for k, w in zip(keys, weights)}


def _random_p(rng, vertices, edges):
    p = []
    for n, floor in enumerate(edges):
        row = {}
        for v in vertices[n]:
            row.update(_simplex(rng, [eid for eid, src, _ in floor if src == v]))
        p.append(row)
    return p


def _diagram_payload(vertices, edges, p, nu0, rho=None):
    floors = []
    for m, floor in enumerate(edges):
        row = []
        for eid, src, rng_ in floor:
            rec = {"id": eid, "src": src, "rng": rng_, "p": _rat(p[m][eid])}
            if rho is not None:
                rec["rho"] = rho[m][eid]
            row.append(rec)
        floors.append(row)
    return {"vertices": vertices, "edges": floors, "nu0": {v: _rat(x) for v, x in nu0.items()}}


def _out_edges(edges):
    """Per floor: source vertex -> [(edge id, range vertex)] in edge order."""
    out = []
    for floor in edges:
        m = {}
        for eid, src, rng_ in floor:
            m.setdefault(src, []).append((eid, rng_))
        out.append(m)
    return out


def _full_paths(vertices, edges):
    """Number of paths from level 0 to the last level (an exact int)."""
    counts = {v: 1 for v in vertices[0]}
    for n, floor in enumerate(edges, start=1):
        nxt = {v: 0 for v in vertices[n]}
        for _, src, rng_ in floor:
            nxt[rng_] += counts[src]
        counts = nxt
    return sum(counts.values())


def _size(files, vertices, edges, paths, p):
    return {
        "vertices": vertices,
        "edges": edges,
        "paths": paths,
        "input_bytes": sum(len(text.encode()) for text in files.values()),
        "p_den_bits_max": max(x.denominator.bit_length() for row in p for x in row.values()),
    }


def _diagram_size(files, vertices, edges, p):
    return _size(
        files, sum(map(len, vertices)), sum(map(len, edges)), _full_paths(vertices, edges), p
    )


# -- deep-triangle ------------------------------------------------------------


def _triangle(rng, depth):
    """Binomial triangle: vertex 'n:k'; from 'n-1:k' edge ':0' stays, ':1' steps."""
    vertices = [[f"{n}:{k}" for k in range(n + 1)] for n in range(depth + 1)]
    edges, rho = [], []
    for n in range(1, depth + 1):
        floor, rho_row = [], {}
        for k in range(n):
            for bit in (0, 1):
                eid = f"{n - 1}:{k}:{bit}"
                floor.append((eid, f"{n - 1}:{k}", f"{n}:{k + bit}"))
                rho_row[eid] = bit
        edges.append(floor)
        rho.append(rho_row)
    return vertices, edges, _random_p(rng, vertices, edges), rho


def _skew_rows(vertices, edges, rho, window):
    """Rows `skew` prints: reachable (vertex, element) pairs plus skew edges."""
    reached = {(v, g) for v in vertices[0] for g in window}
    rows = len(reached)
    for m, out in enumerate(_out_edges(edges)):
        nxt = set()
        for v, g in reached:
            for eid, rng_ in out[v]:
                nxt.add((rng_, g + rho[m][eid]))
                rows += 1
        rows += len(nxt)
        reached = nxt
    return rows


def _deep_triangle(rng):
    vertices, edges, p, rho = _triangle(rng, TRIANGLE_DEPTH)
    nu0 = {"0:0": Fraction(1)}
    small = DECOMPOSE_DEPTH
    terminal = {
        v: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for v in vertices[TRIANGLE_DEPTH]
    }
    window = sorted(rng.sample(range(-6, 7), 3))
    files = {
        "triangle.json": _dump(_diagram_payload(vertices, edges, p, nu0, rho)),
        "triangle-small.json": _dump(
            _diagram_payload(vertices[: small + 1], edges[:small], p[:small], nu0, rho[:small])
        ),
        "terminal.json": _dump({v: _rat(x) for v, x in terminal.items()}),
    }
    facts = {
        "vertices": vertices,
        "edges": edges,
        "terminal": terminal,
        "window": ",".join(str(g) for g in window),
        "skew_rows": _skew_rows(vertices, edges, rho, window),
        "decompose_depth": small,
    }
    return files, facts, _diagram_size(files, vertices, edges, p)


# -- wide-paths ---------------------------------------------------------------


def _layered(rng):
    """WIDE_ROOTS roots, WIDE_WIDTH vertices on later levels, exactly WIDE_OUT
    out-edges per vertex, and at least one in-edge per vertex."""
    sizes = [WIDE_ROOTS] + [WIDE_WIDTH] * WIDE_DEPTH
    vertices = [[f"v{n}_{i}" for i in range(size)] for n, size in enumerate(sizes)]
    edges = []
    for n in range(1, WIDE_DEPTH + 1):
        sources, targets = vertices[n - 1], vertices[n]
        slots = [s for s in sources for _ in range(WIDE_OUT)]
        rng.shuffle(slots)
        pairs = list(zip(slots, targets))  # every target receives an edge
        pairs += [(s, rng.choice(targets)) for s in slots[len(targets):]]
        order = {v: i for i, v in enumerate(sources)}
        pairs.sort(key=lambda st: (order[st[0]], st[1]))
        # one letter per edge keeps the path labels, and so the table, short
        edges.append([(chr(97 + i), s, t) for i, (s, t) in enumerate(pairs)])
    return vertices, edges


def _cylinder_table(vertices, edges, p, nu0):
    """Per level n, label -> cylinder mass of every path of length n."""
    out_edges = _out_edges(edges)
    table = [{f"@{v}": nu0[v] for v in vertices[0]}] + [{} for _ in edges]

    def grow(label, at, mass, n):
        table[n][label] = mass
        if n < len(edges):
            for eid, rng_ in out_edges[n][at]:
                grow(f"{label},{eid}", rng_, mass * p[n][eid], n + 1)

    for v in vertices[0]:
        for eid, rng_ in out_edges[0][v]:
            grow(eid, rng_, nu0[v] * p[0][eid], 1)
    return table


def _table_payload(table):
    return {
        "empty": {label[1:]: _rat(x) for label, x in table[0].items()},
        "paths": {label: _rat(x) for level in table[1:] for label, x in level.items()},
    }


def _perturb(rng, table):
    """Move half a leaf's mass to a sibling leaf.  Parents keep their mass, so
    the table stays a measure, but it no longer factors through the walk's q."""
    leaves = table[-1]
    victim = rng.choice(sorted(leaves))
    prefix = victim.rsplit(",", 1)[0]
    siblings = sorted(a for a in leaves if a != victim and a.rsplit(",", 1)[0] == prefix)
    partner = rng.choice(siblings)
    delta = leaves[victim] / 2
    perturbed = table[:-1] + [dict(leaves)]
    perturbed[-1][victim] -= delta
    perturbed[-1][partner] += delta
    return perturbed


def _rn_pairs(rng, vertices, edges, p, nu0):
    """Tail-related pairs (a, b) with the exact density q(a)/q(b)."""
    nus = [dict(nu0)]
    for n, floor in enumerate(edges, start=1):
        nxt = {v: Fraction(0) for v in vertices[n]}
        for eid, src, rng_ in floor:
            nxt[rng_] += nus[-1][src] * p[n - 1][eid]
        nus.append(nxt)
    out_edges = _out_edges(edges)

    def walk(length):
        at, ids, q = rng.choice(vertices[0]), [], Fraction(1)
        for n in range(length):
            eid, rng_ = rng.choice(out_edges[n][at])
            q *= nus[n][at] * p[n][eid] / nus[n + 1][rng_]
            ids.append(eid)
            at = rng_
        return ",".join(ids), at, q

    pairs = []
    while len(pairs) < RN_PAIRS:
        length = rng.randint(3, WIDE_DEPTH)
        a, end, qa = walk(length)
        while True:
            b, end_b, qb = walk(length)
            if end_b == end and b != a:
                break
        pairs.append((a, b, qa / qb))
    return pairs


def _wide_paths(rng):
    vertices, edges = _layered(rng)
    p = _random_p(rng, vertices, edges)
    nu0 = _simplex(rng, vertices[0])
    table = _cylinder_table(vertices, edges, p, nu0)
    files = {
        "wide.json": _dump(_diagram_payload(vertices, edges, p, nu0)),
        "table.json": _dump(_table_payload(table)),
        "table-perturbed.json": _dump(_table_payload(_perturb(rng, table))),
    }
    facts = {
        "table": {label: x for level in table for label, x in level.items()},
        "pairs": _rn_pairs(rng, vertices, edges, p, nu0),
        "pascal_depth": PASCAL_DEPTH,
        "pascal_t": PASCAL_T,
    }
    return files, facts, _diagram_size(files, vertices, edges, p)


# -- algebra-graphs -----------------------------------------------------------


def _inclusion_graph(rng, n_points, n_edges, n_vertices):
    """A graph whose shape is fixed by its size; the seed picks only the
    order of points and edges and the weights, so every seed costs the same.

    Returns the file payload, p, and the big relation's pair count."""
    V = [f"v{i}" for i in range(n_vertices)]
    Vbar = [f"w{j}" for j in range(n_vertices)]
    fiber = {v: n_points // n_vertices + (i < n_points % n_vertices) for i, v in enumerate(V)}
    points = [v for v in V for _ in range(fiber[v])]
    rng.shuffle(points)
    pairs = [(V[k % n_vertices], Vbar[(k // n_vertices) % n_vertices]) for k in range(n_edges)]
    rng.shuffle(pairs)
    edges = [(f"c{k}", v, w) for k, (v, w) in enumerate(pairs)]
    (p,) = _random_p(rng, [V, Vbar], [edges])
    payload = _diagram_payload([V, Vbar], [edges], [p], {})
    del payload["nu0"]
    payload["X"] = {f"x{k}": v for k, v in enumerate(points)}
    block = {w: 0 for w in Vbar}
    for _, v, w in edges:
        block[w] += fiber[v]
    return payload, p, sum(k * k for k in block.values())


def _algebra_graphs(rng):
    files, graphs, ps = {}, [], []
    for i, (n_points, n_edges, n_vertices) in enumerate(GRAPH_SIZES):
        payload, p, big_pairs = _inclusion_graph(rng, n_points, n_edges, n_vertices)
        name = f"graph{i}.json"
        files[name] = _dump(payload)
        graphs.append({"file": name, "p": p, "points": n_points, "big_pairs": big_pairs})
        ps.append(p)
    edges = sum(size[1] for size in GRAPH_SIZES)
    # a one-floor graph's paths are its edges
    size = _size(files, sum(2 * size[2] for size in GRAPH_SIZES), edges, edges, ps)
    size["big_pairs"] = [g["big_pairs"] for g in graphs]
    return files, {"graphs": graphs}, size


# -- shared -------------------------------------------------------------------

# the floor every command pays: the smallest valid diagram
TINY = _dump({"vertices": [["a"], ["b"]], "edges": [[{"id": "e", "src": "a", "rng": "b"}]]})

_BUILDERS = {
    "deep-triangle": _deep_triangle,
    "wide-paths": _wide_paths,
    "algebra-graphs": _algebra_graphs,
}


def generate(workload, seed):
    """(files, facts, size) for one workload and seed; deterministic in both."""
    files, facts, size = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    files["tiny.json"] = TINY
    return files, facts, size
