"""Seeded workloads: input generators, jobs, digests and independent checks.

Every workload is a closed loop with one client: the benchmark generates
job ``i`` from ``(seed, i)``, runs it, checks it, and only then generates
the next.  A job calls fampersist through module attributes
(``cli.main``, ``module3.build_module``, ...) so that the tracer's wrappers
see every call.  The checks never call fampersist: they rebuild the prism's
vertices, edges and triangles from the job's input and compare the outputs
against union-find component counts and simplex-count Euler
characteristics.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from fractions import Fraction

from fampersist import cerf, cli, family, module3, stability
from fampersist import io as fio

# ----- independent prism model ------------------------------------------


class Slabs:
    """The prism [0,1] x X over a 1-dimensional base, rebuilt from scratch.

    ``values[t][v]`` is the value at breakpoint ``t`` of base vertex ``v``.
    The staircase triangulation of an edge (u < v) times [t, t+1] has the
    triangles {(t,u), (t+1,u), (t+1,v)} and {(t,u), (t,v), (t+1,v)}; a slab
    is the full subcomplex on the vertices with time index in [a, b] and
    value at most c.
    """

    def __init__(self, values, base_edges):
        self.values = values
        self.nt = len(values)
        self.nv = len(values[0])
        self.base_edges = [tuple(sorted(e)) for e in base_edges]

    def _cells(self, a, b):
        verts = [(t, v) for t in range(a, b + 1) for v in range(self.nv)]
        edges, triangles = [], []
        for t in range(a, b + 1):
            for u, v in self.base_edges:
                edges.append(((t, u), (t, v)))
        for t in range(a, b):
            for v in range(self.nv):
                edges.append(((t, v), (t + 1, v)))
            for u, v in self.base_edges:
                edges.append(((t, u), (t + 1, v)))
                triangles.append(((t, u), (t + 1, u), (t + 1, v)))
                triangles.append(((t, u), (t, v), (t + 1, v)))
        return verts, edges, triangles

    def _inside(self, c):
        return lambda x: self.values[x[0]][x[1]] <= c

    def components(self, a, b, c):
        """Union-find roots of the slab's vertices: {vertex: root}."""
        inside = self._inside(c)
        verts, edges, _ = self._cells(a, b)
        parent = {x: x for x in verts if inside(x)}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x, y in edges:
            if x in parent and y in parent:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
        return {x: find(x) for x in parent}

    def h0(self, a, b, c):
        return len(set(self.components(a, b, c).values()))

    def h0_rank(self, x, y, levels):
        """Rank of H_0(slab x) -> H_0(slab y): components of y hit by x."""
        roots = self.components(y[0], y[1], levels[y[2]])
        hit = self.components(x[0], x[1], levels[x[2]])
        return len({roots[v] for v in hit})

    def euler(self, a, b, c):
        inside = self._inside(c)
        verts, edges, triangles = self._cells(a, b)
        return (sum(1 for x in verts if inside(x))
                - sum(1 for e in edges if all(map(inside, e)))
                + sum(1 for s in triangles if all(map(inside, s))))


def level_grid(values):
    """Distinct values, midpoints between neighbours, and max + 1."""
    distinct = sorted({v for row in values for v in row})
    out = []
    for k, v in enumerate(distinct):
        out.append(v)
        if k + 1 < len(distinct):
            out.append((v + distinct[k + 1]) / 2)
    out.append(distinct[-1] + 1)
    return out


def _grid_points(rng, nt, nl, count):
    pts = []
    for _ in range(count):
        i, j = sorted((rng.randrange(nt), rng.randrange(nt)))
        pts.append((i, j, rng.randrange(nl)))
    return pts


def _canonical(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _rng(workload, seed, index, purpose="input"):
    return random.Random(f"{workload}:{seed}:{index}:{purpose}")


# ----- kde-levels ---------------------------------------------------------

KDE_SAMPLES = 160
KDE_BANDWIDTH = ("1/5", "2")
KDE_TRES = 4
KDE_XRES = 16
KDE_CHECK_POINTS = 12
KDE_MAX_DRAWS = 100


def _snap(value):
    return Fraction(round(value * 10**12), 10**12)


def _path_components(row):
    """Most sublevel components of one fiber of a path, over all levels."""
    best = 0
    for c in set(row):
        inside = [v <= c for v in row]
        best = max(best, sum(1 for k, x in enumerate(inside)
                             if x and (k == 0 or not inside[k - 1])))
    return best


def kde_values(samples, tres=KDE_TRES, xres=KDE_XRES):
    """Vertex values of the sign-flipped Gaussian KDE family, from its
    definition: bandwidths evenly spaced over KDE_BANDWIDTH, an x grid
    padded by three times the largest bandwidth, values rounded to 12
    decimal digits."""
    a_min, a_max = (Fraction(x) for x in KDE_BANDWIDTH)
    lo = _snap(min(samples)) - 3 * a_max
    hi = _snap(max(samples)) + 3 * a_max
    xs = [float(lo + (hi - lo) * Fraction(j, xres - 1)) for j in range(xres)]
    norm = math.sqrt(2.0 * math.pi)
    rows = []
    for i in range(tres):
        a = float(a_min + (a_max - a_min) * Fraction(i, tres - 1))
        row = []
        for x in xs:
            total = sum(math.exp(-u * u / 2.0) / norm
                        for u in ((x - s) / a for s in samples))
            row.append(-_snap(total / (len(samples) * a)))
        rows.append(row)
    return rows


class KdeLevels:
    """``fampersist kde --summands`` through ``cli.main`` on a seeded
    Gaussian-mixture sample: long level axis (about 110 levels), short
    time axis (10 windows), JSON output."""

    name = "kde-levels"

    def __init__(self, tres=KDE_TRES, xres=KDE_XRES, samples=KDE_SAMPLES):
        self.tres, self.xres, self.samples = tres, xres, samples

    def generate(self, seed, index, workdir):
        # Three or four well-separated components, redrawn until some fiber
        # has at least three sublevel components.  Then --summands always
        # refuses at once (dimension above 2), and no job takes the far
        # slower two-mode peel, which surface-stability measures instead.
        rng = _rng(self.name, seed, index)
        for _ in range(KDE_MAX_DRAWS):
            start = rng.uniform(-4.0, -2.0)
            comps = [(start + k * rng.uniform(2.5, 3.0),
                      rng.uniform(0.3, 0.6))
                     for k in range(rng.randint(3, 4))]
            texts = []
            for _ in range(self.samples):
                mean, sd = rng.choice(comps)
                texts.append(f"{rng.gauss(mean, sd):.6f}")
            samples = [float(t) for t in texts]
            values = kde_values(samples, self.tres, self.xres)
            if max(map(_path_components, values)) >= 3:
                break
        else:
            raise RuntimeError(
                f"no three-mode sample in {KDE_MAX_DRAWS} draws")
        data = os.path.join(workdir, f"samples-{index}.csv")
        with open(data, "w") as fh:
            fh.write("x\n" + "".join(t + "\n" for t in texts))
        check_rng = _rng(self.name, seed, index, "check")
        return {
            "index": index,
            "values": values,
            "argv": ["kde", "--data", data, "--bandwidth",
                     ":".join(KDE_BANDWIDTH), "--tres", str(self.tres),
                     "--xres", str(self.xres), "--summands",
                     "--out", os.path.join(workdir, f"kde-{index}.json")],
            "check_draws": [(check_rng.random(), check_rng.random(),
                             check_rng.random())
                            for _ in range(KDE_CHECK_POINTS)],
        }

    def run(self, job):
        rc = cli.main(job["argv"])
        return {"exit": rc, "path": job["argv"][-1]}

    def digest(self, job, out):
        return _sha(_read(out["path"]), _canonical(out["exit"]))

    def check(self, job, out):
        if out["exit"] != 0:
            return [f"exit code {out['exit']}"]
        data = json.loads(_read(out["path"]))
        values = job["values"]
        want_levels = [str(c) for c in level_grid(values)]
        if data["level_values"] != want_levels:
            return ["level grid differs from the distinct vertex values"]
        slabs = Slabs(values, [(v, v + 1) for v in range(self.xres - 1)])
        levels = [Fraction(c) for c in data["level_values"]]
        problems = []
        for u, w, z in job["check_draws"]:
            i, j = sorted((int(u * self.tres), int(w * self.tres)))
            k = int(z * len(levels))
            got = data["dims"][i][j][k]
            want = slabs.h0(i, j, levels[k])
            if got != want:
                problems.append(f"dim at {(i, j, k)} is {got}, "
                                f"components {want}")
        return problems

    def tamper(self, job, out):
        """Change one checked dim in the written JSON (self-test only)."""
        data = json.loads(_read(out["path"]))
        u, w, z = job["check_draws"][0]
        i, j = sorted((int(u * self.tres), int(w * self.tres)))
        k = int(z * len(data["level_values"]))
        data["dims"][i][j][k] += 1
        fio.dump_json(data, out["path"])


# ----- windows-queries ----------------------------------------------------

WQ_BREAKPOINTS = 17
WQ_VERTICES = 3
WQ_MAX_VALUE = 4
WQ_QUERY_POINTS = 40


class WindowsQueries:
    """``build_module`` in degree 0 on a path of 3 vertices with 17 time
    breakpoints and values 0..4 (153 windows, about 10 levels), CSV
    output, then ``finite_subdiagram`` on 40 seeded grid points (long-range
    ``Module3.rank`` pairs) and ``check_indecomposable_sufficient``."""

    name = "windows-queries"

    def __init__(self, breakpoints=WQ_BREAKPOINTS, points=WQ_QUERY_POINTS):
        self.nt, self.npoints = breakpoints, points

    def generate(self, seed, index, workdir):
        rng = _rng(self.name, seed, index)
        # Every value 0..WQ_MAX_VALUE fills an equal share of the cells, so
        # slab sizes per level, and with them the job's cost, do not depend
        # on the seed; only the arrangement does.
        cells = self.nt * WQ_VERTICES
        pool = [k % (WQ_MAX_VALUE + 1) for k in range(cells)]
        rng.shuffle(pool)
        values = [pool[t * WQ_VERTICES:(t + 1) * WQ_VERTICES]
                  for t in range(self.nt)]
        doc = {
            "base": {"vertices": WQ_VERTICES,
                     "simplices": [[v, v + 1]
                                   for v in range(WQ_VERTICES - 1)]},
            "time_breakpoints": [str(Fraction(i, self.nt - 1))
                                 for i in range(self.nt)],
            "vertex_values": [[str(v) for v in row] for row in values],
        }
        path = os.path.join(workdir, f"family-{index}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        levels = level_grid([[Fraction(v) for v in row] for row in values])
        return {
            "index": index,
            "family": path,
            "csv": os.path.join(workdir, f"module-{index}.csv"),
            "values": values,
            "levels": levels,
            "points": _grid_points(rng, self.nt, len(levels), self.npoints),
        }

    def run(self, job):
        fam = fio.load_family(job["family"])
        mod = module3.build_module(fam.to_prism(), 0)
        fio.write_text(mod.to_csv(), job["csv"])
        sub = module3.finite_subdiagram(mod, job["points"])
        return {"dims": list(sub.dims),
                "ranks": sorted([s, t, r] for (s, t), r in sub.ranks.items()),
                "indecomposable": module3.check_indecomposable_sufficient(mod)}

    def digest(self, job, out):
        return _sha(_read(job["csv"]), _canonical(out))

    def check(self, job, out):
        values, levels = job["values"], job["levels"]
        slabs = Slabs(values, [(v, v + 1) for v in range(WQ_VERTICES - 1)])
        times = [str(Fraction(i, self.nt - 1)) for i in range(self.nt)]
        with open(job["csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["a", "b", "c", "dim"]:
            return ["csv header differs"]
        table = {tuple(r[:3]): int(r[3]) for r in rows[1:]}
        if len(table) != len(rows) - 1 or \
                len(table) != self.nt * (self.nt + 1) // 2 * len(levels):
            return [f"csv has {len(rows) - 1} rows for {len(levels)} levels"]
        problems = []
        points = job["points"]
        for s, (i, j, k) in enumerate(points):
            want = slabs.h0(i, j, levels[k])
            got = table.get((times[i], times[j], str(levels[k])))
            if got != want or out["dims"][s] != want:
                problems.append(f"dim at {(i, j, k)}: csv {got}, "
                                f"subdiagram {out['dims'][s]}, "
                                f"components {want}")
        comparable = [(s, t) for s, x in enumerate(points)
                      for t, y in enumerate(points)
                      if y[0] <= x[0] and x[1] <= y[1] and x[2] <= y[2]]
        if [[s, t] for s, t, _ in out["ranks"]] != sorted(map(list,
                                                             comparable)):
            return problems + ["subdiagram pairs are not the comparable ones"]
        for s, t, r in out["ranks"]:
            want = slabs.h0_rank(points[s], points[t], levels)
            if r != want:
                problems.append(f"rank {points[s]} -> {points[t]} is {r}, "
                                f"components hit {want}")
        return problems

    def tamper(self, job, out):
        out["dims"][0] += 1


# ----- surface-stability --------------------------------------------------

SS_SUBDIV = 8
SS_CHECK_POINTS = 12
SS_STRIPS = (3, 3, 4)  # seeded a values, b values, c values


class SurfaceStability:
    """The wrinkled cylinder (subdiv 8) with seeded wrinkle parameters:
    Betti report up to degree 1, thin decompositions, Cerf tracing and
    cobordism classes on a strip grid, and interleaving checks against a
    copy with per-vertex offsets in multiples of 1/16."""

    name = "surface-stability"

    def __init__(self, subdiv=SS_SUBDIV):
        self.subdiv = subdiv

    def generate(self, seed, index, workdir):
        rng = _rng(self.name, seed, index)
        # Sizes must not depend on the seed.  Wrinkle values are odd
        # multiples of 1/64 (1/256 for a small ell), at least 3/8 apart and
        # below the circle height 2 + sqrt(2) that hosts the wrinkle, so they
        # never tie with a height.  Offsets are nonzero and differ between
        # neighbours and between mirror-image vertices (equal heights), so
        # f has 8 and g 12 distinct values in every job.
        m = Fraction(2 * rng.randint(16, 102) + 1, 64)
        n = m + Fraction(rng.randint(3, 5), 8)
        ell = m - Fraction(rng.randint(3, 8), 8)
        if ell <= 0:
            ell = m / 4
        p = Fraction(rng.randint(2, 6), 16)
        q = Fraction(rng.randint(10, 14), 16)
        offsets = []
        for v in range(self.subdiv):
            taken = {offsets[u] for u in (v - 1, self.subdiv - v)
                     if 0 <= u < v}
            if v == self.subdiv - 1:
                taken.add(offsets[0])
            offsets.append(rng.choice([Fraction(k, 16) for k in (-2, -1, 1, 2)
                                       if Fraction(k, 16) not in taken]))
        a_vals = sorted(Fraction(rng.randint(0, 7), 16)
                        for _ in range(SS_STRIPS[0]))
        b_vals = sorted(Fraction(rng.randint(9, 16), 16)
                        for _ in range(SS_STRIPS[1]))
        c_vals = sorted(Fraction(rng.randint(1, 31), 8)
                        for _ in range(SS_STRIPS[2]))
        check_rng = _rng(self.name, seed, index, "check")
        return {
            "index": index,
            "params": {"p": p, "q": q, "ell": ell, "m": m, "n": n},
            "offsets": offsets,
            "strips": [(a, b, c) for a in a_vals for b in b_vals
                       for c in c_vals],
            "check_draws": [(check_rng.random(), check_rng.random(),
                             check_rng.random())
                            for _ in range(SS_CHECK_POINTS)],
            "out": {name: os.path.join(workdir, f"{name}-{index}.json")
                    for name in ("betti", "cerf", "stability0",
                                 "stability1")},
        }

    def run(self, job):
        paths = job["out"]
        f = family.wrinkled_cylinder_family(subdiv=self.subdiv,
                                            **job["params"])
        pf = f.to_prism()
        report = module3.betti_report(pf, 1)
        fio.dump_json(report.to_json_dict(), paths["betti"])
        thin = {}
        for d in (0, 1):
            try:
                thin[d] = sorted(sorted(s.support)
                                 for s in module3.thin_decompose(
                                     report.modules[d]))
            except module3.ThinRefusal as exc:
                thin[d] = str(exc)
        diagram = cerf.trace_cerf(pf)
        fio.dump_json(diagram.to_json_dict(), paths["cerf"])
        classes = [cerf.classify_cobordism(diagram, a, b, c).value
                   for a, b, c in job["strips"]]
        g = f.shifted([job["offsets"]] * len(f.time_breakpoints))
        eps = stability.sup_distance(f, g)
        pg = g.to_prism()
        overall = []
        for d in (0, 1):
            mg = module3.build_module(pg, d)
            rep = stability.check_interleaving_necessary(
                report.modules[d], mg, eps)
            fio.dump_json(rep.to_json_dict(), paths[f"stability{d}"])
            overall.append(rep.overall)
        return {"values": f.vertex_values, "modules": report.modules,
                "events": list(diagram.events), "overall": overall,
                "summary": {"thin": thin, "classes": classes,
                            "epsilon": str(eps)}}

    def digest(self, job, out):
        files = [_read(job["out"][k]) for k in sorted(job["out"])]
        return _sha(*files, _canonical(out["summary"]))

    def check(self, job, out):
        params = job["params"]
        problems = []
        want_events = [(params["p"], params["m"]), (params["q"], params["m"])]
        if sorted(out["events"]) != want_events:
            problems.append(f"Cerf events {out['events']}, "
                            f"want {want_events}")
        if out["overall"] != [True, True]:
            problems.append(f"interleaving at sup distance: {out['overall']}")
        values = out["values"]
        nt = len(values)
        slabs = Slabs(values, [(v, (v + 1) % self.subdiv)
                               for v in range(self.subdiv)])
        m0, m1 = out["modules"][0], out["modules"][1]
        levels = m0.level_values
        if list(levels) != level_grid(values):
            return problems + ["level grid differs from the vertex values"]
        for u, w, z in job["check_draws"]:
            i, j = sorted((int(u * nt), int(w * nt)))
            k = int(z * len(levels))
            chi = slabs.euler(i, j, levels[k])
            got = m0.dim((i, j, k)) - m1.dim((i, j, k))
            if chi != got:
                problems.append(f"Euler characteristic at {(i, j, k)} is "
                                f"{chi}, dims give {got}")
        return problems

    def tamper(self, job, out):
        u, w, z = job["check_draws"][0]
        nt = len(out["values"])
        i, j = sorted((int(u * nt), int(w * nt)))
        m0 = out["modules"][0]
        pt = (i, j, int(z * len(m0.level_values)))
        m0.dims[pt] = m0.dims.get(pt, 0) + 1


WORKLOADS = {w.name: w for w in (KdeLevels, WindowsQueries, SurfaceStability)}
