"""Independent brute-force homology oracle used only by the tests.

Deliberately shares no code with the package: dense row-echelon elimination
over GF(p) with plain Python integers, Betti numbers from kernel/image
dimensions, and induced ranks from the cycle-versus-boundary span formula
rank(H_j(A) -> H_j(B)) = rank([Z_j(A) | B_j(B)]) - rank(B_j(B)).
"""

from itertools import combinations


def row_echelon(rows, p):
    """Reduced row echelon form; returns (rank, rows, pivot column list)."""
    rows = [[x % p for x in r] for r in rows]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    rank = 0
    pivots = []
    for col in range(m):
        piv = None
        for r in range(rank, n):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rank, rows, pivots


def rank_gf(rows, p):
    if not rows or not rows[0]:
        return 0
    return row_echelon(rows, p)[0]


def kernel_basis(rows, p, n_cols):
    """Basis of the kernel of the linear map given by the rows (acting on
    column vectors), as a list of length-n_cols vectors."""
    if n_cols == 0:
        return []
    if not rows:
        rows = [[0] * n_cols]
    rank, red, pivots = row_echelon(rows, p)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n_cols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-red[r][fc]) % p
        basis.append(vec)
    return basis


def sorted_simplices(simplices, j):
    return sorted(s for s in simplices if len(s) == j + 1)


def boundary_rows(simplices, j):
    """Boundary of the j-simplices as rows indexed by (j-1)-simplices."""
    cols = sorted_simplices(simplices, j)
    rows_idx = {s: i for i, s in enumerate(sorted_simplices(simplices, j - 1))}
    rows = [[0] * len(cols) for _ in rows_idx]
    for c, s in enumerate(cols):
        for k in range(len(s)):
            face = s[:k] + s[k + 1:]
            if face:
                rows[rows_idx[face]][c] = (-1) ** k
    return rows, len(cols)


def betti_oracle(simplices, j, p):
    if j < 0:
        return 0
    rows_j, n_j = boundary_rows(simplices, j)
    cycles = kernel_basis(rows_j, p, n_j)
    rows_j1, _ = boundary_rows(simplices, j + 1)
    boundary_rank = rank_gf(rows_j1, p) if rows_j1 else 0
    return len(cycles) - boundary_rank


def induced_rank_oracle(sub, sup, j, p):
    """Rank of the inclusion-induced map on degree-j homology."""
    cols = sorted_simplices(sup, j)
    col_index = {s: i for i, s in enumerate(cols)}
    rows_sub, n_sub = boundary_rows(sub, j)
    sub_cols = sorted_simplices(sub, j)
    z_sub = kernel_basis(rows_sub, p, n_sub)
    # Express sub cycles in the coordinates of sup's j-simplices.
    cycles = []
    for vec in z_sub:
        out = [0] * len(cols)
        for coeff, s in zip(vec, sub_cols):
            out[col_index[s]] = coeff
        cycles.append(out)
    # Boundaries of sup's (j+1)-simplices in the same coordinates.
    bd = []
    for s in sorted_simplices(sup, j + 1):
        out = [0] * len(cols)
        for k in range(len(s)):
            face = s[:k] + s[k + 1:]
            out[col_index[face]] = (-1) ** k
        bd.append(out)
    b_rank = rank_gf([list(r) for r in bd], p) if bd else 0
    joint = rank_gf([list(r) for r in cycles + bd], p) if cycles + bd else 0
    return joint - b_rank


def component_count(simplices):
    """Union-find count of connected components (vertices joined by edges)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in simplices:
        for v in s:
            parent.setdefault(v, v)
    for s in simplices:
        if len(s) == 2:
            a, b = find(s[0]), find(s[1])
            if a != b:
                parent[a] = b
    return len({find(v) for v in parent})


def downward_closed(simplices):
    """The given simplices and all their nonempty faces, as sorted tuples."""
    out = set()
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return frozenset(out)


def all_downward_closed(n_vertices):
    """Every nonempty downward-closed complex on a fixed labeled vertex set.

    Yields frozensets of sorted tuples.  Subsets are decided in size order,
    so a k-set may enter only when all its facets already did.
    """
    subsets = []
    for k in range(1, n_vertices + 1):
        subsets.extend(combinations(range(n_vertices), k))
    out = []

    def walk(idx, chosen):
        if idx == len(subsets):
            if chosen:
                out.append(frozenset(chosen))
            return
        s = subsets[idx]
        walk(idx + 1, chosen)
        if len(s) == 1 or all(s[:k] + s[k + 1:] in chosen
                              for k in range(len(s))):
            chosen.add(s)
            walk(idx + 1, chosen)
            chosen.remove(s)
    walk(0, set())
    return out
