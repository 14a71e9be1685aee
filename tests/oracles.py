"""Independent oracles used by the unit and acceptance suites.

These deliberately avoid the package's kernel-projection and presentation
machinery: invariant factors come from gcds of minors, determinants from
Laplace expansion or fraction-free (Bareiss) elimination, and homology of tiny complexes from direct enumeration of
group elements with the isomorphism class reconstructed from element-order
counts.  `down_sets_by_reachability` closes relation lists over names, and
`components_by_sets` and `core_by_sets` walk frozensets of element
indices, as the package's order kernels did before they ran on bit masks,
and `criterion_by_public_route` runs the criterion on frozensets through
`enumerate_cuts`.  `random_poset_by_document` draws as `random_poset`
does and hands the relations it chose, by name, to `parse_poset`, and
`random_diagram_by_leq` draws as `random_diagram` does and reads the
order through `Poset.leq`, re-deriving each element's generators, and
`cech_ordered_by_combinations` lists the nerve of the covering by
filtering every increasing tuple of basic opens on its frozenset
intersection.
`homology_by_stack` reads a relation lattice off one elimination of
[cycles | d_in | R] instead of solving against the cycles, and
`cell_complex_by_blocks` builds the chain-indexed complexes with one
(row, column, sign, block) entry per face, written by `hom_by_blocks`;
`section_map_by_blocks` and `rho_by_blocks` write the generated sheaf's
section maps and the comparison chain map ρ with it, one block per cover
end or chain, where the package writes them through `_cell_complex` and
straight into dict rows.
The two censuses at the end are the exception: they enumerate the
small posets independently, then run the package's own criterion and
comparison, or its vanishing certificate, on each.  `main_by_full_parse`
is the command-line frontend with every line read by the full argument
parser.
"""

import itertools
import json
import math
import random
import sys

from posetcoh.cech import Presheaf, compare_report
from posetcoh.cli import _attached_windows, build_parser
from posetcoh.complexes import (
    Complex,
    ComplexError,
    HomologyData,
    ProductGroup,
    _cycles,
    acyclicity_check,
)
from posetcoh.cuts import criterion, enumerate_cuts
from posetcoh.diagrams import Diagram, _cell_complex, cohomology_support, constant_diagram
from posetcoh.groups import GroupHom, PresentedAbGroup
from posetcoh.linalg import IntMatrix, snf
from posetcoh.poset import IntersectionPoset, Poset, bounds, chains, parse_poset


def brute_force_cuts(P):
    """All cuts (X lower bounds, their upper bounds) over every nonempty X.

    Quadratic-exponential sweep over subsets; callers keep the poset at or
    below ten elements.  Pairs are keyed by index tuples for set comparison.
    """
    n = len(P.elements)
    found = set()
    for r in range(1, n + 1):
        for X in itertools.combinations(range(n), r):
            low = bounds(P, X, "lower")
            if not low:
                continue
            found.add((low, bounds(P, low, "upper")))
    return found


def intersection_closure_by_full_sweep(base):
    """Nodes and witnesses of the intersection poset, by the full pairwise sweep.

    Every round meets every pair of the sets found so far, both in order of
    their sorted members, until a round adds nothing; a new set keeps the
    witnesses of the first pair that meets to it.  Nodes are member index
    sets listed by size, then by sorted member names.
    """
    found = {}
    for i in range(len(base.elements)):
        found.setdefault(base.down[i], (i,))
    changed = True
    while changed:
        changed = False
        current = sorted(found, key=lambda s: sorted(s))
        for a in current:
            for b in current:
                c = a & b
                if c and c not in found:
                    found[c] = tuple(sorted(set(found[a]) | set(found[b])))
                    changed = True
    ordered = sorted(found, key=lambda s: (len(s), sorted(base.elements[i] for i in s)))
    return ordered, [found[s] for s in ordered]


def down_sets_by_reachability(elements, relations):
    """Each element's down-set in the closure of relation pairs [low, high].

    The reference for `parse_poset`, which closes its relations on masks:
    a walk over names from each element down every pair, kept as a dict
    from name to the frozenset of names reached, the element itself
    included.  Cycles are kept, not refused.
    """
    preds = {name: set() for name in elements}
    for low, high in relations:
        preds[high].add(low)
    down = {}
    for name in elements:
        reached, todo = {name}, [name]
        while todo:
            for low in preds[todo.pop()] - reached:
                reached.add(low)
                todo.append(low)
        down[name] = frozenset(reached)
    return down


def random_poset_by_document(n, density, seed):
    """`random_poset(n, density, seed)` through a relation document.

    The same draws (the shuffled ranks, then one draw per pair a < b, row
    by row) give a list of [low, high] name pairs, which `parse_poset`
    closes; no order is closed while drawing.
    """
    rng = random.Random(seed)
    width = len(str(n - 1)) if n > 1 else 1
    elements = ["x%0*d" % (width, i) for i in range(n)]
    ranks = list(range(n))
    rng.shuffle(ranks)
    relations = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                relations.append([elements[ranks[a]], elements[ranks[b]]])
    return parse_poset({"elements": elements, "relations": relations})


def random_diagram_by_leq(poset, seed, max_generators=3, max_relators=2):
    """`random_diagram(poset, seed, max_generators, max_relators)` through `leq`.

    The same draws (generator count and positions, relator count and
    positions, then a coefficient in [-3, 3] per relator and generator at
    or above it), with the generators visible at an element re-derived by
    `Poset.leq` once per value and twice per cover.
    """
    n = len(poset.elements)
    rng = random.Random(seed)
    g = rng.randint(1, max_generators)
    gen_pos = [rng.randrange(n) for _ in range(g)]
    k = rng.randint(0, max_relators)
    rel_pos = [rng.randrange(n) for _ in range(k)]
    coeffs = [
        [rng.randint(-3, 3) if poset.leq(rel_pos[j], gen_pos[i]) else 0 for i in range(g)]
        for j in range(k)
    ]

    def active(c):
        return [i for i in range(g) if poset.leq(c, gen_pos[i])]

    def value_at(c):
        act = active(c)
        cols = [[coeffs[j][i] for i in act] for j in range(k) if poset.leq(c, rel_pos[j])]
        rel = IntMatrix.from_columns(cols, nrows=len(act)) if cols else None
        return PresentedAbGroup(len(act), rel)

    values = [value_at(c) for c in range(n)]
    maps = {}
    for low, high in poset.covers():
        rows = [[1 if i == j else 0 for j in active(high)] for i in active(low)]
        matrix = IntMatrix(len(active(low)), len(active(high)), rows)
        maps[(high, low)] = GroupHom(values[high], values[low], matrix)
    return Diagram(poset, values, maps)


def cech_ordered_by_combinations(presheaf, order=None):
    """`cech_ordered_complex(presheaf, order)` from every increasing tuple.

    Each tuple of elements, increasing in `order` (names; the default is
    the element order), in degree after degree, is kept when the frozensets
    `down[i]` of its members meet; the scan stops at the first degree that
    keeps none.  The cells go to `diagrams._cell_complex`.
    """
    space = presheaf.space
    sequence = range(len(space)) if order is None else [space.index[x] for x in order]
    node_at = {node: k for k, node in enumerate(presheaf.intersection.nodes)}
    node_of = {}
    cells = []
    while True:
        here = []
        for tup in itertools.combinations(sequence, len(cells) + 1):
            common = space.down[tup[0]]
            for i in tup[1:]:
                common = common & space.down[i]
            if common:
                node_of[tup] = node_at[common]
                here.append(tup)
        if not here:
            break
        cells.append(here)
    return _cell_complex(presheaf.diagram, cells, node_of.__getitem__)


def components_by_sets(poset, members=None):
    """Connected components of the comparability graph, as sorted index lists.

    The frozenset reference for `poset.components`, which runs on bit masks.

    `members` is the set of element indices to work within (default: every
    element); the graph is then that of the subposet they induce, given in
    the poset's own indices.  Components are listed by their smallest
    element index.
    """
    todo = set(range(len(poset.elements)) if members is None else members)
    out = []
    for start in sorted(todo):
        if start not in todo:
            continue
        todo.discard(start)
        comp = []
        stack = [start]
        while stack:
            i = stack.pop()
            comp.append(i)
            reached = (poset.down[i] | poset.up[i]) & todo
            todo -= reached
            stack.extend(reached)
        out.append(sorted(comp))
    return out


def core_by_sets(poset, members=None):
    """What remains after removing beat points one at a time.

    The frozenset reference for `poset.core`, which runs on bit masks.

    A beat point has exactly one lower cover or exactly one upper cover among
    the elements still present.  Removing one is a strong deformation retract
    of the order complex (Stong, "Finite topological spaces", Trans. AMS 123,
    1966), so the subposet induced on the core has the homology of the poset.
    `members` is the set of element indices to work within (default: every
    element), so the core of an induced subposet is found without building
    that subposet.  Returns the sorted indices that remain, in the poset's
    own indices.
    """
    present = set(range(len(poset.elements)) if members is None else members)

    def is_beat(i):
        # the others below (above) i have one cover exactly when they have a
        # greatest (least) element
        for table in (poset.down, poset.up):
            others = (table[i] & present) - {i}
            if others and any(others <= table[j] for j in others):
                return True
        return False

    removed = True
    while removed:
        removed = False
        for i in sorted(present):
            if is_beat(i):
                present.discard(i)
                removed = True
    return sorted(present)


def criterion_by_public_route(P, shortcuts=True):
    """`cuts.criterion` through the public cut route, on frozensets.

    The reference for the criterion's sweep, which passes bit masks from the
    meet closure to the homology test.  With `shortcuts`, the two structural
    fast paths are read off the frozen down-sets and a cut whose lower half
    is principal passes; every other cut of `enumerate_cuts`, in order, has
    its upper half, as a frozenset, decided by `acyclicity_check`.  Returns
    (verdict, cuts examined, failures as (lower, upper, witness, degree,
    group) tuples, shortcut).
    """
    if shortcuts:
        if all(any(P.down[g].issuperset(c) for g in c) for c in components_by_sets(P)):
            return "PASS", 0, [], "directed-components"
        principal = set(P.down)
        meets = (a & b for a, b in itertools.combinations(P.down, 2))
        if all(not common or common in principal for common in meets):
            return "PASS", 0, [], "semilattice"
    principal = set(P.down) if shortcuts else set()
    cuts = enumerate_cuts(P)
    failures = []
    for cut in cuts:
        if cut.lower in principal:
            continue
        verdict = acyclicity_check(P, frozenset(cut.upper))
        if not verdict:
            failures.append((cut.lower, cut.upper, cut.witness, verdict.degree, verdict.group))
    verdict = "FAIL" if failures else "PASS"
    return verdict, len(cuts), failures, "least-element" if shortcuts else "none"


def laplace_det(rows):
    """Determinant by first-row Laplace expansion (fine for n <= 5)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * a * laplace_det(minor)
    return total


def determinant(M):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    A = [list(r) for r in M.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = A[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * pivot - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = pivot
    return sign * A[n - 1][n - 1]


def is_unimodular(M):
    return M.rows == M.cols and determinant(M) in (1, -1)


def invariant_factors_by_minors(M):
    """Invariant factors d_1 | d_2 | ... via gcds of k x k minors.

    d_1 * ... * d_k equals the gcd of all k x k minors, so d_k is the ratio of
    consecutive gcds.  Exponential in the matrix size; callers keep k <= 4.
    """
    rows = [list(r) for r in M.entries]
    factors = []
    prev = 1
    for k in range(1, min(M.rows, M.cols) + 1):
        g = 0
        for ris in itertools.combinations(range(M.rows), k):
            for cjs in itertools.combinations(range(M.cols), k):
                sub = [[rows[i][j] for j in cjs] for i in ris]
                g = math.gcd(g, laplace_det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def random_matrix(rng, max_dim=8, max_entry=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix(m, n, [[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(m)])


def eager_snf(M):
    """(U, D, V) with U * M * V = D, by eager elimination of M, U and V.

    The Smith normal form as it was before the transforms were logged: the
    same pivot rule and the same elementary operations, applied to U and V
    as they happen.  `snf` must reproduce its U, D and V exactly.
    """
    m, n = M.rows, M.cols
    A = [list(r) for r in M.entries]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, k):
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]

    def swap_cols(j, k):
        for row in A:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        As, Ad = A[src], A[dst]
        for j in range(n):
            Ad[j] += q * As[j]
        Us, Ud = U[src], U[dst]
        for j in range(m):
            Ud[j] += q * Us[j]

    def add_col(src, dst, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def find_pivot(t):
        best = None
        where = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                a = Ai[j]
                if a:
                    a = -a if a < 0 else a
                    if best is None or a < best:
                        best = a
                        where = (i, j)
                        if a == 1:
                            return where
        return where

    t = 0
    while t < min(m, n):
        where = find_pivot(t)
        if where is None:
            break
        i0, j0 = where
        if i0 != t:
            swap_rows(t, i0)
        if j0 != t:
            swap_cols(t, j0)
        while True:
            # Euclidean elimination in column t, then row t.  A remainder
            # becomes the new, strictly smaller pivot, so this terminates.
            restart = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        add_row(t, i, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the rest of the submatrix before we move on
            p = A[t][t]
            offender = None
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if A[t][t] < 0:
            for j in range(n):
                A[t][j] = -A[t][j]
            for j in range(m):
                U[t][j] = -U[t][j]
        t += 1

    return (
        IntMatrix(m, m, U),
        IntMatrix(m, n, A),
        IntMatrix(n, n, V),
    )


class LatticeMembership:
    """Membership test for the column lattice of a relation matrix."""

    def __init__(self, R):
        self.dec = snf(R)

    def contains(self, c):
        return self.dec.solve(c) is not None


def eager_composites(F):
    """Every composite matrix of a diagram, {(a, b): matrix} for a > b, built eagerly.

    The table as `Diagram` filled it when it checked functoriality on
    construction: a in a linear extension, b in its down-set, and the
    composite through the first listed cover c of a with b <= c, the edge
    a -> c followed by the table's c -> b.  Products are taken on plain lists.
    `Diagram.map` must reproduce every matrix, whatever order it is asked in.
    """
    base = F.base
    table = {}
    for a in base.linear_extension():
        for b in base.down[a]:
            if b == a:
                continue
            c, edge = next(
                (c, h) for (x, c), h in F.edge_maps.items() if x == a and base.leq(b, c)
            )
            first = edge.matrix
            then = IntMatrix.identity(first.rows) if c == b else table[(c, b)]
            rows = [
                [sum(then.entries[i][k] * first.entries[k][j] for k in range(then.cols))
                 for j in range(first.cols)]
                for i in range(then.rows)
            ]
            table[(a, b)] = IntMatrix(then.rows, first.cols, rows)
    return table


def in_relation_lattice_by_U(group, vectors):
    """Whether every column of `vectors` lies in the group's relation lattice.

    With U * relations * V = D from the eager elimination, a column v lies in
    the lattice iff every entry of the explicit product U v is divisible by
    the matching diagonal entry of D, and is zero where that entry is zero
    or missing.
    """
    U, D, _ = eager_snf(group.relations)
    diagonal = min(D.rows, D.cols)
    for i, row in enumerate((U * vectors).entries):
        d = D[i, i] if i < diagonal else 0
        if any(a % d if d else a for a in row):
            return False
    return True


def is_isomorphism_by_kernel(hom):
    """Isomorphism test of a well-defined hom that computes its kernel.

    Onto iff the map's columns with the target relators have only unit
    invariant factors; one-to-one iff every source vector sent into the
    target relation lattice (the kernel of that joined matrix, projected to
    its source block) already lies in the source relation lattice.
    """
    combined = hom.matrix.hstack(hom.target.relations)
    dec = snf(combined)
    if dec.invariant_factors() != (1,) * hom.target.generators:
        return False
    kernel = dec.kernel_basis().take_rows(range(hom.source.generators))
    source = LatticeMembership(hom.source.relations)
    return all(source.contains(kernel.column(j)) for j in range(kernel.cols))


def _unimodular_inverse(U):
    dec = snf(U)
    cols = []
    for i in range(U.rows):
        e = [1 if k == i else 0 for k in range(U.rows)]
        x = dec.solve(e)
        assert x is not None
        cols.append(x)
    return IntMatrix.from_columns(cols, nrows=U.rows)


def _factors_from_kill_counts(size, kills):
    """Invariant factors of a finite abelian group from N(m) = #{h : m h = 0}.

    N(p^k) = p^(sum_i min(k, e_i)) over the p-parts p^e_i, so consecutive
    log-differences count the e_i that are >= k; the partitions per prime are
    then merged largest-with-largest into the divisibility chain.
    """
    per_prime = {}
    n = size
    p = 2
    primes = []
    while n > 1:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    for p in primes:
        logs = [0]
        k = 1
        while True:
            c = kills(p**k)
            e = 0
            while c > 1:
                assert c % p == 0
                c //= p
                e += 1
            logs.append(e)
            if logs[-1] == logs[-2]:
                logs.pop()
                break
            k += 1
        partition = []
        for k in range(1, len(logs)):
            count_ge_k = logs[k] - logs[k - 1]
            partition.append(count_ge_k)
        # partition[k-1] = #{i : e_i >= k}; convert to the multiset of e_i
        exps = []
        for i in range(partition[0] if partition else 0):
            e = sum(1 for c in partition if c > i)
            exps.append(e)
        per_prime[p] = sorted(exps, reverse=True)
    width = max((len(v) for v in per_prime.values()), default=0)
    factors = []
    for j in range(width):
        d = 1
        for p, exps in per_prime.items():
            if j < len(exps):
                d *= p ** exps[j]
        factors.append(d)
    factors = [d for d in factors if d > 1]
    return tuple(sorted(factors))


def brute_force_homology(M_in, R_B, M_out, R_C):
    """(rank, torsion) of ker/im at a finite middle group, by enumeration.

    Middle group B = Z^g / col(R_B) must be finite (returns None otherwise).
    Elements are enumerated in Smith coordinates, the kernel of d_out and the
    image of d_in are materialized as sets, and the quotient's isomorphism
    class is reconstructed from element-order counts.  Everything here is
    set arithmetic on explicit elements; no presentations are manipulated.
    """
    g = R_B.rows
    dec = snf(R_B)
    facs = list(dec.invariant_factors())
    if len(facs) < g:
        return None
    Uinv = _unimodular_inverse(dec.U)
    in_C_lattice = LatticeMembership(R_C)

    def to_coords(x):
        z = dec.U.apply(x)
        return tuple(zi % d for zi, d in zip(z, facs))

    def representative(z):
        return Uinv.apply(z)

    def add(z1, z2):
        return tuple((a + b) % d for a, b, d in zip(z1, z2, facs))

    def scale(m, z):
        return tuple((m * a) % d for a, d in zip(z, facs))

    kernel = []
    for z in itertools.product(*[range(d) for d in facs]):
        c = M_out.apply(representative(z))
        if in_C_lattice.contains(c):
            kernel.append(z)

    image_gens = [to_coords(M_in.column(j)) for j in range(M_in.cols)]
    image = {tuple(0 for _ in facs)}
    frontier = list(image)
    while frontier:
        z = frontier.pop()
        for h in image_gens:
            w = add(z, h)
            if w not in image:
                image.add(w)
                frontier.append(w)

    cosets = set()
    for z in kernel:
        label = min(add(z, i) for i in image)
        cosets.add(label)
    size = len(cosets)

    def kills(m):
        return sum(1 for z in cosets if scale(m, z) in image)

    return (0, _factors_from_kill_counts(size, kills))


def homology_by_stack(d_in, d_out):
    """Homology at the middle group with its relation lattice eliminated
    on its own: the combinations of the cycles that are boundaries plus
    relations, as the kernel of the stack [cycles | d_in | R] projected to
    its leading block.  The cycles are the package's."""
    cycles = _cycles(d_out)
    stack = cycles.hstack(d_in.matrix).hstack(d_out.source.relations)
    relations = snf(stack).kernel_basis(cycles.cols)
    return HomologyData(PresentedAbGroup(cycles.cols, relations), cycles)


def _faces(lower, upper, node):
    """Every face of the cells `upper` among the cells `lower`, as
    (upper index, lower index, sign, lower node, upper node)."""
    position = {cell: k for k, cell in enumerate(lower)}
    for row, cell in enumerate(upper):
        top = node(cell)
        for i in range(len(cell)):
            face = cell[:i] + cell[i + 1 :]
            yield row, position[face], (-1) ** i, node(face), top


def hom_by_blocks(source, target, blocks):
    """The homomorphism between the products `source` and `target`,
    assembled block by block.

    `blocks` yields (row factor, column factor, sign, matrix): the block of
    target factor `row` against source factor `col` gains sign times
    matrix, or sign times the identity (of factors of one size) when matrix
    is None.  Blocks at the same position add up, and an entry that cancels
    is dropped.
    """
    lines = [{} for _ in range(target.group.generators)]
    for row, col, sign, matrix in blocks:
        row0, col0 = target.offsets[row], source.offsets[col]
        rows, cols = target.factors[row].generators, source.factors[col].generators
        shape = (rows, rows) if matrix is None else (matrix.rows, matrix.cols)
        if shape != (rows, cols):
            raise ComplexError("block of factors %d and %d has the wrong shape" % (row, col))
        if matrix is None:
            for i in range(rows):
                line = lines[row0 + i]
                line[col0 + i] = line.get(col0 + i, 0) + sign
            continue
        for i, entries in enumerate(matrix.lines):
            line = lines[row0 + i]
            for j, a in entries.items():
                line[col0 + j] = line.get(col0 + j, 0) + sign * a
    return source.hom_from_rows(target, lines)


def cell_complex_by_blocks(F, cells, node, colimit=False, support=None):
    """`_cell_complex` with every face a (row, column, sign, block) entry
    that `hom_by_blocks` checks and writes, one per face, a block for each
    cell however few generators its value has."""
    groups = [ProductGroup([F.value(node(c)) for c in level]) for level in cells]
    diffs = []
    for n in range(len(cells) - 1):
        blocks = []
        for row, col, sign, source, target in _faces(cells[n], cells[n + 1], node):
            if colimit:
                row, col, source, target = col, row, target, source
            matrix = None if source == target else F.map(source, target).matrix
            blocks.append((row, col, sign, matrix))
        source, target = (groups[n + 1], groups[n]) if colimit else (groups[n], groups[n + 1])
        diffs.append(hom_by_blocks(source, target, blocks))
    if colimit:
        groups.reverse()
        diffs.reverse()
    return Complex(groups, diffs, support)


def section_map_by_blocks(F, subset):
    """The map whose kernel `sheafify_value` takes over the downward closed
    `subset` of element indices, one block per end of each cover inside it:
    +F(high -> low) from high's factor and minus the identity from low's,
    into the factor of the cover, which carries the value at low."""
    members = sorted(subset)
    product = ProductGroup([F.value(i) for i in members])
    edges = [(high, low) for low, high in F.base.covers() if high in subset]
    target = ProductGroup([F.value(low) for _, low in edges])
    pos = {i: k for k, i in enumerate(members)}
    blocks = []
    for k, (high, low) in enumerate(edges):
        blocks.append((k, pos[high], 1, F.map(high, low).matrix))
        blocks.append((k, pos[low], -1, None))
    return hom_by_blocks(product, target, blocks)


def rho_by_blocks(presheaf):
    """The degreewise maps of `Presheaf.comparison_chain_map`, one identity
    block from the factor of each base chain's image under λ."""
    source, target = presheaf.cech_complex(), presheaf.topos_complex()
    lam = presheaf.intersection.lambda_map
    maps = []
    for n, src in enumerate(source.groups):
        position = {c: k for k, c in enumerate(chains(presheaf.diagram.base, n))}
        blocks = [
            (row, position[tuple(lam[i] for i in chain)], 1, None)
            for row, chain in enumerate(chains(presheaf.space, n))
        ]
        maps.append(hom_by_blocks(src, target.product(n), blocks))
    return maps


def _down_closed_subsets(down):
    """Every subset of range(len(down)) that contains the down-set of each member."""
    n = len(down)
    for mask in range(1 << n):
        members = frozenset(i for i in range(n) if mask >> i & 1)
        if all(down[i] <= members for i in members):
            yield members


def _least_relabeled_order(down):
    """The least bitmask of the relation j < i over every relabeling."""
    n = len(down)
    pairs = [(i, j) for i in range(n) for j in down[i] if j != i]
    return min(
        sum(1 << (p[i] * n + p[j]) for i, j in pairs)
        for p in itertools.permutations(range(n))
    )


def posets_up_to_isomorphism(n):
    """One poset on the elements x0, x1, ... for each isomorphism class of size n.

    Every poset on k + 1 elements is one on k elements with a new maximal
    element above one of its down-closed subsets, so the classes grow one
    element at a time; isomorphic copies are told apart by brute force,
    by the least relation bitmask over every relabeling.  There are 1, 2,
    5, 16, 63 and 318 classes for n = 1 to 6 (OEIS A000112).
    """
    classes = [(frozenset([0]),)]
    for k in range(1, n):
        grown = {}
        for down in classes:
            for below in _down_closed_subsets(down):
                larger = down + (below | {k},)
                grown.setdefault(_least_relabeled_order(larger), larger)
        classes = list(grown.values())
    return [Poset(["x%d" % i for i in range(n)], down) for down in classes]


def upset_indicator(intersection, k):
    """Z on every node that contains node k, 0 elsewhere, identity maps between Zs."""
    nodes = intersection.poset
    values = [
        PresentedAbGroup.free(1) if k in nodes.down[j] else PresentedAbGroup.zero()
        for j in range(len(nodes))
    ]
    maps = {}
    for low, high in nodes.covers():
        source, target = values[high], values[low]
        matrix = IntMatrix.identity(1) if target.generators else IntMatrix.zero(0, source.generators)
        maps[(high, low)] = GroupHom(source, target, matrix)
    return Presheaf(intersection, Diagram(nodes, values, maps))


def theorem_census(n):
    """Both halves of the criterion theorem on every poset of size n.

    For each failing cut of a FAIL poset, the up-set indicator of the cut's
    lower half must make the comparison map fail at the cut's failing
    degree; on a PASS poset every node's indicator must compare
    isomorphically in every degree.  Returns the counts of posets, FAIL
    posets, failing cuts, failing cuts whose indicator is not broken at
    their degree, and PASS posets with a broken indicator.
    """
    counts = dict.fromkeys(
        ["posets", "fail_posets", "failing_cuts", "unbroken_cuts", "broken_pass_posets"], 0
    )
    for P in posets_up_to_isomorphism(n):
        counts["posets"] += 1
        intersection = IntersectionPoset(P)
        report = criterion(P)
        counts["fail_posets"] += not report
        for cut, degree, _ in report.failures:
            counts["failing_cuts"] += 1
            ps = upset_indicator(intersection, intersection.nodes.index(cut.lower))
            counts["unbroken_cuts"] += compare_report(ps, [degree]).all_iso
        if report:
            counts["broken_pass_posets"] += not all(
                compare_report(upset_indicator(intersection, k)).all_iso
                for k in range(len(intersection))
            )
    return counts


def certificate_check(ps):
    """(pairs, certified, wrong) over the Čech and topos degrees of a presheaf.

    Every degree of each side's complex is a pair; a pair outside that
    side's support is certified, and wrong when the group computed from
    the complex itself is not trivial.
    """
    sides = (
        (ps.cech_complex(), cohomology_support(ps.diagram.base, ps.diagram.values)),
        (ps.topos_complex(), cohomology_support(ps.space, ps.pulled_diagram().values)),
    )
    pairs = certified = wrong = 0
    for cx, support in sides:
        for n in range(cx.top_degree() + 1):
            pairs += 1
            if n not in support:
                certified += 1
                wrong += not cx.homology_group(n).is_trivial()
    return pairs, certified, wrong


def support_census(n):
    """The vanishing certificate against computed cohomology on every poset of size n.

    Each poset's constant Z presheaf and every node's up-set indicator are
    checked by `certificate_check`.  Returns the counts of posets,
    presheaves, (side, degree) pairs, certified pairs and wrong ones.
    """
    counts = dict.fromkeys(["posets", "presheaves", "pairs", "certified", "wrong"], 0)
    for P in posets_up_to_isomorphism(n):
        counts["posets"] += 1
        intersection = IntersectionPoset(P)
        presheaves = [Presheaf(intersection, constant_diagram(intersection.poset))]
        presheaves += [upset_indicator(intersection, k) for k in range(len(intersection))]
        for ps in presheaves:
            counts["presheaves"] += 1
            for key, value in zip(("pairs", "certified", "wrong"), certificate_check(ps)):
                counts[key] += value
    return counts


def main_by_full_parse(argv):
    """`posetcoh.cli.main` with the whole line read by the top-level parser.

    Its subparsers action hands the rest of the line to the named command's
    parser, and leftover tokens fail the top-level parse; the command then
    runs and its result is written as `main` writes it.
    """
    args = build_parser().parse_args(_attached_windows(argv))
    try:
        code, payload, text = args.func(args)
        if text is None:
            return code
        if args.json:
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text)
        return code
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
