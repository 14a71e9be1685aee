"""Workload definitions: seeded inputs, size properties, admission and checks.

Every workload turns a workload seed into an ordered stream of candidate
cases.  Each candidate gets an input-size property computed from its
documents before anything is timed, and cases are admitted in stream order
into fixed size strata until every stratum holds its quota.  Candidates
below the lowest edge (trivial inputs) or above the highest edge (the
heavy tail) are never run.  Fixed strata keep the size mix of the case set
the same for every workload seed, which is what keeps a pass's total time
comparable between seeds; the stratum edges and quotas are part of the
workload definition and are recorded in the baseline file.

Case costs span orders of magnitude for one generator and size, because
cochain counts grow combinatorially and Smith normal form entries can grow
in bit length.  Admission therefore never looks at measured time.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import itertools
import json
import random

from posetcoh import (
    IntersectionPoset,
    cech_ordered_complex,
    criterion,
    load_presheaf,
    parse_poset,
    random_diagram,
    random_poset,
    random_presheaf,
    render_group,
    render_presheaf,
    serialize_poset,
)
from posetcoh import cli

FUZZ_MAX_ELEMENTS = 5
FUZZ_PRESHEAVES = 5
# the seed whose answers are recorded in pinned.json
PINNED_SEED = 1


class AdmissionError(RuntimeError):
    """Raised when a seed's candidate stream cannot fill every stratum."""


def canonical_bytes(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# --- documents -------------------------------------------------------------


def _group_literal(group):
    return {
        "generators": group.generators,
        "relators": [list(group.relations.column(j)) for j in range(group.relations.cols)],
    }


def render_diagram(poset, diagram):
    """A mode "diagram" document: groups on base elements, maps on covers."""
    groups = {name: _group_literal(diagram.value(k)) for k, name in enumerate(poset.elements)}
    maps = {}
    for low, high in poset.covers():
        key = "%s->%s" % (poset.elements[high], poset.elements[low])
        maps[key] = [list(row) for row in diagram.edge_maps[(high, low)].matrix.entries]
    return {"base": serialize_poset(poset), "mode": "diagram", "groups": groups, "maps": maps}


def case_documents(spec):
    """The input documents of one case, keyed by file role."""
    if spec["kind"] == "fuzz":
        return {}
    P = random_poset(spec["n"], spec["density"], spec["poset_seed"])
    docs = {"poset": serialize_poset(P)}
    if spec["kind"] == "presheaf":
        docs["presheaf"] = render_presheaf(random_presheaf(IntersectionPoset(P), spec["seed"]))
    elif spec["kind"] == "diagram":
        docs["presheaf"] = render_diagram(P, random_diagram(P, spec["seed"]))
    return docs


def documents_digest(docs):
    return sha256(b"".join(canonical_bytes(docs[role]) for role in sorted(docs)))


def case_argv(spec, paths):
    """The CLI argument list of a case, given the file path of each document."""
    kind = spec["kind"]
    if kind == "fuzz":
        return [
            "fuzz", "--count", "1",
            "--max-elements", str(FUZZ_MAX_ELEMENTS),
            "--presheaves", str(FUZZ_PRESHEAVES),
            "--seed", str(spec["seed"]), "--json",
        ]
    if kind == "poset":
        return ["criterion", paths["poset"], "--no-shortcut", "--json"]
    return ["compare", paths["poset"], paths["presheaf"], "--json"]


# --- size properties -------------------------------------------------------


def _weighted_chain_profile(down, weights):
    """Per degree, the summed weights of the last element over all chains.

    Chains run strictly downward, c_0 > c_1 > ..., and carry the weight of
    their last (smallest) element, as cochains of a diagram do.
    """
    n = len(down)
    order = sorted(range(n), key=lambda i: (-len(down[i]), i))
    # ways[i] = number of chains of the current length ending at i
    ways = [1] * n
    profile = []
    while True:
        profile.append(sum(ways[i] * weights[i] for i in range(n)))
        nxt = [0] * n
        for i in order:
            if ways[i]:
                for j in down[i]:
                    if j != i:
                        nxt[j] += ways[i]
        if not any(nxt):
            break
        ways = nxt
    return profile


def _complex_cost(gens, rels):
    """Proxy for computing the homology of a complex with these sizes.

    Homology at degree i reduces [d_i | R_{i+1}] (G_i + R_{i+1} columns) and
    then its cycles joined with d_{i-1} and R_i; the column transforms of
    both reductions are square in the column count.  Relators count even on
    zero generators, where they still add columns.
    """
    cost = 0
    for i, g in enumerate(gens):
        cols = g + (rels[i + 1] if i + 1 < len(rels) else 0)
        joined = cols + (gens[i - 1] if i else 0) + rels[i]
        cost += cols * cols + joined * joined
    return cost


# large prime for the ranks behind section sizes (sizes only, never answers)
_P = (1 << 61) - 1


def _kernel_mod_p(columns, nrows):
    """A basis, modulo a large prime, of {x : sum_j x_j columns[j] = 0}."""
    ncols = len(columns)
    rows = [[col[i] % _P for col in columns] for i in range(nrows)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((k for k in range(r, nrows) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, _P)
        rows[r] = [x * inv % _P for x in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [(x - f * y) % _P for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free] % _P
        basis.append(v)
    return basis


def _sections(base, literals, maps, members):
    """(generators, relators) of the sections of a diagram's sheaf over a down-set.

    Counts follow the CLI's presentation: generators are the nullity of the
    cover-difference map joined with the target relators, relators the
    nullity of those cycles joined with the source relators.  Nullities do
    not depend on the basis an algorithm picks, so the counts are a property
    of the document.
    """
    order = sorted(members)
    offset, width = {}, 0
    for i in order:
        offset[i] = width
        width += literals[i]["generators"]
    edges = [(high, low) for low, high in base.covers() if high in members and low in members]
    height = sum(literals[b]["generators"] for _, b in edges)
    columns = [[0] * height for _ in range(width)]
    row = 0
    for a, b in edges:
        matrix = maps[(a, b)]
        for t in range(literals[b]["generators"]):
            for s_ in range(literals[a]["generators"]):
                columns[offset[a] + s_][row + t] += matrix[t][s_]
            columns[offset[b] + t][row + t] -= 1
        for rel in literals[b]["relators"]:
            col = [0] * height
            col[row:row + len(rel)] = rel
            columns.append(col)
        row += literals[b]["generators"]
    cycles = [v[:width] for v in _kernel_mod_p(columns, height)]
    source_relators = []
    for i in order:
        for rel in literals[i]["relators"]:
            col = [0] * width
            col[offset[i]:offset[i] + len(rel)] = rel
            source_relators.append(col)
    return len(cycles), len(_kernel_mod_p(cycles + source_relators, width))


def _intersections(base):
    """The distinct nonempty intersections of principal down-sets."""
    found = set(base.down)
    while True:
        new = {a & b for a in found for b in found if a & b} - found
        if not new:
            return sorted(found, key=lambda s: (len(s), sorted(s)))
        found |= new


def _node_structure(doc):
    """Node poset, node values and base values of a presheaf document.

    Nodes are the distinct nonempty intersections of principal down-sets,
    ordered by inclusion; values are (generators, relators) pairs.
    """
    base = parse_poset(doc["base"])
    nodes = _intersections(base)
    node_down = [frozenset(j for j, t in enumerate(nodes) if t <= s) for s in nodes]
    position = {s: k for k, s in enumerate(nodes)}
    lam = [position[base.down[i]] for i in range(len(base.elements))]
    groups = doc["groups"]
    if doc["mode"] == "presheaf":
        by_members = {}
        for name, literal in groups.items():
            members = frozenset(base.index[x] for x in name[1:-1].split(","))
            by_members[members] = (literal["generators"], len(literal["relators"]))
        node_vals = [by_members[s] for s in nodes]
    else:
        literals = [groups[name] for name in base.elements]
        maps = {}
        for key, rows in doc["maps"].items():
            high, low = key.split("->")
            maps[(base.index[high], base.index[low])] = rows
        node_vals = [_sections(base, literals, maps, s) for s in nodes]
    return node_down, node_vals, base.down, [node_vals[lam[i]] for i in range(len(lam))]


def presheaf_cost(doc):
    """Cost proxy of comparing a presheaf document: Cech side plus topos side."""
    node_down, node_vals, base_down, base_vals = _node_structure(doc)
    cost = 0
    for down, vals in ((node_down, node_vals), (base_down, base_vals)):
        gens = _weighted_chain_profile(down, [g for g, _ in vals])
        rels = _weighted_chain_profile(down, [r for _, r in vals])
        cost += _complex_cost(gens, rels)
    return cost


def compare_size(docs):
    return presheaf_cost(docs["presheaf"])


def criterion_size(docs):
    """Sum over cuts of the boundary-matrix cost of the upper section.

    For chain counts a_k of an upper section, reducing the boundary from
    degree k+1 to k costs about a_k * a_{k+1} * min(a_k, a_{k+1}).
    """
    P = parse_poset(docs["poset"])
    cost = 0
    for lower in _intersections(P):
        upper = sorted(frozenset.intersection(*(P.up[x] for x in lower)))
        down = [frozenset(k for k, j in enumerate(upper) if j in P.down[i]) for i in upper]
        a = _weighted_chain_profile(down, [1] * len(upper))
        cost += sum(x * y * min(x, y) for x, y in zip(a, a[1:]))
    return cost


def fuzz_size(spec):
    """Replay one `fuzz --count 1` draw and return its comparison cost proxy.

    Mirrors the order of random draws in the CLI's fuzz command: a poset that
    fails the criterion costs only the criterion (size 0); a passing one is
    compared against FUZZ_PRESHEAVES random presheaves.
    """
    rng = random.Random(spec["seed"])
    size = rng.randint(1, FUZZ_MAX_ELEMENTS)
    density = rng.random()
    P = random_poset(size, density, rng.randrange(1 << 30))
    if criterion(P).verdict != "PASS":
        return 0
    intersection = IntersectionPoset(P)
    return sum(
        presheaf_cost(render_presheaf(random_presheaf(intersection, rng.randrange(1 << 30))))
        for _ in range(FUZZ_PRESHEAVES)
    )


# --- independent routes ----------------------------------------------------


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _check_comparison(case, docs, rc, answer):
    """Checks a `compare --json` answer without the route that produced it.

    The Cech groups are recomputed on the ordered Cech complex over tuples
    of basic opens; a criterion PASS on the base poset forces every degree
    to be an isomorphism; and the answer must agree with itself.  (The full
    `--oracle` route also builds the unreduced truncated complexes, which is
    out of reach for many compare-workload cases within a run.)
    """
    rows = answer["degrees"]
    if answer["all_isomorphic"] != all(row["isomorphism"] for row in rows):
        return "all_isomorphic disagrees with the degree rows"
    if rc != (0 if answer["all_isomorphic"] else 1):
        return "exit code %r does not match the verdict" % rc
    for row in rows:
        if row["isomorphism"] and row["cech"] != row["topos"]:
            return "degree %d is an isomorphism between different groups" % row["degree"]
    if criterion(parse_poset(docs["poset"])).verdict == "PASS" and not answer["all_isomorphic"]:
        return "criterion passes but the comparison fails"
    ordered = cech_ordered_complex(load_presheaf(docs["presheaf"]))
    for row in rows:
        if render_group(ordered.homology_group(row["degree"])) != row["cech"]:
            return "ordered Cech route disagrees at degree %d" % row["degree"]
    return None


def check_answer(case, paths, docs, rc, out):
    """None when a case's answer agrees with the program's independent
    routes, else a one-line reason."""
    if rc not in (0, 1):
        return "exit code %r" % (rc,)
    try:
        answer = json.loads(out)
    except ValueError:
        return "output is not one JSON document"
    kind = case["kind"]
    if kind == "fuzz":
        if rc != 0 or answer.get("violations") != 0:
            return "fuzz reports violations"
        if answer["comparisons"] != FUZZ_PRESHEAVES * answer["criterion_passes"]:
            return "fuzz comparison count is inconsistent"
        return None
    if kind == "poset":
        _, quick = _run_cli(["criterion", paths["poset"], "--json"])
        if json.loads(quick)["verdict"] != answer["verdict"]:
            return "verdict differs from the shortcut route"
        if rc != (0 if answer["verdict"] == "PASS" else 1):
            return "exit code %r does not match the verdict" % rc
        return None
    return _check_comparison(case, docs, rc, answer)


# --- workloads -------------------------------------------------------------


class Workload:
    """A named case stream with size strata.

    `strata` maps a stratum group (the case kind) to a list of
    (low, high, quota): cases of that kind with low <= size < high are
    admitted until `quota` of them are in.  `nominal_pass_s` is the wall
    time one pass took at the seed commit on a 2-CPU x86-64 box; it fixes
    how many passes a run of a given length makes, and is never measured
    at run time.
    """

    def __init__(self, name, why, stream, size, strata, nominal_pass_s):
        self.name = name
        self.why = why
        self.stream = stream
        self.size = size
        self.strata = strata
        self.nominal_pass_s = nominal_pass_s

    def case_count(self):
        return sum(q for bins in self.strata.values() for _, _, q in bins)

    def plan(self, seed, max_candidates=5000):
        """Admit cases for a workload seed; returns (cases, excluded, scanned)."""
        fill = {(group, k): 0 for group, bins in self.strata.items() for k in range(len(bins))}
        edges = {group: [low for low, _, _ in bins] + [bins[-1][1]] for group, bins in self.strata.items()}
        cases, excluded = [], []
        need = self.case_count()
        for scanned, spec in enumerate(itertools.islice(self.stream(seed), max_candidates), 1):
            group = spec["kind"]
            docs = case_documents(spec)
            size = self.size(spec, docs)
            k = bisect.bisect_right(edges[group], size) - 1
            if k < 0 or k >= len(self.strata[group]):
                excluded.append(dict(spec, size=size))
                continue
            if fill[(group, k)] >= self.strata[group][k][2]:
                continue
            fill[(group, k)] += 1
            case = dict(spec, size=size, docs_sha256=documents_digest(docs))
            case["id"] = "%s-%03d" % (self.name, len(cases))
            cases.append(case)
            if len(cases) == need:
                return cases, excluded, scanned
        raise AdmissionError("%s seed %d: %d candidates did not fill the strata" % (self.name, seed, max_candidates))


def _poset_stream(kinds, sizes, density, stride):
    """Candidate poset cases for a seed, cycling through kinds and sizes.

    Every candidate gets its own poset seed, so no two cases of a run share
    an input document.
    """

    def stream(seed):
        for k in itertools.count():
            base = seed * stride + k
            yield {
                "kind": kinds[k % len(kinds)],
                "n": sizes[k // len(kinds) % len(sizes)],
                "density": density,
                "poset_seed": base,
                "seed": base,
            }

    return stream


def _even_strata(edges, quota):
    """Strata between consecutive edges, each admitting `quota` cases.

    Narrow strata fix the size mix of a case set, so the median and tail
    case land at about the same size for every workload seed.
    """
    return [(low, high, quota) for low, high in zip(edges, edges[1:])]


def _fuzz_stream(seed):
    for k in itertools.count(seed * 1_000_000):
        yield {"kind": "fuzz", "seed": k}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare",
            "compare --json, 40 presheaf + 40 diagram docs on random_poset(7-8, 0.5) in 8 cost strata 3k-16k; 70% of draws cost more (median 0.6 s, p90 5.2 s) and are left out",
            _poset_stream(("presheaf", "diagram"), (7, 8), 0.5, 1_000_000),
            lambda spec, docs: compare_size(docs),
            {kind: _even_strata((3000, 3800, 5000, 6200, 7500, 9000, 11000, 13500, 16000), 5) for kind in ("presheaf", "diagram")},
            4.0,
        ),
        Workload(
            "criterion",
            "criterion --no-shortcut --json, 50 random_poset(13-14, 0.4) in 10 cut-cost strata 40k-150k; 86% of draws cost more (median 1.1 s, p90 6.7 s) and are left out",
            _poset_stream(("poset",), (13, 14), 0.4, 1_000_000),
            lambda spec, docs: criterion_size(docs),
            {"poset": _even_strata((40000, 50000, 58000, 66000, 75000, 85000, 95000, 107000, 120000, 135000, 150000), 5)},
            2.7,
        ),
        Workload(
            "fuzz",
            "fuzz --count 1 --max-elements 5 --presheaves 5, 310 draws in 8 cost strata below 8.5k; 17% of draws cost more (median 0.12 s, p90 0.4 s) and are left out; per-call costs",
            _fuzz_stream,
            lambda spec, docs: fuzz_size(spec),
            # Quotas follow the share of each size range among the draws below
            # the top edge.  Many cases below 8.5k, rather than a few heavy
            # ones above it, keep the tail percentile (p95 of 310 cases) in a
            # dense range of case times, so that it moves little between
            # workload seeds.
            {
                "fuzz": [
                    (0, 1, 3),
                    (1, 150, 77),
                    (150, 300, 75),
                    (300, 700, 32),
                    (700, 1500, 57),
                    (1500, 3000, 27),
                    (3000, 6000, 27),
                    (6000, 8500, 12),
                ]
            },
            3.6,
        ),
    )
}
