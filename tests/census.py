"""The byte censuses of the CI workflow, and the harness of its bounded runs.

A census hashes `b"%d\\n" % code`, stdout and, where it asks, stderr of
`posetcoh.cli.main` on each command line of a family, in process, and pins
that sha256 with its counts; its docstring says what the code did when the
digest was recorded.

    PYTHONPATH=src python tests/census.py [name ...]
    census.py --documents N DENSITY SEED POSET [SHEAF [MAX_GENERATORS]]
    census.py --diagram-documents N DENSITY SEED POSET DIAGRAM [DIAGRAM_SEED]
    census.py --bounded SECONDS MB ARG ...

run the named censuses, or all, exiting 1 on a mismatch; write random_poset(N,
DENSITY, SEED) and its random presheaf of seed 0, or its diagram document of
DIAGRAM_SEED (default 0); and run `posetcoh ARG ...` under `timeout SECONDS`,
exiting 3 once its peak RSS reaches MB megabytes.
"""

import resource
import subprocess
import sys
import time


def bounded(seconds, megabytes, argv):
    """Run `posetcoh argv` under `timeout seconds`: its exit code, or 3 once
    the peak RSS of the run reaches `megabytes`."""
    start = time.perf_counter()
    code = subprocess.call(["timeout", str(seconds), sys.executable, "-m", "posetcoh.cli", *argv])
    elapsed = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024
    print("exit %d, peak RSS %d MB, %.1f s" % (code, peak, elapsed), file=sys.stderr)
    if peak >= megabytes:
        print("peak RSS at or over %d MB" % megabytes, file=sys.stderr)
        return 3
    return code


if __name__ == "__main__" and sys.argv[1:2] == ["--bounded"]:
    # a child's peak RSS counts the size of the process that starts it, so
    # the child starts before anything else loads (hashlib alone is 4 MB)
    sys.exit(bounded(int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]))

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import tempfile

from oracles import posets_up_to_isomorphism
from posetcoh import cli
from posetcoh.cech import random_presheaf
from posetcoh.cuts import principal_meets
from posetcoh.diagrams import random_diagram
from posetcoh.documents import render_presheaf
from posetcoh.poset import IntersectionPoset, random_poset, serialize_poset

CENSUSES = {}


def census(name, counts, digest, stderr=False):
    """Register a generator of command lines, which takes a document writer,
    with its pins: its calls, after its writes of p.json where there are two."""

    def register(cases):
        CENSUSES[name] = (cases, counts, digest, stderr)
        return cases
    return register


def cli_digest(cases, stderr=False):
    """(calls, sha256 hex digest) of `main` on each command line of `cases`."""
    digest, calls = hashlib.sha256(), 0
    for argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest.update(b"%d\n" % code)
        digest.update(out.getvalue().encode())
        if stderr:
            digest.update(err.getvalue().encode())
        calls += 1
    return calls, digest.hexdigest()


def dump(path, document):
    with open(path, "w") as handle:
        json.dump(document, handle)
    return path


def run(name):
    """Print a census's counts and digest; whether they are its pins."""
    cases, pinned, expected, stderr = CENSUSES[name]
    writes = []
    with tempfile.TemporaryDirectory() as tmp:
        def write(filename, document):
            writes.append(filename)
            return dump(os.path.join(tmp, filename), document)

        calls, digest = cli_digest(cases(write), stderr)
    counts = (writes.count("p.json"), calls)[-len(pinned):]
    matches = (counts, digest) == (pinned, expected)
    print(name, *counts, digest, *([] if matches else ["differs from its pins", *pinned, expected]))
    return matches


@functools.lru_cache(maxsize=None)
def small_posets():
    """One poset per isomorphism class of each size 1 to 6: 405 in all."""
    return [P for n in range(1, 7) for P in posets_up_to_isomorphism(n)]


def each_poset(write, posets, *lines):
    """Each line, a command and its flags, on the document of each poset in turn."""
    for P in posets:
        path = write("p.json", serialize_poset(P))
        for line in lines:
            command, *flags = line.split()
            yield [command, path, *flags]


@census("criterion", (1620,), "100e62ad70f6cf3d24fe035053e7514fda2640815642ec65c31aeee42e5296a9")
def criterion(write):
    """Recorded while acyclicity_check still held the least-element test."""
    lines = ("criterion", "criterion --json", "criterion --no-shortcut", "criterion --no-shortcut --json")
    return each_poset(write, small_posets(), *lines)


@census("cuts", (810,), "5998707ab4273f4f9bf4486d7bf4e9a37a6e806c6c1665851388a2c2fa343095")
def cuts(write):
    """Every cut's halves and witness, in cut order.  Recorded while each cut
    went through frozensets and `bounds`."""
    return each_poset(write, small_posets(), "cuts", "cuts --json")


@census("nodes", (810,), "31a1a6fa955d764ed4bc7c5608bd96483f85d549211f15c1142c6437a0aafa9a")
def nodes(write):
    """The base's covers, the node names and covers of its intersection
    poset, its cover count and its height.  Recorded while the node poset
    and `covers` were built from frozenset inclusions."""
    return each_poset(write, small_posets(), "skeleton --json", "validate --json")


@census("homology", (810,), "6e6a0864738dfe55d94c3ca107049ef1bdc34bcf98b5f96d37daedf05e17b6c7")
def homology(write):
    """Recorded while the sweep counted the components of the whole poset
    before taking its core, and the intersection nodes were sorted by their
    member name lists."""
    return each_poset(write, small_posets(), "homology", "homology --json")


@census("relations", (804, 1608), "5bb73d6fd4ff6a4f1e4bcd5e8372c8390451ff73fa13dd482b7480cb90beacd5", stderr=True)
def relations(write):
    """A document per poset listing every relation a <= b, self-loops
    included, and for each poset with a strict relation a second one that
    adds the reverse of one strict pair, a relation cycle.  Recorded while
    parse_poset closed each down-set with a set and a stack and the
    constructor checked frozensets."""
    rng = random.Random(43)
    for P in small_posets():
        n = len(P.elements)
        elements = list(P.elements)
        rng.shuffle(elements)
        listed = [[P.elements[a], P.elements[b]] for b in range(n) for a in range(n) if P.leq(a, b)]
        rng.shuffle(listed)
        strict = [pair for pair in listed if pair[0] != pair[1]]
        for relations in [listed] + ([listed + [rng.choice(strict)[::-1]]] if strict else []):
            path = write("p.json", {"elements": elements, "relations": relations})
            yield ["validate", path, "--json"]
            yield ["cuts", path, "--json"]


@census("random-posets", (600,), "5d5b40b8a1190f9d39245eae06279fae7b8735c6be81b2d01ecea07dbc468e61")
def random_posets(write):
    """Recorded while random_poset wrote a relation document and closed it
    through parse_poset."""
    for n in range(1, 41):
        for seed in range(3):
            for density in ([], ["--density", "0"], ["--density", "0.05"], ["--density", "0.4"], ["--density", "1"]):
                yield ["random-poset", str(n), "--seed", str(seed), *density]


@census("criterion-at-scale", (21,), "61082f8c9bcd047190a980c3c259ac6353d655bbaac9f84faa5dd8e6c42d62f1")
def criterion_at_scale(write):
    """Masks here run past 32 bits.  Recorded while the order kernels still
    ran on frozensets; all 21 calls take under 1 s."""
    posets = (random_poset(n, 0.4, n) for n in range(16, 41, 4))
    return each_poset(write, posets, "criterion --no-shortcut", "criterion --no-shortcut --json", "cuts --json")


def comparisons(write, posets, sheaf):
    """compare --json, plain and --oracle, on `sheaf(P, seed)` for seeds 0 and 1 over each P."""
    for P in posets:
        poset_path = write("p.json", serialize_poset(P))
        for seed in (0, 1):
            sheaf_path = write("s.json", sheaf(P, seed))
            for flags in (["--json"], ["--oracle", "--json"]):
                yield ["compare", poset_path, sheaf_path, *flags]


def presheaf_document(P, seed, max_generators=3):
    return render_presheaf(random_presheaf(IntersectionPoset(P), seed, max_generators=max_generators))


@census("compare-bijective", (298, 1192), "a8f8c3d7aa236eca9c4565f4e28b6222907e5f232fd5f2ab53784e8601528b99")
def compare_bijective(write):
    """Random presheaves on the posets whose meets are principal, where λ is
    a bijection.  Recorded while 408 of the 596 presheaves, 4 of them with a
    permuted λ, had their topos complex relabeled from the presheaf's own
    diagram."""
    posets = (P for P in small_posets() if principal_meets(P))
    return comparisons(write, posets, presheaf_document)


@census("compare-not-bijective", (107, 428), "b81e5355fa68d91d64ccb70c1bf4457e76bcd2d211208b1a36f3604c2889ec31")
def compare_not_bijective(write):
    """The other posets: there the node poset is not the base, and the Čech
    support, the topos support and the two sides' groups can differ.
    Recorded while every degree's relation lattice was computed, inside the
    vanishing certificate or not."""
    posets = (P for P in small_posets() if not principal_meets(P))
    return comparisons(write, posets, presheaf_document)


def diagram_document(P, seed=0):
    """The mode "diagram" document of random_diagram(P, seed), written as the
    benchmark writes one: groups in element order with their relator
    columns, maps keyed HIGH->LOW in cover order."""
    diagram = random_diagram(P, seed)
    groups = {}
    for k, name in enumerate(P.elements):
        value = diagram.value(k)
        relators = [list(value.relations.column(j)) for j in range(value.relations.cols)]
        groups[name] = {"generators": value.generators, "relators": relators}
    maps = {}
    for low, high in P.covers():
        key = "%s->%s" % (P.elements[high], P.elements[low])
        maps[key] = [list(row) for row in diagram.edge_maps[(high, low)].matrix.entries]
    return {"base": serialize_poset(P), "mode": "diagram", "groups": groups, "maps": maps}


@census("compare-diagrams", (405, 1620), "ec6bf60fa160e5ad4d979db93e758b2ea4d1b2cfb188e0d6766a7dd432b4ae5a")
def compare_diagrams(write):
    """Diagram documents, which load through `sheaf_presheaf`."""
    return comparisons(write, small_posets(), diagram_document)


def main(argv):
    if argv[:1] in (["--documents"], ["--diagram-documents"]):
        n, density, seed, poset_path, *sheaf = argv[1:]
        P = random_poset(int(n), float(density), int(seed))
        dump(poset_path, serialize_poset(P))
        if argv[0] == "--diagram-documents":
            dump(sheaf[0], diagram_document(P, *map(int, sheaf[1:])))
        elif sheaf:
            dump(sheaf[0], presheaf_document(P, 0, *map(int, sheaf[1:])))
        return 0
    unknown = [name for name in argv if name not in CENSUSES]
    if unknown:
        sys.exit("no census %s; the censuses are %s" % (", ".join(unknown), ", ".join(CENSUSES)))
    return 0 if all([run(name) for name in argv or CENSUSES]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
