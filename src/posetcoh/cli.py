"""Command-line frontend.

Exit codes: 0 for an affirmative result, 1 for a negative verdict or a
comparison mismatch, 2 for input errors and failed cross-checks.  With
`--json` every command prints one canonical JSON object (sorted keys, compact
separators), byte-identical for identical inputs and seeds.

Every command returns (exit code, payload, text) and `main` alone writes the
result: the payload as canonical JSON under `--json`, else the text, to
`--out` or stdout.  A text of None means the command reported on stderr and
there is no result to write.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import re
import sys

from .cech import (
    cech_cohomology,
    cech_ordered_complex,
    cohomology_top,
    compare_report,
    random_presheaf,
    topos_cohomology,
)
from .complexes import subposet_homology
from .cuts import criterion, enumerate_cuts, principal_meets
from .diagrams import cohomology_support, derived_limit, full_complex_truncated
from .documents import (
    DocumentError,
    load_presheaf,
    render_group,
    render_presheaf,
    skeleton,
)
from .groups import CanonicalGroup
from .poset import (
    IntersectionPoset,
    parse_poset,
    random_poset,
    serialize_poset,
    subset_name,
)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc.strerror or exc))
    except json.JSONDecodeError as exc:
        raise DocumentError("%s is not valid JSON: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, integers past the digit limit, deep nesting
        raise DocumentError("cannot parse %s: %s" % (path, exc))


def _load_poset(path):
    return parse_poset(_read_json(path))


def _load_presheaf(args):
    space = _load_poset(args.poset)
    return space, load_presheaf(_read_json(args.presheaf), space=space)


def _degree_window(args, default_top):
    """The --degrees window, or 0 to `default_top()`, which only it calls."""
    if args.degrees is None:
        return 0, default_top()
    # ASCII digits, a minus sign (on 0 too) left to the range check: int() alone
    # would also take spaces, a plus sign, underscores and other scripts' digits
    match = re.fullmatch(r"(-?[0-9]+)(?:\.\.(-?[0-9]+))?", args.degrees)
    if match is None:
        raise DocumentError("--degrees expects A..B with integers")
    low, high = int(match[1]), int(match[2] or match[1])
    if "-" in args.degrees or high < low:
        raise DocumentError("--degrees window must satisfy 0 <= A <= B")
    return low, high


def _order_list(args):
    """The --order names, which only the oracle's ordered route reads."""
    if args.order is None:
        return None
    if not args.oracle:
        raise DocumentError("--order needs --oracle")
    return [part for part in args.order.split(",") if part]


def _names(P, indices):
    return sorted(P.elements[i] for i in indices)


def _cut_names(P, cut):
    return "<%s, %s>" % (subset_name(P, cut.lower), subset_name(P, cut.upper))


def cmd_validate(args):
    P = _load_poset(args.poset)
    shape = (len(P.elements), len(P.covers()), P.height() + 1)
    payload = dict(zip(("elements", "cover_relations", "longest_chain"), shape))
    return 0, payload, "%d elements, %d cover relations, longest chain %d" % shape


def cmd_cuts(args):
    P = _load_poset(args.poset)
    cuts = enumerate_cuts(P)
    payload = {
        "cuts": [
            {
                "lower": _names(P, cut.lower),
                "upper": _names(P, cut.upper),
                "witness": _names(P, cut.witness),
            }
            for cut in cuts
        ]
    }
    lines = ["%d cuts with nonempty lower half" % len(cuts)]
    lines += [
        "cut %s witness %s" % (_cut_names(P, cut), subset_name(P, cut.witness))
        for cut in cuts
    ]
    return 0, payload, "\n".join(lines)


def cmd_criterion(args):
    P = _load_poset(args.poset)
    report = criterion(P, shortcuts=not args.no_shortcut)
    payload = {
        "verdict": report.verdict,
        "cuts_examined": report.cuts_examined,
        "shortcut": report.shortcut,
        "failures": [
            {
                "lower": _names(P, cut.lower),
                "upper": _names(P, cut.upper),
                "degree": degree,
                "group": render_group(group),
            }
            for cut, degree, group in report.failures
        ],
    }
    if report.verdict == "PASS":
        text = (
            "PASS: all tested upper sections are acyclic"
            " (cuts examined: %d, shortcut: %s)"
            % (report.cuts_examined, report.shortcut)
        )
        return 0, payload, text
    lines = [
        "FAIL: %d of %d cuts have non-acyclic upper sections"
        % (len(report.failures), report.cuts_examined)
    ]
    lines += [
        "cut %s: H_%d = %s" % (_cut_names(P, cut), degree, group.render())
        for cut, degree, group in report.failures
    ]
    return 1, payload, "\n".join(lines)


def cmd_skeleton(args):
    doc = skeleton(_load_poset(args.poset))
    return 0, doc, json.dumps(doc, indent=2)


def _groups(fmt, rows):
    """The result of a command that lists (degree, canonical group) rows."""
    payload = {"groups": [{"degree": n, "group": render_group(g)} for n, g in rows]}
    return 0, payload, "\n".join(fmt % (n, g.render()) for n, g in rows)


def _unreduced_route(diagram, top):
    """The unreduced complex of `diagram` as a labeled route up to degree
    `top`, truncated there or at the base height, whichever is lower;
    derived limits vanish above the height, so there it gives the zero group."""
    cap = min(top, diagram.base.height())
    routed = full_complex_truncated(diagram, cap)
    return "unreduced", lambda n: routed.homology_group(n) if n <= cap else CanonicalGroup(0)


def _route_problem(rows, routes):
    """The first printed row that an independent route disagrees with, or None.

    `rows` are the (degree, group) pairs a command prints, and `routes` the
    (label, group in degree n) pairs each row is compared with, in order.
    """
    for n, printed in rows:
        for label, route in routes:
            other = route(n)
            if printed != other:
                return "%s route disagrees at degree %d: %s vs %s" % (
                    label, n, printed.render(), other.render())
    return None


def _oracle_mismatch(problem):
    print("oracle mismatch: %s" % problem, file=sys.stderr)
    return 2, None, None


def cmd_cohomology(args):
    """`cech` and `topos`: derived limits of the presheaf's diagram or of its
    pull-back to the base, cross-checked by the ordered Cech route or the
    unreduced route.  By default `cech` ends at `cohomology_top`, `topos` at
    the base height."""
    cech = args.command == "cech"
    order = _order_list(args) if cech else None
    space, ps = _load_presheaf(args)
    diagram = ps.diagram if cech else ps.pulled_diagram()
    if args.oracle:
        diagram.verify()
        diagram.reduced_complex().verify()
    top = functools.partial(cohomology_top, ps) if cech else space.height
    low, high = _degree_window(args, top)
    group = cech_cohomology if cech else topos_cohomology
    rows = [(n, group(ps, n)) for n in range(low, high + 1)]
    if args.oracle:
        if cech:
            route = "ordered", cech_ordered_complex(ps, order).homology_group
        else:
            route = _unreduced_route(diagram, high)
        problem = _route_problem(rows, [route])
        if problem:
            return _oracle_mismatch(problem)
    return _groups("H^%d = %s", rows)


def cmd_compare(args):
    order = _order_list(args)
    _, ps = _load_presheaf(args)
    if args.oracle:
        for built in (ps.diagram, ps.pulled_diagram(), ps.cech_complex(), ps.topos_complex(),
                      ps.comparison_chain_map()):
            built.verify()
    low, high = _degree_window(args, functools.partial(cohomology_top, ps))
    report = compare_report(ps, range(low, high + 1))
    rows = report.rows
    if args.oracle:
        # groups of the comparison's own homology: derived limits are a route too
        pulled = ps.pulled_diagram()
        problem = _route_problem(
            [(row.degree, row.cech) for row in rows],
            [("reduced", functools.partial(derived_limit, ps.diagram)),
             ("ordered", cech_ordered_complex(ps, order).homology_group),
             _unreduced_route(ps.diagram, high)],
        ) or _route_problem(
            [(row.degree, row.topos) for row in rows],
            [("reduced", functools.partial(derived_limit, pulled)), _unreduced_route(pulled, high)],
        )
        if problem:
            return _oracle_mismatch(problem)
    payload = {
        "cap": high,
        "all_isomorphic": report.all_iso,
        "degrees": [
            {
                "degree": row.degree,
                "cech": render_group(row.cech),
                "topos": render_group(row.topos),
                "map": [list(r) for r in row.map.matrix.entries],
                "isomorphism": row.iso,
            }
            for row in rows
        ],
    }
    lines = [
        "degree %d: cech %s | topos %s | %s"
        % (
            row.degree,
            row.cech.render(),
            row.topos.render(),
            "isomorphic" if row.iso else "NOT isomorphic",
        )
        for row in rows
    ]
    lines.append(
        "comparison map is an isomorphism in every listed degree"
        if report.all_iso
        else "comparison fails at degrees %s"
        % ",".join(str(row.degree) for row in rows if not row.iso)
    )
    return (0 if report.all_iso else 1), payload, "\n".join(lines)


def cmd_homology(args):
    P = _load_poset(args.poset)
    low, high = _degree_window(args, P.height)
    # the sweep yields the degrees that differ from a point's, lowest first
    found = dict(itertools.takewhile(lambda row: row[0] <= high, subposet_homology(P)))
    rows = [(n, found.get(n, CanonicalGroup(int(n == 0)))) for n in range(low, high + 1)]
    return _groups("H_%d = %s", rows)


def cmd_random_poset(args):
    doc = serialize_poset(random_poset(args.elements, args.density, args.seed))
    return 0, doc, json.dumps(doc, indent=2)


def cmd_fuzz(args):
    for flag, value, least in [
        ("--count", args.count, 0), ("--max-elements", args.max_elements, 1),
        ("--presheaves", args.presheaves, 0),
    ]:
        if value < least:
            raise DocumentError("%s must be at least %d" % (flag, least))
    rng = random.Random(args.seed)
    passes = 0
    comparisons = 0
    violations = []
    for _ in range(args.count):
        size = rng.randint(1, args.max_elements)
        density = rng.random()
        poset_seed = rng.randrange(1 << 30)
        P = random_poset(size, density, poset_seed)
        report = criterion(P)
        if report.verdict != "PASS":
            continue
        passes += 1
        comparisons += args.presheaves
        # drawn even where unused, since later draws depend on the stream
        presheaf_seeds = [rng.randrange(1 << 30) for _ in range(args.presheaves)]
        if principal_meets(P):
            # each comparison is an isomorphism of complexes
            continue
        intersection = IntersectionPoset(P)
        for presheaf_seed in presheaf_seeds:
            ps = random_presheaf(intersection, presheaf_seed)
            # outside both supports a degree maps 0 to 0, an isomorphism
            support = cohomology_support(intersection.poset, ps.diagram.values)
            support |= cohomology_support(P, ps.pulled_diagram().values)
            outcome = compare_report(ps, [n for n in range(cohomology_top(ps) + 1) if n in support])
            if not outcome.all_iso:
                violations.append((P, ps, presheaf_seed, outcome))
    if violations:
        P, ps, presheaf_seed, outcome = violations[0]
        bundle = {
            "poset": serialize_poset(P),
            "presheaf": render_presheaf(ps),
            "presheaf_seed": presheaf_seed,
            "failing_degrees": [row.degree for row in outcome.rows if not row.iso],
        }
        path = args.out or "fuzz-repro.json"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(bundle, indent=2) + "\n")
        print(
            "violation: criterion PASS but comparison failed; bundle written to %s"
            % path,
            file=sys.stderr,
        )
        return 1, None, None
    summary = {
        "posets": args.count,
        "criterion_passes": passes,
        "comparisons": comparisons,
        "violations": 0,
    }
    text = "%d posets, %d criterion passes, %d comparisons, 0 violations" % (
        args.count,
        passes,
        comparisons,
    )
    return 0, summary, text


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on first use and shared by later calls;
    its `commands` maps each command name to that command's own parser."""
    parser = argparse.ArgumentParser(
        prog="posetcoh",
        description=(
            "Exact Cech and topos cohomology on finite posets, with the"
            " cut-acyclicity criterion for their agreement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, poset=True, presheaf=False, degrees=False,
            order=False, oracle=None):
        """A subcommand; `oracle` is the help text of its --oracle flag."""
        cmd = sub.add_parser(name, help=help_text)
        if poset:
            cmd.add_argument("poset", help="path to a poset JSON document")
        if presheaf:
            cmd.add_argument("presheaf", help="path to a presheaf JSON document")
        cmd.add_argument("--json", action="store_true", help="machine output")
        cmd.add_argument("--out", help="write output to a file instead of stdout")
        if degrees:
            cmd.add_argument("--degrees", help="degree window A..B")
        if order:
            cmd.add_argument("--order", help="total order for the oracle route, comma list")
        if oracle:
            cmd.add_argument("--oracle", action="store_true", help=oracle)
        cmd.set_defaults(func=func)
        return cmd

    add("validate", cmd_validate, "parse a poset and report its shape")
    add("cuts", cmd_cuts, "list all cuts with nonempty lower half")
    crit = add("criterion", cmd_criterion, "decide the acyclicity criterion")
    crit.add_argument(
        "--no-shortcut",
        action="store_true",
        help="skip the structural fast paths and test every cut by the homology of its core",
    )
    add("skeleton", cmd_skeleton, "emit a presheaf authoring template")
    add("cech", cmd_cohomology, "Cech cohomology of a presheaf", presheaf=True,
        degrees=True, order=True, oracle="cross-check via the ordered complex")
    add("topos", cmd_cohomology, "topos cohomology of the generated sheaf", presheaf=True,
        degrees=True, oracle="cross-check via the unreduced complex")
    add("compare", cmd_compare, "compare both cohomologies through the canonical map",
        presheaf=True, degrees=True, order=True,
        oracle="cross-check both routes independently")
    add("homology", cmd_homology, "integer homology of the order complex", degrees=True)
    rand = add("random-poset", cmd_random_poset, "emit a reproducible random poset", poset=False)
    rand.add_argument("elements", type=int, help="number of elements")
    rand.add_argument("--density", type=float, default=0.35, help="relation density")
    rand.add_argument("--seed", type=int, required=True, help="random seed")
    fuzz = add("fuzz", cmd_fuzz, "random agreement check at sample scale", poset=False)
    fuzz.add_argument("--count", type=int, default=100, help="number of posets")
    fuzz.add_argument(
        "--max-elements", type=int, default=8, help="largest poset size drawn"
    )
    fuzz.add_argument(
        "--presheaves", type=int, default=5, help="presheaves per passing poset"
    )
    fuzz.add_argument("--seed", type=int, required=True, help="random seed")
    parser.commands = sub.choices
    return parser


def _attached_windows(argv):
    """The arguments with `--degrees -1..2` written as `--degrees=-1..2`.

    argparse takes a separate value that starts with a minus sign and is
    not a plain negative number for an option, so such a window would fail
    as a missing value instead of reaching the range check of
    `_degree_window`.  Abbreviations such as `--deg` count too: in the
    commands that take `--degrees` no other option starts with `--d`, and
    joining a value to the option it follows changes no parse that succeeds.
    """
    out = []
    for token in argv:
        option = out[-1] if out else ""
        if len(option) > 2 and "--degrees".startswith(option) and re.match(r"-[0-9]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse(argv):
    """The arguments of a command line, parsed once where it names a command.

    The command's own parser reads the rest, as the full parser would hand
    it on; a line that names no command or leaves a token over goes through
    the full parser, so argparse writes its own text for the whole line.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(_attached_windows(argv))
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


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
