"""Command-line front door.

Subcommands: revise, check, enumerate, witness, roundtrip, trace,
example. Inputs are rank-function files (see ranking.parse_rank_file)
and formula text; theory arguments are either a formula (denoting its
deductive closure) or the literal ``bot`` for the inconsistent theory.

Exit codes: 0 when the command succeeds with no postulate violations
(for ``witness``, successful delivery of the requested witness), 1 when
a checked postulate is violated, 2 on usage or domain errors, 141
(128 + SIGPIPE) when the reader of the output closes it early.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import re
import sys
from typing import Callable, Optional

from .errors import RankedRevError, RankFileError
from .logic import Formula, Signature, Theory, format_formula, models_of, parse_formula
from .postulates import (
    ImpossibilityTarget,
    PostulateId,
    dynamic_underdetermination,
    find_impossibility_witness,
    run_suite,
)
from .ranking import (
    RankFunction,
    count_rank_functions,
    enumerate_rank_functions,
    format_rank_file,
    parse_rank_file,
)
from .render import canonical_formula, dnf_text, theory_text
from .revision import RankedRevision, RevisionStep, iterate, severity_of

_DEFAULT_ATOMS = "pqrstuvwxyzabcde"


class _UsageError(RankedRevError):
    pass


def _parse_atom_spec(value: str) -> tuple[str, ...]:
    value = value.strip()
    if re.fullmatch("[0-9]+", value):  # not isdigit(): int() rejects '²'
        count = int(value)
        if not 1 <= count <= len(_DEFAULT_ATOMS):
            raise _UsageError(f"--atoms count must be 1..{len(_DEFAULT_ATOMS)}")
        return tuple(_DEFAULT_ATOMS[:count])
    names = tuple(t for t in re.split(r"[,\s]+", value) if t)
    if not names:
        raise _UsageError("--atoms needs at least one atom name")
    return names


def _load_rank(path: Optional[str]) -> Optional[RankFunction]:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_rank_file(fh.read())
        except UnicodeDecodeError as exc:
            raise RankFileError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _resolve_sig(atoms: Optional[str], rank: Optional[RankFunction]) -> Signature:
    if rank is not None:
        if atoms is not None:
            spec = _parse_atom_spec(atoms)
            if re.fullmatch("[0-9]+", atoms.strip()):
                if len(spec) != rank.sig.n:
                    raise _UsageError(
                        f"--atoms {atoms} does not match the {rank.sig.n}-atom rank file"
                    )
            elif spec != rank.sig.atoms:
                raise _UsageError(
                    f"--atoms {','.join(spec)} does not match rank file atoms "
                    f"{','.join(rank.sig.atoms)}"
                )
        return rank.sig
    if atoms is None:
        raise _UsageError("need --atoms or --rank to fix the signature")
    return Signature(_parse_atom_spec(atoms))


def _parse_theory(text: str, sig: Signature) -> Theory:
    if text.strip() == "bot":
        return Theory.bottom(sig)
    return Theory(models_of(parse_formula(text, sig), sig))


def _parse_postulates(spec: str) -> set[PostulateId]:
    ids: set[PostulateId] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part.lower() == "all":
            ids.update(PostulateId)
            continue
        if ".." in part:
            lo, _, hi = part.partition("..")
            m1 = re.fullmatch(r"K([1-9])", lo.strip())
            m2 = re.fullmatch(r"K([1-9])", hi.strip())
            if not (m1 and m2) or int(m1.group(1)) > int(m2.group(1)):
                raise _UsageError(f"bad postulate range {part!r}")
            for i in range(int(m1.group(1)), int(m2.group(1)) + 1):
                ids.add(PostulateId[f"K{i}"])
            continue
        try:
            ids.add(PostulateId[part])
        except KeyError:
            raise _UsageError(f"unknown postulate id {part!r}") from None
    if not ids:
        raise _UsageError("no postulate ids given")
    return ids


def _trace_line(step: RevisionStep, phi_ast: Formula) -> str:
    return (
        f"{theory_text(step.before)} * {format_formula(phi_ast)} "
        f"=> {theory_text(step.after)} [{step.severity.value}]"
    )


# --- commands ---------------------------------------------------------------


def _cmd_revise(args) -> int:
    rank = _load_rank(args.rank)
    if rank is None:
        raise _UsageError("revise needs --rank")
    sig = _resolve_sig(args.atoms, rank)
    rv = RankedRevision(rank)
    k = _parse_theory(args.theory, sig)
    f = models_of(parse_formula(args.phi, sig), sig)
    result = rv.revise(k, f)
    sev = severity_of(k, f)
    if args.json:
        print(json.dumps({"result": theory_text(result), "severity": sev.value}))
    else:
        print(f"{theory_text(result)} [{sev.value}]")
    return 0


def _cmd_check(args) -> int:
    rank = _load_rank(args.rank)
    if rank is None:
        raise _UsageError("check needs --rank")
    _resolve_sig(args.atoms, rank)
    rv = RankedRevision(rank)
    ids = _parse_postulates(args.postulates)
    report = run_suite(rv, ids, mode=args.mode, seed=args.seed, samples=args.samples)
    if args.json:
        print(json.dumps(report.to_json_records(), indent=2))
    else:
        print(report.to_text(), end="")
    return 0 if report.all_pass else 1


def _cmd_enumerate(args) -> int:
    sig = Signature(_parse_atom_spec(args.atoms))
    if args.count_only:
        print(count_rank_functions(sig))
        return 0
    sys.stdout.writelines(" ".join(map(str, r.ranks)) + "\n" for r in enumerate_rank_functions(sig))
    return 0


def _cmd_witness(args) -> int:
    rank = _load_rank(args.rank)
    if rank is None:
        raise _UsageError("witness needs --rank")
    sig = _resolve_sig(args.atoms, rank)
    rv = RankedRevision(rank)
    which = args.which
    if which == "dynamic":
        if args.theory is None:
            raise _UsageError("witness --which dynamic needs --theory")
        k = _parse_theory(args.theory, sig)
        w = dynamic_underdetermination(sig, k)
        if args.json:
            print(json.dumps({
                "anchor": theory_text(w.anchor),
                "psi": dnf_text(w.psi),
                "phi": dnf_text(w.phi),
                "first": format_rank_file(w.first),
                "second": format_rank_file(w.second),
            }, indent=2))
        else:
            print(f"anchor: {theory_text(w.anchor)}")
            print(f"psi: {dnf_text(w.psi)}")
            print(f"phi: {dnf_text(w.phi)}")
            print("first:")
            print(format_rank_file(w.first), end="")
            print("second:")
            print(format_rank_file(w.second), end="")
        return 0
    alias = {"U8_1": ImpossibilityTarget.U8_1_VS_K4K5,
             "C2": ImpossibilityTarget.C2_VS_K1K4}
    try:
        target = alias.get(which) or ImpossibilityTarget(which)
    except ValueError:
        raise _UsageError(f"unknown witness target {which!r}") from None
    v = find_impossibility_witness(rv, target)
    if args.json:
        print(json.dumps({"postulate": v.postulate.name, "witness": v.witness_json()},
                         indent=2))
    else:
        print(f"{v.postulate.name} violation: {v.describe()}")
    return 0


def _cmd_roundtrip(args) -> int:
    rank = _load_rank(args.rank)
    if args.phi is not None:
        sig = _resolve_sig(args.atoms, rank)
        s = models_of(parse_formula(args.phi, sig), sig)
        out = dnf_text(models_of(canonical_formula(s), sig))
        if args.json:
            print(json.dumps({"dnf": out}))
        else:
            print(out)
        return 0
    if rank is not None:
        print(format_rank_file(rank), end="")
        return 0
    raise _UsageError("roundtrip needs --phi (with --atoms or --rank) or --rank")


def _cmd_trace(args) -> int:
    rank = _load_rank(args.rank)
    if rank is None:
        raise _UsageError("trace needs --rank")
    sig = _resolve_sig(args.atoms, rank)
    rv = RankedRevision(rank)
    k = _parse_theory(args.theory, sig)
    asts = [parse_formula(t, sig) for t in (args.phi or [])]
    fs = [models_of(a, sig) for a in asts]
    for step, ast in zip(iterate(rv, k, fs), asts):
        print(_trace_line(step, ast))
    return 0


_PARIS_THEORY = "rp & ro & (!c -> !ro)"


def _cmd_example(args) -> int:
    if args.name != "paris":
        raise _UsageError(f"unknown example {args.name!r}")
    text = (
        importlib.resources.files("rankedrev")
        .joinpath("fixtures/paris.rnk")
        .read_text(encoding="utf-8")
    )
    rank = parse_rank_file(text)
    sig = rank.sig
    rv = RankedRevision(rank)
    k = _parse_theory(_PARIS_THEORY, sig)
    runs = [
        (k, "!c"),          # severe: the defaults drop rain in both cities
        (k, "c"),           # mild: plain expansion
        (Theory.bottom(sig), "!c"),  # the bottom row gives the same severe result
    ]
    for start, phi_text in runs:
        ast = parse_formula(phi_text, sig)
        step = iterate(rv, start, [models_of(ast, sig)])[0]
        print(_trace_line(step, ast))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankedrev",
        description="Belief revision with ranked models and a postulate-checking harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, rank=True, atoms=True, js=True):
        if rank:
            p.add_argument("--rank", help="rank-function file")
        if atoms:
            p.add_argument("--atoms", help="atom names (p,q) or a count")
        if js:
            p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("revise", help="revise a theory by a formula")
    add_common(p)
    p.add_argument("--theory", required=True, help="formula or 'bot'")
    p.add_argument("--phi", required=True, help="input formula")
    p.set_defaults(func=_cmd_revise)

    p = sub.add_parser("check", help="run the postulate suite")
    add_common(p)
    p.add_argument("--postulates", required=True,
                   help="comma list of ids, ranges like K1..K9, or 'all'")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=500)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", help="list all normalized rank functions")
    p.add_argument("--atoms", required=True, help="atom names (p,q) or a count")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("witness", help="produce impossibility or under-determination witnesses")
    add_common(p)
    p.add_argument("--which", required=True,
                   help="U8_1 | C2 | U8_1_vs_K4K5 | C2_vs_K1K4 | dynamic")
    p.add_argument("--theory", help="anchor theory for --which dynamic")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("roundtrip", help="canonical DNF of a formula, or re-emit a rank file")
    add_common(p)
    p.add_argument("--phi", help="formula to canonicalize")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("trace", help="iterated revision trace")
    add_common(p, js=False)
    p.add_argument("--theory", required=True, help="starting theory (formula or 'bot')")
    p.add_argument("--phi", action="append", help="revision input; repeatable")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("example", help="run a shipped scenario")
    p.add_argument("name", help="scenario name (paris)")
    p.set_defaults(func=_cmd_example)

    return parser


def exit_code(run: Callable[[], int]) -> int:
    """run()'s exit code, once stdout is flushed; 2, with the message on
    stderr, on a RankedRevError or OSError; 141, with nothing on stderr,
    when the reader of stdout has closed it. The scripts exit through it."""
    try:
        code = run()
        sys.stdout.flush()  # so that a late close is caught here
        return code
    except BrokenPipeError:
        # nothing more can be written; send what is still buffered to
        # /dev/null so that the interpreter's final flush raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (RankedRevError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    return exit_code(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
