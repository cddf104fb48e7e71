"""Command-line interface.

Subcommands: ``cost-spread``, ``cost-concentrate``, ``run-spread``,
``run-concentrate``, ``compare``, ``ki``, ``verify-trace``.

Structured output is a single self-describing JSON document per run,
dumped with sorted keys and no whitespace so identical inputs and seed
produce byte-identical bytes; the human format is rendered from that
same document.  Exit codes: 0 success, 2 input/validation error or
an input too large for memory, 3 protocol synthesis failure or numerical breakdown, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .codes import code_to_document, load_code_named
from .config import MAX_PARTIES, RANK_RTOL
from .errors import InputError, NumericalDegeneracy, SchemaError, SynthesisFailed, TooLarge, VerificationFailed
from .koashi_imoto import ki_decompose, merge_cost_K
from .network import load_tree, tree_to_document
from .protocols import (
    CostComparison,
    _branch_walk,
    _roles_for,
    concentrating_cost,
    optimize_labeling,
    run_concentrating,
    run_spreading,
    spreading_cost,
    spreading_lower_bound_check,
)
from .tensors import PureState, Register
from .trace import (
    _size,
    concentrate_trace,
    load_trace,
    save_trace,
    spread_trace,
    verify_trace,
)
from .verification import (
    DEFAULT_CHANNEL_TOL,
    verify_concentrating_channel,
    verify_spreading_channel,
)

REPORT_FORMAT = "treecast.report/1"
ERROR_FORMAT = "treecast.error/1"
CHANNEL_SAMPLES = 20


# -- argument parsing -----------------------------------------------------------


class _Given(argparse.Action):
    """Store a flag's value and note in ``args.given`` that it was passed."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*getattr(namespace, "given", ()), self.option_strings[0])


def _add_common(p, *, needs_inputs=True, inputs_required=True, run=False, concentrating=False):
    """Shared flags; ``--tol-rank`` goes with the code and tree inputs, and
    ``--tol-verify`` with the commands that verify (run-*, verify-trace)."""
    if needs_inputs:
        p.add_argument("--code", required=inputs_required, help="builtin name or JSON file")
        p.add_argument("--tree", required=inputs_required, help="line:N, star:N, edge list, or JSON file")
        p.add_argument(
            "--labeling",
            choices=("given", "auto", "search"),
            default="auto",
            help="use the file's labeling, derive one, or search all of them",
        )
        p.add_argument("--tol-rank", type=float, default=RANK_RTOL, dest="tol_rank")
    if concentrating:
        p.add_argument("--mode", choices=("tight", "fallback"), default="tight")
        p.add_argument(
            "--branches",
            default="all",
            help="'all' for exhaustive outcome branches, or sample:N",
        )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="the seed for branch sampling and channel-check inputs; "
        "protocols depend only on the state",
    )
    if run or not needs_inputs:
        p.add_argument(
            "--tol-verify", type=float, default=DEFAULT_CHANNEL_TOL, dest="tol_verify"
        )
    p.add_argument("--format", choices=("human", "structured"), default="human")
    if run:
        p.add_argument("--trace-out", dest="trace_out", help="write the protocol trace here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecast",
        description=(
            "Entanglement costs and exact LOCC protocols for spreading and "
            "concentrating quantum information over tree networks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cost-spread", help="per-edge spreading costs")
    _add_common(p)

    p = sub.add_parser("cost-concentrate", help="per-edge concentrating costs")
    _add_common(p, concentrating=True)

    p = sub.add_parser("run-spread", help="execute and verify a spreading protocol")
    _add_common(p, run=True)

    p = sub.add_parser(
        "run-concentrate", help="execute and verify a concentrating protocol"
    )
    _add_common(p, run=True, concentrating=True)

    p = sub.add_parser("compare", help="spreading vs concentrating costs")
    _add_common(p, concentrating=True)

    p = sub.add_parser("ki", help="decompose a mid-protocol state")
    p.register("action", None, _Given)  # plain flags note that they were passed
    _add_common(p, inputs_required=False, concentrating=True)
    p.add_argument(
        "--prefix",
        default="",
        help="comma-separated outcomes already measured (default: none)",
    )
    p.add_argument(
        "--state",
        help="JSON state file {registers, amplitudes, roles} instead of --code/--tree",
    )

    p = sub.add_parser("verify-trace", help="replay a stored trace and check it")
    p.add_argument("trace", help="trace JSON file written by run-*")
    _add_common(p, needs_inputs=False)
    return parser


# -- shared plumbing --------------------------------------------------------------


# flags that only the --code/--tree path of ``ki`` reads
_STATE_UNREAD = frozenset(
    {"--code", "--tree", "--labeling", "--mode", "--branches", "--prefix", "--seed"}
)


def _check_flags(args) -> None:
    """Refuse, before any input is read, a --seed past 64 bits, a --tol-rank
    outside (0, 1), a --tol-verify that is not finite and positive (NaN fails
    both), a flag ``ki --state`` would not read, and a --branches policy that
    does not parse."""
    if not 0 <= args.seed < 2**64:
        raise InputError(f"seed must fit in 64 bits, got {args.seed}")
    if hasattr(args, "tol_rank") and not 0.0 < args.tol_rank < 1.0:
        raise InputError(f"--tol-rank must be a finite number in (0, 1), got {args.tol_rank}")
    if hasattr(args, "tol_verify") and not 0.0 < args.tol_verify < math.inf:
        raise InputError(
            f"--tol-verify must be a finite positive number, got {args.tol_verify}"
        )
    if getattr(args, "state", None):
        unread = sorted(_STATE_UNREAD.intersection(args.given))
        if unread:
            raise InputError(f"ki --state does not read {', '.join(unread)}; drop it")
    if hasattr(args, "branches"):
        _parse_branches(args.branches)


def _parse_prefix(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise InputError(f"--prefix must be comma-separated outcome indices, got {text!r}")


def _parse_branches(text: str) -> int | None:
    if text == "all":
        return None
    if text.startswith("sample:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad branch policy {text!r}")
        if n < 1:
            raise InputError("branch sample count must be at least 1")
        return n
    raise InputError(f"branch policy must be 'all' or 'sample:N', got {text!r}")


def _inputs(args):
    """Load code and tree; resolve the labeling policy.

    Returns (code, code_name, tree, labeling) where labeling is None
    when the policy is 'search' (resolved later, per command).
    """
    code, name = load_code_named(args.code)
    tree, doc_labeling = load_tree(args.tree)
    if args.labeling == "given":
        if doc_labeling is None:
            raise InputError(
                "--labeling given requires a 'labeling' field in the tree document"
            )
        labeling = tree.check_ascending(doc_labeling)
    elif args.labeling == "auto":
        labeling = (
            tree.check_ascending(doc_labeling)
            if doc_labeling is not None
            else tree.default_labeling()
        )
    else:
        labeling = None
    return code, name, tree, labeling


def _resolve_search(args, code, tree, labeling):
    """For --labeling search on concentrating tasks: pick the best order.

    Returns (labeling, the winner's cost report or None when no search
    ran, the search section of the report).  The section counts every
    ascending labeling as a candidate (the search walks merged sets, not
    labelings) and gives the winner's total.  Costs follow one branch per
    stage, so only run-concentrate reads --branches and --seed; ``main``
    checks both for every concentrating task, and each echoes them.
    """
    if labeling is not None:
        return labeling, None, None
    best, report = optimize_labeling(code, tree, mode=args.mode, rank_rtol=args.tol_rank)
    search_doc = {
        "candidates": tree.count_ascending_labelings(),
        "best_total_log2": _num(report.total_log2),
    }
    return best, report, search_doc


def _concentrating_report(args, code, tree, labeling):
    """(labeling, concentrating cost report, search section) for the cost tasks.

    Under --labeling search the report is the search's own for its winner;
    otherwise ``concentrating_cost`` on the labeling gives it.
    """
    labeling, report, search_doc = _resolve_search(args, code, tree, labeling)
    if report is None:
        report = concentrating_cost(
            code, tree, labeling, mode=args.mode, rank_rtol=args.tol_rank
        )
    return labeling, report, search_doc


def _num(x):
    """Render integral floats as JSON integers (costs are log2 of ints)."""
    f = float(x)
    return int(f) if f.is_integer() else f


def _config_doc(args) -> dict:
    """Every parsed flag by destination, but the subcommand and ``ki``'s given-flag note."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "given")}


def _base_doc(task: str, args, code=None, name=None, tree=None, labeling=None) -> dict:
    doc = {"format": REPORT_FORMAT, "task": task, "config": _config_doc(args)}
    if code is not None:
        doc["code"] = code_to_document(code, name=name)
        doc["code_name"] = name
    if tree is not None:
        doc["tree"] = tree_to_document(tree)
    if labeling is not None:
        doc["labeling"] = list(labeling)
    return doc


def _report_doc(report) -> dict:
    return {
        "direction": report.direction,
        "edges": [
            {"parent": e.parent, "child": e.child, "k": e.k, "log2": _num(e.log2)}
            for e in report.edges
        ],
        "total_log2": _num(report.total_log2),
    }


def _run_report(args, task, code, name, tree, labeling, result, check, tracer):
    """The report both run commands share, and its exit code.

    ``check`` replays ``result`` on CHANNEL_SAMPLES random inputs and
    ``tracer`` records it; the trace is replayed, then written to
    --trace-out when given.  Each command adds its own fields.
    """
    channel = check(code, tree, result, samples=CHANNEL_SAMPLES, seed=args.seed, tol=args.tol_verify)
    tolerances = {"rank_rtol": args.tol_rank, "verify_tol": args.tol_verify}
    trace_doc = tracer(code, tree, result, code_name=name, seed=args.seed, tolerances=tolerances)
    verdict = verify_trace(trace_doc, tol=args.tol_verify)
    if args.trace_out:
        save_trace(trace_doc, args.trace_out)
    passed = result.passed and channel.passed and verdict["passed"]
    doc = _base_doc(task, args, code, name, tree, labeling)
    doc["cost_report"] = _report_doc(result.cost_report)
    doc["verification"] = {
        "channel": dataclasses.asdict(channel) | {"passed": channel.passed},
        "max_deviation": channel.max_trace_distance,
        "passed": passed,
    }
    doc["trace"] = {
        "written_to": args.trace_out,
        "final_state_hash": trace_doc["final_state"]["hash"],
        "verify": verdict,
    }
    return doc, 0 if passed else 4


# -- command handlers --------------------------------------------------------------


def _cmd_cost_spread(args):
    code, name, tree, labeling = _inputs(args)
    if labeling is None:  # search: spreading costs do not depend on the order
        labeling = tree.default_labeling()
    report = spreading_cost(code, tree, args.tol_rank)
    bound = spreading_lower_bound_check(code, tree, report, rank_rtol=args.tol_rank)
    doc = _base_doc("cost-spread", args, code, name, tree, labeling)
    doc["cost_report"] = _report_doc(report)
    doc["lower_bound"] = {
        "feasible": bound["feasible"],
        "tight": bound["tight"],
        "verdict": bound["verdict"],
        "edges": {
            child: {
                "rank": e["rank"],
                "consumed": e["consumed"],
                "slack_log2": _num(e["slack_log2"]),
            }
            for child, e in bound["edges"].items()
        },
    }
    return doc, 0


def _cmd_cost_concentrate(args):
    code, name, tree, labeling = _inputs(args)
    labeling, report, search_doc = _concentrating_report(args, code, tree, labeling)
    doc = _base_doc("cost-concentrate", args, code, name, tree, labeling)
    doc["cost_report"] = _report_doc(report)
    doc["mode"] = args.mode
    if search_doc:
        doc["labeling_search"] = search_doc
    return doc, 0


def _cmd_run_spread(args):
    code, name, tree, labeling = _inputs(args)
    if labeling is None:
        labeling = tree.default_labeling()
    result = run_spreading(code, tree, labeling, rank_rtol=args.tol_rank)
    doc, exit_code = _run_report(
        args, "run-spread", code, name, tree, labeling, result,
        verify_spreading_channel, spread_trace,
    )
    v = doc["verification"]
    v["branch_fidelity"], v["branch_deviation"] = result.fidelity, result.branch_deviation
    v["max_deviation"] = max(result.branch_deviation, v["max_deviation"])
    return doc, exit_code


def _cmd_run_concentrate(args):
    code, name, tree, labeling = _inputs(args)
    labeling, _, search_doc = _resolve_search(args, code, tree, labeling)
    result = run_concentrating(
        code,
        tree,
        labeling,
        mode=args.mode,
        branch_budget=_parse_branches(args.branches),
        seed=args.seed,
        rank_rtol=args.tol_rank,
    )
    doc, exit_code = _run_report(
        args, "run-concentrate", code, name, tree, labeling, result,
        verify_concentrating_channel, concentrate_trace,
    )
    doc["mode"] = result.mode
    doc["branches"] = {
        "count": len(result.branches),
        "coverage": result.coverage,
        "explored_all": result.explored_all,
        "min_fidelity": result.min_fidelity,
        "fallback_edges": list(result.fallback_edges),
    }
    if search_doc:
        doc["labeling_search"] = search_doc
    return doc, exit_code


def _cmd_compare(args):
    code, name, tree, labeling = _inputs(args)
    labeling, report, search_doc = _concentrating_report(args, code, tree, labeling)
    comparison = CostComparison(
        spread=spreading_cost(code, tree, args.tol_rank), concentrate=report, labeling=labeling
    )
    sp = comparison.spread.by_child()
    doc = _base_doc("compare", args, code, name, tree, comparison.labeling)
    doc["spread"] = _report_doc(comparison.spread)
    doc["concentrate"] = _report_doc(comparison.concentrate)
    doc["edges"] = [
        {
            "parent": e.parent,
            "child": e.child,
            "spread_k": sp[e.child],
            "concentrate_k": e.k,
            "concentrate_leq_spread": e.k <= sp[e.child],
        }
        for e in comparison.concentrate.edges
    ]
    doc["concentrate_never_exceeds"] = comparison.concentrate_never_exceeds
    if search_doc:
        doc["labeling_search"] = search_doc
    return doc, 0


def _is_amplitude(x) -> bool:
    """A JSON number, or an [re, im] pair of them (never a bool or string)."""
    pair = x if isinstance(x, list) and len(x) == 2 else [x]
    return all(type(v) in (int, float) for v in pair)


def _load_state_file(path: str):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read state file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON in state file {path!r}: {exc}")
    if not isinstance(payload, dict):
        raise InputError("state file must hold a JSON object")
    missing = {"registers", "amplitudes", "roles"} - set(payload)
    if missing:
        raise InputError(f"state file is missing fields {sorted(missing)}")
    specs, amps = payload["registers"], payload["amplitudes"]
    if not isinstance(specs, list) or not all(
        isinstance(s, dict) and isinstance(s.get("id"), str) for s in specs
    ):
        raise SchemaError("state 'registers' must be a list of objects, each with a string 'id'")
    if len(specs) > MAX_PARTIES:
        raise TooLarge(f"state file has more than {MAX_PARTIES} registers")
    regs = tuple(
        Register(s["id"], _size(s.get("dim"), f"register {s['id']!r} dim"), s.get("owner", s["id"]))
        for s in specs
    )
    if not isinstance(amps, list) or not all(map(_is_amplitude, amps)):
        raise SchemaError("state 'amplitudes' must list numbers or [re, im] pairs of numbers")
    amps = np.array([complex(*x) if isinstance(x, list) else complex(x) for x in amps], dtype=complex)
    psi = PureState(regs, amps).normalized()
    roles = payload["roles"]
    try:
        triple = (tuple(roles["R"]), tuple(roles["A"]), tuple(roles["B"]))
    except (TypeError, KeyError):
        raise InputError("state 'roles' must map R, A, and B to register id lists")
    return psi, triple, roles["A"]


def _cmd_ki(args):
    if args.state:
        psi, triple, a_label = _load_state_file(args.state)
        doc = _base_doc("ki", args)
        doc["A"] = list(a_label)
    elif args.code is None or args.tree is None:
        raise InputError("ki needs either --state or both --code and --tree")
    else:
        code, name, tree, labeling = _inputs(args)
        labeling, _, _ = _resolve_search(args, code, tree, labeling)
        prefix = _parse_prefix(args.prefix)
        n = len(labeling)
        if len(prefix) > n - 2:
            raise InputError(
                f"prefix of length {len(prefix)} leaves no merge to analyze "
                f"({n} parties)"
            )
        _, branch = _branch_walk(
            code, tree, labeling, prefix, mode=args.mode, rank_rtol=args.tol_rank
        )
        psi = PureState(branch.regs, branch.amps[0])
        stage = n - len(prefix)
        vertex = labeling[stage - 1]
        triple = _roles_for(branch.regs, vertex)
        doc = _base_doc("ki", args, code, name, tree, labeling)
        doc["A"] = vertex
        doc["prefix"] = list(prefix)
        doc["stage"] = stage
    dec = ki_decompose(psi, triple, rank_rtol=args.tol_rank)
    doc["blocks"] = [
        {
            "j": blk.j,
            "p": blk.p,
            "dimL_A": blk.dimL_A,
            "dimR_A": blk.dimR_A,
            "dimL_B": blk.dimL_B,
            "dimR_B": blk.dimR_B,
            "lambda0": blk.lambda0,
        }
        for blk in dec.blocks
    ]
    k = merge_cost_K(dec)
    doc["K"] = k
    doc["log2_K"] = _num(np.log2(k))
    return doc, 0


def _cmd_verify_trace(args):
    trace_doc = load_trace(args.trace)
    verdict = verify_trace(trace_doc, tol=args.tol_verify)
    doc = _base_doc("verify-trace", args) | {"metadata": trace_doc["metadata"], "verdict": verdict}
    return doc, 0 if verdict["passed"] else 4


_HANDLERS = {
    "cost-spread": _cmd_cost_spread,
    "cost-concentrate": _cmd_cost_concentrate,
    "run-spread": _cmd_run_spread,
    "run-concentrate": _cmd_run_concentrate,
    "compare": _cmd_compare,
    "ki": _cmd_ki,
    "verify-trace": _cmd_verify_trace,
}


# -- human rendering ---------------------------------------------------------------


def _fmt_edges(report: dict) -> list[str]:
    lines = ["  edge            M_e    log2"]
    for e in report["edges"]:
        lines.append(
            f"  {e['parent']} -> {e['child']:<10} {e['k']:<6} {e['log2']}"
        )
    lines.append(f"  total log2: {report['total_log2']}")
    return lines


def render_human(doc: dict) -> str:
    task = doc.get("task", "?")
    lines = [f"task: {task}"]
    if "code_name" in doc and doc["code_name"]:
        lines.append(f"code: {doc['code_name']}")
    if "labeling" in doc:
        lines.append("labeling: " + " ".join(doc["labeling"]))
    if "mode" in doc:
        lines.append(f"mode: {doc['mode']}")
    if task in ("cost-spread", "cost-concentrate", "run-spread", "run-concentrate"):
        lines.append("cost report:")
        lines.extend(_fmt_edges(doc["cost_report"]))
    if "lower_bound" in doc:
        lines.append(f"lower bound: {doc['lower_bound']['verdict']}")
    if "branches" in doc:
        b = doc["branches"]
        lines.append(
            f"branches: {b['count']} explored, coverage {b['coverage']:.6f}, "
            f"min fidelity {b['min_fidelity']:.12f}"
        )
        if b["fallback_edges"]:
            lines.append("fallback edges: " + " ".join(b["fallback_edges"]))
    if "verification" in doc:
        v = doc["verification"]
        lines.append(f"max deviation: {v['max_deviation']:.3e}")
        ch = v["channel"]
        lines.append(
            f"channel check: {ch['samples']} random inputs, "
            f"max trace distance {ch['max_trace_distance']:.3e}"
        )
        lines.append(f"verdict: {'PASS' if v['passed'] else 'FAIL'}")
    if "trace" in doc:
        t = doc["trace"]
        if t["written_to"]:
            lines.append(f"trace written: {t['written_to']}")
        lines.append(f"final state hash: {t['final_state_hash']}")
    if task == "compare":
        lines.append("spreading:")
        lines.extend(_fmt_edges(doc["spread"]))
        lines.append("concentrating:")
        lines.extend(_fmt_edges(doc["concentrate"]))
        lines.append(
            "concentrating never exceeds spreading: "
            + str(doc["concentrate_never_exceeds"]).lower()
        )
    if task == "ki":
        if "A" in doc:
            a = doc["A"]
            lines.append(f"A side: {' '.join(a) if isinstance(a, list) else a}")
        if "stage" in doc:
            lines.append(f"stage: {doc['stage']} (prefix {doc.get('prefix')})")
        lines.append("  j   p           dimL_A dimR_A dimL_B dimR_B lambda0")
        for blk in doc["blocks"]:
            lines.append(
                f"  {blk['j']:<3} {blk['p']:<11.9f} {blk['dimL_A']:<6} "
                f"{blk['dimR_A']:<6} {blk['dimL_B']:<6} {blk['dimR_B']:<6} "
                f"{blk['lambda0']:.9f}"
            )
        lines.append(f"K = {doc['K']}  (log2 = {doc['log2_K']})")
    if task == "verify-trace":
        v = doc["verdict"]
        lines.append(f"events replayed: {v['events_replayed']}")
        lines.append(f"hash match: {v['hash_match']}")
        lines.append(f"cost consistent: {v['cost_consistent']}")
        lines.append(
            f"max probability deviation: {v['max_probability_deviation']:.3e}"
        )
        lines.append(f"verdict: {'PASS' if v['passed'] else 'FAIL'}")
    return "\n".join(lines)


# -- entry point --------------------------------------------------------------------


def _emit(doc: dict, args) -> None:
    if args.format == "structured":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False))
    else:
        print(render_human(doc))


def _fail(args, exc, exit_code: int) -> int:
    if args is not None and getattr(args, "format", "human") == "structured":
        payload = {
            "format": ERROR_FORMAT,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "exit_code": exit_code,
        }
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
    return exit_code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` uses per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_flags(args)
        doc, exit_code = _HANDLERS[args.command](args)
    except (InputError, MemoryError) as exc:
        return _fail(args, exc, 2)
    except (SynthesisFailed, NumericalDegeneracy, np.linalg.LinAlgError) as exc:
        return _fail(args, exc, 3)
    except VerificationFailed as exc:
        return _fail(args, exc, 4)
    _emit(doc, args)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
