"""Command-line front door for the workbench.

Subcommands
-----------
generate    build a digraph from a named family, write an edge list
partition   split a digraph into ordered robust-expander classes
embed       realize an oriented Hamilton cycle in a host digraph
verify      independently re-check expansion, cuts, partitions, embeddings
experiment  run configured trial suites and persist CSV results

Every command reads/writes the plain-text edge-list format (first line
``n m``, then one ``u v`` line per edge, ``#`` comments allowed) and JSON
for structured artifacts. All randomness flows from explicit seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .bitset import bit_list
from .decomposition import (EXACT_THRESHOLD, DecompositionParams, decompose,
                            fit_decomposition_params, partition_from_json_dict,
                            reverse_for_embedding, verify_partition)
from .digraph import Digraph
from .embedding import _oracle_step, embed_hamilton_orientation
from .errors import (HypothesisError, InputError, PreconditionError,
                     ResourceError)
from .expansion import certify_expander, find_sparse_cut
from .generators import GenSpec, family_names, family_param_names
from .io import load_json, read_edges, save_json, write_edges
from .oracle import validate_embedding
from .patterns import CyclePattern
from .workbench import OUTCOMES, ExperimentConfig, run as run_experiments


def _emit(obj: dict, out: str | None) -> None:
    if out:
        save_json(obj, out)
    else:
        json.dump(obj, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputError(f"sizes must be comma-separated integers, got {text!r}")
    if not sizes:
        raise InputError("sizes list is empty")
    return sizes


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(args: argparse.Namespace) -> int:
    provided = {
        "n": args.n,
        "sizes": _parse_sizes(args.sizes) if args.sizes else None,
        "intra": args.intra,
        "noise": args.noise,
        "delta": args.delta,
        "kind": args.kind,
    }
    needed = family_param_names(args.family)
    optional = {"intra", "noise", "kind"}
    params = {}
    for name in needed:
        if provided[name] is None:
            if name in optional:
                continue
            raise InputError(f"family {args.family!r} needs --{name}")
        params[name] = provided[name]
    extras = [k for k, v in provided.items() if v is not None and k not in needed]
    if extras:
        raise InputError(f"family {args.family!r} does not take "
                         f"{', '.join('--' + e for e in extras)}")
    spec = GenSpec(args.family, params, args.seed)
    g = spec.build()
    write_edges(g, args.out, header=spec.to_json_dict())
    print(f"wrote {args.out}: n={g.n} m={g.edge_count()} family={args.family}")
    return 0


# ---------------------------------------------------------------------------
# partition


def _decomposition_params(g: Digraph, args: argparse.Namespace) -> DecompositionParams:
    """Without --k, fitted parameters with any given zeta/alpha replaced;
    with --k, the explicit ones, defaulted as DecompositionParams does.
    The cut-search schedule follows from (k, zeta, alpha)."""
    given = {name: getattr(args, name) for name in ("zeta", "alpha")
             if getattr(args, name) is not None}
    if args.k is None:
        return replace(fit_decomposition_params(g, args.exact_cap), **given)
    return DecompositionParams(k=args.k, exact_threshold=args.exact_cap, **given)


def _cmd_partition(args: argparse.Namespace) -> int:
    g = read_edges(args.input)
    params = _decomposition_params(g, args)
    sp = decompose(g, params)
    report = sp.report
    _emit(sp.to_json_dict(g), args.out)
    sizes = "+".join(str(s) for s in sp.sizes())
    print(f"partitioned n={g.n} into t={sp.t} classes ({sizes}); "
          f"verified={'yes' if report.ok else 'NO'}"
          + (f"; flags={','.join(sp.flags)}" if sp.flags else ""),
          file=sys.stderr)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# embed


def _load_partition(path: str, g: Digraph):
    """The partition file at path; it must cover g's vertex count."""
    sp = partition_from_json_dict(load_json(path))
    if sp.n != g.n:
        raise InputError(f"partition covers n={sp.n}, host has n={g.n}")
    return sp


def _embedding_partition(g: Digraph, args: argparse.Namespace):
    """The --partition artifact, else a fresh decomposition, in the
    reversed class order the pipeline consumes (dense direction forward);
    stored artifacts keep the partition's own order."""
    if args.partition:
        sp = _load_partition(args.partition, g)
    else:
        sp = decompose(g, fit_decomposition_params(g))
    return reverse_for_embedding(sp)


def _cmd_embed(args: argparse.Namespace) -> int:
    g = read_edges(args.input)
    c = CyclePattern.from_string(args.pattern, n=g.n)
    if c.n != g.n:
        raise InputError(f"pattern spans {c.n} vertices, host has {g.n}")
    if args.mode == "oracle":
        # the validated exact search the pipeline falls back to
        res = _oracle_step(g, c, "", 1, {})
    else:
        res = embed_hamilton_orientation(g, _embedding_partition(g, args), c)
    out = {
        "status": res.status,
        "case": res.case,
        "method": res.method,
        "attempts": res.attempts,
        "audit": res.audit,
    }
    if res.failure_step:
        out["failure_step"] = res.failure_step
    if res.embedding is not None:
        out["mapping"] = res.embedding.to_json_dict()["mapping"]
        check = validate_embedding(g, c, res.embedding.mapping, spanning=True)
        out["checker"] = {"valid": check.valid, "errors": list(check.errors)}
    _emit(out, args.out)
    ok = out["status"] == "embedded" and out.get("checker", {}).get("valid", False)
    print(f"embed status={out['status']}"
          + (f" case={out['case']}" if out.get("case") else "")
          + f" method={out['method']}"
          + (f" checker={'valid' if ok else 'INVALID'}" if "checker" in out else "")
          + (f" failure_step={out['failure_step']}" if "failure_step" in out else ""),
          file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify


def _verify_expansion(g: Digraph, args: argparse.Namespace) -> tuple[dict, bool]:
    verdict = certify_expander(g, args.nu, args.tau)
    d = verdict.to_json_dict()
    d["params"]["alpha"] = None
    return d, verdict.outcome == "expander"


def _verify_cut(g: Digraph, args: argparse.Namespace) -> tuple[dict, bool]:
    res = find_sparse_cut(g, args.alpha)
    d = {
        "outcome": "cut" if res.found else "no-cut",
        "params": {"nu": None, "tau": None, "alpha": args.alpha},
        "counts": {"near_misses": len(res.near_misses),
                   "climb_moves": res.climb_moves,
                   "climb_steps": res.climb_steps},
        "mode": res.mode,
    }
    cert = res.certificate or res.best
    if cert is not None:
        d["cut"] = bit_list(cert.side1)
        d["counts"]["e_forward"] = cert.e_forward
        d["counts"]["alpha_achieved"] = cert.alpha_achieved
    return d, res.found


def _verify_partition_file(g: Digraph, args: argparse.Namespace) -> tuple[dict, bool]:
    report = verify_partition(g, _load_partition(args.partition, g))
    return report.to_json_dict(), report.ok


def _verify_embedding_file(g: Digraph, args: argparse.Namespace) -> tuple[dict, bool]:
    data = load_json(args.embedding)
    pairs = data.get("mapping") if isinstance(data, dict) else data
    if not isinstance(pairs, list):
        raise InputError(f"{args.embedding}: no 'mapping' list of "
                         f"[position, vertex] pairs")
    mapping: list[int | None] = [None] * len(pairs)
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2 \
                or not all(type(x) is int for x in pair):
            raise InputError(f"{args.embedding}: mapping entry {pair!r} is "
                             f"not a [position, vertex] pair")
        pos, v = pair
        if not 0 <= pos < len(pairs):
            raise InputError(f"{args.embedding}: position {pos} outside "
                             f"0..{len(pairs) - 1}")
        if mapping[pos] is not None:
            raise InputError(f"{args.embedding}: position {pos} listed twice")
        mapping[pos] = v
    c = CyclePattern.from_string(args.pattern, n=g.n)
    check = validate_embedding(g, c, mapping, spanning=True)
    return {"valid": check.valid, "errors": list(check.errors)}, check.valid


def _cmd_verify(args: argparse.Namespace) -> int:
    g = read_edges(args.input)
    chosen = [name for name, val in (("expansion", args.nu is not None or args.tau is not None),
                                     ("cut", args.alpha is not None),
                                     ("partition", args.partition is not None),
                                     ("embedding", args.embedding is not None)) if val]
    if len(chosen) != 1:
        raise InputError("pick exactly one check: --nu/--tau, --alpha, "
                         "--partition, or --embedding")
    kind = chosen[0]
    if kind == "expansion":
        if args.nu is None or args.tau is None:
            raise InputError("expansion check needs both --nu and --tau")
        result, ok = _verify_expansion(g, args)
    elif kind == "cut":
        result, ok = _verify_cut(g, args)
    elif kind == "partition":
        result, ok = _verify_partition_file(g, args)
    else:
        if args.pattern is None:
            raise InputError("--embedding needs --pattern to check against")
        result, ok = _verify_embedding_file(g, args)
    _emit(result, args.out)
    print(f"verify {kind}: {'pass' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# experiment


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.trial is not None and args.suite is None:
        raise InputError("--trial requires --suite")
    config = ExperimentConfig.from_json_dict(load_json(args.config))
    summary = run_experiments(config, args.out, config_path=args.config,
                              only_suite=args.suite, only_trial=args.trial)
    buckets = summary["suites"].values()
    total = sum(b["records"] for b in buckets)
    agg = {o: sum(b[o] for b in buckets) for o in OUTCOMES}
    print(f"experiment: {total} trials across {len(summary['suites'])} suites "
          f"(pass={agg['pass']} fail={agg['fail']} "
          f"inconclusive={agg['inconclusive']} timeout={agg['timeout']}); "
          f"results in {args.out}")
    return 1 if summary["failed"] else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hamorient",
        description="Workbench for decomposing dense digraphs into robust "
                    "expander classes and embedding arbitrary Hamilton-cycle "
                    "orientations, with independent brute-force verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a digraph from a named family")
    gen.add_argument("--family", required=True, choices=family_names())
    gen.add_argument("--n", type=int, help="vertex count (size-based families)")
    gen.add_argument("--sizes", help="comma-separated block sizes (layered families)")
    gen.add_argument("--intra", type=float, help="double-edge density inside blocks")
    gen.add_argument("--noise", type=float, help="forward cross-edge probability")
    gen.add_argument("--delta", type=int, help="minimum total degree target")
    gen.add_argument("--kind", choices=("random", "transitive"),
                     help="tournament kind")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="edge-list output path")
    gen.set_defaults(func=_cmd_generate)

    par = sub.add_parser("partition", help="split a digraph into expander classes")
    par.add_argument("--input", required=True, help="edge-list input path")
    par.add_argument("--k", type=int, help="target level count (omit to fit)")
    par.add_argument("--zeta", type=float, help="degree-slack parameter")
    par.add_argument("--alpha", type=float, help="top-level cut sparsity")
    par.add_argument("--exact-cap", type=int, default=EXACT_THRESHOLD,
                     help="largest class checked by exhaustive sweep")
    par.add_argument("--out", help="partition JSON output (default stdout)")
    par.set_defaults(func=_cmd_partition)

    emb = sub.add_parser("embed", help="realize an oriented Hamilton cycle")
    emb.add_argument("--input", required=True, help="edge-list input path")
    emb.add_argument("--pattern", required=True,
                     help="orientation string over +/- or an alias "
                          "(directed, antidirected)")
    emb.add_argument("--partition", help="partition JSON from the partition "
                                         "subcommand (omit to compute one)")
    emb.add_argument("--mode", choices=("pipeline", "oracle"), default="pipeline")
    emb.add_argument("--out", help="embedding JSON output (default stdout)")
    emb.set_defaults(func=_cmd_embed)

    ver = sub.add_parser("verify", help="independently re-check an artifact")
    ver.add_argument("--input", required=True, help="edge-list input path")
    ver.add_argument("--nu", type=float, help="expansion parameter")
    ver.add_argument("--tau", type=float, help="set-size fraction bounds")
    ver.add_argument("--alpha", type=float, help="hunt a cut at this sparsity")
    ver.add_argument("--partition", help="partition JSON to re-verify")
    ver.add_argument("--embedding", help="embedding JSON to re-check")
    ver.add_argument("--pattern", help="pattern the embedding should realize")
    ver.add_argument("--out", help="report JSON output (default stdout)")
    ver.set_defaults(func=_cmd_verify)

    exp = sub.add_parser("experiment", help="run configured trial suites")
    exp.add_argument("--config", required=True, help="suite config JSON")
    exp.add_argument("--out", required=True, help="results directory")
    exp.add_argument("--suite", help="run only this suite")
    exp.add_argument("--trial", type=int, help="run only this trial index "
                                               "(requires --suite)")
    exp.set_defaults(func=_cmd_experiment)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, PreconditionError, ResourceError, HypothesisError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
