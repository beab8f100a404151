"""Command-line entry point.

Subcommands: sample, adv, hidden, xi, dual-check, bounds-audit, reduce,
otter, verify.  Outputs are deterministic given (arguments, seed): JSON
carries a schema_version field, CSV uses stable documented columns with a
'.' decimal separator, and probabilities are accepted as exact fractions
"a/b" in --exact mode.

numpy is loaded only by the commands that sample (sample, reduce), by the
B1 and A4 suites of bounds-audit, and by the --method rayleigh route of
adv: the modules behind them are imported inside those commands, so the
exact commands and float --method gram-schmidt start without it.  In the
same way the dual certificate (certificate) is imported only by xi,
dual-check and verify, so adv and hidden start without compiling it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from . import advantage as adv
from . import basis as bs
from . import graph_core as gc
from . import measures as ms
from .exactnum import Rad
from .params import ModelParams

SCHEMA_VERSION = 1


def _parse_number(text: str, exact: bool):
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"{text!r} has a zero denominator")
        return Fraction(int(num), int(den))
    if exact:
        return Fraction(text)
    return float(text)


def _jsonable(x):
    if isinstance(x, Rad):
        return {"value": float(x), "exact_repr": repr(x)}
    if isinstance(x, Fraction):
        return {"numerator": x.numerator, "denominator": x.denominator, "value": float(x)}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, float) and not math.isfinite(x):
        return None  # strict JSON has no NaN or Infinity
    return x


@contextlib.contextmanager
def _os_error_as(message: str):
    """Turn an OSError inside into a ValueError: message, then its reason."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"{message}: {exc.strerror}") from None


def _emit(payload: dict, out: str | Path | None):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    if out:
        with _os_error_as(f"--out {str(out)!r} cannot be written"):
            Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _json_object(path: str, option: str, required=(), allowed=None) -> dict:
    """The JSON object in the file at path; a file that cannot be read, or
    holds anything else, or lacks a required key or carries a key outside
    allowed, is a ValueError."""
    with _os_error_as(f"{option} file {path!r} cannot be read"):
        text = Path(path).read_text(encoding="utf-8")
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError(f"{option} file must hold a JSON object, not {type(raw).__name__}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValueError(f"{option} file lacks {', '.join(missing)}")
    unknown = sorted(set(raw) - set(allowed)) if allowed is not None else []
    if unknown:
        raise ValueError(f"{option} file has unknown key(s) {', '.join(unknown)}")
    return raw


def _json_number(value, where: str, integer: bool = False):
    """A JSON number, or a string read exactly as a rational; else a ValueError
    naming where.  With integer, an int: a fractional part (nan for inf and
    nan) is a ValueError too."""
    if isinstance(value, str):
        number = _parse_number(value, exact=True)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        number = value
    else:
        raise ValueError(f"{where} {json.dumps(value)} is not a number or a rational string")
    if integer and number % 1:
        raise ValueError(f"{where} {json.dumps(value)} is not an integer")
    return int(number) if integer else number


def _params_from_args(args, exact: bool) -> ModelParams:
    kw = dict(n=args.n, k=args.k, D=args.D, N=args.N)  # argparse reads the counts as ints
    for name in ("p", "q", "s", "rho", "eps", "delta", "lam"):
        val = getattr(args, name, None)
        if val is not None:
            kw[name] = _parse_number(val, exact)
    return ModelParams(**kw)


def _check_choice(args, option: str, value, choices):
    """Refuse a value outside choices as argparse would: usage, message, exit 2."""
    if value not in choices:
        args.usage_error(f"argument {option}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p")
    p.add_argument("--q")
    p.add_argument("--s")
    p.add_argument("--rho")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--k", type=int)
    p.add_argument("--eps")
    p.add_argument("--delta")
    p.add_argument("--D", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--exact", action="store_true", help="parse probabilities as exact fractions")


# -- subcommands ------------------------------------------------------------------


def cmd_sample(args) -> int:
    from . import models as md

    if args.trials < 1:
        raise ValueError("need at least one trial")
    params = _params_from_args(args, args.exact)
    out_dir = Path(args.out or ".")

    def one(trial: int):
        seed = args.seed + trial
        if args.model == "er":
            return {"graph": md.draw_er(md.derived_rng(seed), params.n, params.q)}, {}
        if args.model == "sbm":
            sigma, g = md.sample_sbm(params, seed)
            return {"graph": g}, {"sigma_star": list(sigma)}
        if args.model == "corr-er":
            s = md.sample_correlated_er(params, seed)
        elif args.model == "corr-sbm":
            s = md.sample_correlated_sbm(params, seed)
        elif args.model == "mod-sbm":
            s = md.sample_modified_sbm(params, seed)
        else:
            raise ValueError(f"unknown model {args.model}")
        graphs = {"G": s.parent, "A": s.left, "B": s.right}
        if s.parent_pruned is not None:
            graphs["Gprime"] = s.parent_pruned
        side = {"pi_star": list(s.pi_star)}
        if s.sigma_star is not None:
            side["sigma_star"] = list(s.sigma_star)
        return graphs, side

    for trial in range(args.trials):
        graphs, side = one(trial)
        with _os_error_as(f"--out {str(out_dir)!r} cannot be written"):
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, g in graphs.items():
                (out_dir / f"trial{trial:04d}_{name}.edges").write_text(gc.write_edge_list(g), encoding="utf-8")
        _emit({"model": args.model, "seed": args.seed + trial, "trial": trial, **side},
              out_dir / f"trial{trial:04d}_meta.json")
    print(f"wrote {args.trials} trial(s) to {out_dir}")
    return 0


def _build_alt_measure(model: str, params: ModelParams):
    if model == "corr-er":
        return ms.correlated_er_joint_measure(params.n, params.p, params.s)
    if model == "corr-sbm":
        return ms.correlated_sbm_joint_measure(params.n, params.k, params.lam, params.eps, params.s)
    raise ValueError(f"advantage needs an enumerable pair model, not {model!r}")


def cmd_adv(args) -> int:
    if args.exact and args.method == "rayleigh":
        args.usage_error("--method rayleigh is a float route; it cannot be --exact")
    params = _params_from_args(args, args.exact)
    D = args.D if args.D is not None else 2
    if args.condition:
        match = re.fullmatch(r"pi\((\d+)\)=(\d+)", args.condition.replace(" ", ""))
        if not match:
            args.usage_error("--condition must look like 'pi(1)=1'")
        i, j = int(match[1]), int(match[2])
        if not (1 <= i <= params.n and 1 <= j <= params.n):
            raise ValueError(f"--condition pi({i})={j} needs 1 <= i, j <= n = {params.n}")
        pair = adv.condition_on_match(_build_alt_measure(args.model, params), i - 1, j - 1)
    else:
        pair = _build_alt_measure(args.model, params).map(lambda x: (x[1], x[2]))
    if args.method == "product-basis":
        rep = adv.advantage_product_basis(pair, params, D, kind="pair")
    else:
        qm = ms.er_pair_measure(params.n, bs.pair_edge_prob(params))
        if args.method == "gram-schmidt":
            rep = adv.advantage_gram_schmidt(pair, qm, D=D)
        else:
            rep = adv.advantage_rayleigh(pair, qm, D=D)
    _emit({
        "command": "adv", "model": args.model, "degree": rep.degree,
        "method": rep.method, "value": rep.value, "value_squared": rep.value_squared,
        "per_class_contributions": rep.per_index, "condition": args.condition,
    }, args.out)
    return 0


def _json_outcome(value):
    """A JSON outcome as a hashable value: arrays become tuples, recursively."""
    outcome = tuple(map(_json_outcome, value)) if isinstance(value, list) else value
    try:
        hash(outcome)
    except TypeError:
        raise ValueError(f"outcome {value!r} is not hashable") from None
    return outcome


def cmd_hidden(args) -> int:
    payload = _json_object(args.base_spec, "--base-spec", required=("outcomes", "null", "alt"))
    for key in ("outcomes", "null", "alt"):
        if not isinstance(payload[key], list):
            raise ValueError(f"--base-spec {key} {json.dumps(payload[key])} is not a JSON array")
    outcomes = [_json_outcome(o) for o in payload["outcomes"]]
    weights = {f: [_json_number(w, f"--base-spec {f} weight") for w in payload[f]] for f in ("null", "alt")}
    base_null, base_alt = (ms.DiscreteMeasure(outcomes, weights[f]) for f in ("null", "alt"))
    problem = adv.build_hidden_sample(base_null, base_alt, args.M)
    base = adv.advantage_gram_schmidt(base_alt, base_null, D=1)
    rep = adv.hidden_sample_law(base, problem.M, args.D)
    _emit({
        "command": "hidden", "M": args.M, "degree": args.D,
        "base_value_squared": base.value_squared,
        "composite_value_squared": rep.value_squared,
        "identity_residual": float((rep.value_squared - 1) * args.M - (base.value_squared - 1)),
    }, args.out)
    return 0


def cmd_xi(args) -> int:
    from . import certificate as ct

    params = _params_from_args(args, args.exact)
    kernel = ct.EXACT_KERNEL if args.kernel == "exact" else ct.FIRST_ORDER_KERNEL
    dual = ct.build_dual(params, args.D, kernel=kernel)
    table = {
        key: {"value": float(val), "n_vertices": nv, "n_edges": ne, "labeled_copies": count}
        for key, (val, nv, ne, count) in sorted(dual.entries.items())
    }
    _emit({
        "command": "xi", "degree": args.D, "kernel": kernel,
        "table": table, "norm": dual.norm, "norm_squared": dual.norm_squared,
    }, args.out)
    return 0


def cmd_dual_check(args) -> int:
    from . import certificate as ct

    params = _params_from_args(args, args.exact)
    residual, rows = ct.verify_linear_system(params, args.D)
    payload = {
        "command": "dual-check", "degree": args.D, "rows": rows,
        "max_residual": float(residual),
        "residual_exactly_zero": isinstance(residual, Fraction) and residual == 0,
    }
    envelope = ct.REVERSED_ADVANTAGE_ENVELOPE
    in_envelope = params.n <= envelope["n"] and args.D <= envelope["D"]
    if in_envelope and bs._exact_inputs(params.lam, params.eps):
        exact, dual_norm = ct.duality_gap(params, args.D)  # raises unless the sandwich holds
        payload.update(reversed_advantage=exact, dual_norm=dual_norm, duality_holds=True)
    _emit(payload, args.out)
    return 0


def cmd_bounds_audit(args) -> int:
    from . import bounds as bd

    _check_choice(args, "--suite", args.suite, bd.SUITES)
    params = None
    if args.params:
        raw = _json_object(args.params, "--params", required=("n",),
                           allowed=[f.name for f in dataclasses.fields(ModelParams)])
        raw = {k: _json_number(v, f"--params {k}", k in ("n", "k", "D", "N")) for k, v in raw.items()}
        params = ModelParams(**raw)
    slack = bd.DESK_SLACK if args.slack is None else args.slack
    if not (math.isfinite(slack) and slack > 0):
        raise ValueError(f"--slack must be a positive finite number, not {slack}")
    audits = bd.run_suite(args.suite, params, slack=slack)
    rows = [a.row() for a in audits]
    if args.out:
        with (_os_error_as(f"--out {args.out!r} cannot be written"),
              open(args.out, "w", newline="", encoding="utf-8") as fh):
            csv.writer(fh).writerows([["instance", "lhs", "rhs", "slack", "holds", "regime"], *rows])
        print(f"wrote {len(rows)} audits to {args.out}")
    else:
        for row in rows:
            print(",".join(str(x) for x in row))
    failures = [a for a in audits if not a.holds]
    print(f"suite {args.suite}: {len(audits)} audits, {len(failures)} failures")
    return 0 if not failures else 3


def cmd_reduce(args) -> int:
    from . import models as md
    from . import reduction as rd

    _check_choice(args, "--estimator", args.estimator, rd.ESTIMATORS)
    if math.isnan(args.threshold):
        raise ValueError("--threshold must be a number, not nan")
    params = _params_from_args(args, args.exact)
    estimator = rd.ESTIMATORS[args.estimator](args.seed)
    fam = rd.truncate_family(rd.estimator_to_indicators(estimator, params.n))
    lam_mix = _parse_number(args.lambda_mix, args.exact) if args.lambda_mix else Fraction(1, 2)

    overlaps = []
    g_alt = []
    for t in range(args.trials):
        samp = md.sample_correlated_er(params, 2 * args.seed, t)  # one_sided_test's planted draw t
        pi_hat = estimator(samp.left, samp.right)
        overlaps.append(float(rd.overlap(pi_hat, samp.pi_star)))
        # the same estimate gives the rows: one-hot rows of a full matching pass the truncation
        rows = [rd.mix_statistic([int(x) for x in row], lam_mix)
                for row in rd.indicator_rows(pi_hat, params.n)]
        g_alt.append(rd.aggregate_statistic(
            float(rows[i][samp.pi_star[i]]) for i in range(params.n)))
    p_sampler, q_sampler = rd.correlated_er_samplers(params)
    report = rd.one_sided_test(lambda a, b: float(fam.evaluate(a, b).trace()), args.threshold,
                               p_sampler, q_sampler, args.trials, args.seed)
    _emit({
        "command": "reduce", "estimator": args.estimator, "trials": args.trials,
        "overlap_mean": sum(overlaps) / len(overlaps), "overlaps": overlaps,
        "planted_statistic_mean": sum(g_alt) / len(g_alt),
        "statistic_under_alternative": report.p_statistics,
        "statistic_under_null": report.q_statistics,
        "q_accept_rate": report.q_accept_rate, "p_reject_rate": report.p_reject_rate,
        "classification": report.classify(),
    }, args.out)
    return 0


def cmd_otter(args) -> int:
    counts = gc.rooted_tree_counts(args.max_n)
    est = gc.otter_constant_estimate(args.max_n)
    _emit({
        "command": "otter", "max_n": args.max_n, "counts": counts,
        "estimate": est.value, "converged": est.converged, "raw_ratio": est.raw_ratio,
    }, args.out)
    return 0


def cmd_verify(args) -> int:
    """Run a quick suite of the package's exact invariants."""
    from . import certificate as ct

    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool):
        checks.append((name, bool(ok)))
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")

    F = Fraction
    pr3 = ModelParams(n=3, lam=F(1), k=2, eps=F(2, 5))
    q0 = bs.null_edge_prob(pr3)
    m3 = ms.er_graph_measure(3, q0)
    basis = bs.single_indices(3, 3)
    rows = [(w, [bs.evaluate_basis(a, x, pr3) for a in basis]) for x, w in m3]  # once per atom
    ok = all(sum((w * v[i] * v[j] for w, v in rows), Rad()) == Rad.of(int(i == j))
             for i in range(len(basis)) for j in range(len(basis)))
    check("single-basis orthonormality (n=3, exact)", ok)

    tri = gc.graph(6, [(0, 1), (1, 2), (0, 2)])
    pr6 = ModelParams(n=6, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100))
    a, b = bs.h_decomposition(2, pr6.eps, pr6.lam, pr6.n)
    t = ct.transfer_weight(pr6, ct.FIRST_ORDER_KERNEL)
    closed = -(2 - 1) * t ** 3 / (a ** 3 + b ** 3)
    check("recursion closed form on the 3-cycle", ct.xi(tri, pr6) == closed)

    pr4 = ModelParams(n=4, lam=F(1), k=2, eps=F(3, 10), delta=F(1, 100))
    residual, rows = ct.verify_linear_system(pr4, 3)
    check(f"linear system rows exactly zero (n=4, {rows} rows)",
          isinstance(residual, Fraction) and residual == 0)

    deco_ok = True
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(3, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        s = gc.graph(n, edges)
        h_edges = rng.sample(edges, rng.randint(0, len(edges))) if edges else []
        h = gc.graph(n, h_edges)
        d = gc.decompose_difference(s, h, "A2")
        if d.reassembled_edges() != sorted(s.edges - h.edges):
            deco_ok = False
        if d.t != len(gc.leaves(s) - h.vertices) + gc.excess(s) - gc.excess(h):
            deco_ok = False
    check("difference decomposition count identity (50 random)", deco_ok)

    counts = gc.rooted_tree_counts(9)
    check("rooted tree counts", counts == [1, 1, 2, 4, 9, 20, 48, 115, 286])

    failures = [name for name, ok in checks if not ok]
    print(f"{len(checks) - len(failures)}/{len(checks)} invariant checks passed")
    return 0 if not failures else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lowdeg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lowdeg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw model samples to edge-list files")
    _add_model_args(p)
    p.add_argument("--model", required=True, choices=["er", "sbm", "corr-er", "corr-sbm", "mod-sbm"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("adv", help="low-degree advantage on an enumerable instance")
    _add_model_args(p)
    p.add_argument("--model", required=True, choices=["corr-er", "corr-sbm"])
    p.add_argument("--condition", help="e.g. 'pi(1)=1' (1-based)")
    p.add_argument("--method", default="product-basis",
                   choices=["product-basis", "gram-schmidt", "rayleigh"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_adv, usage_error=p.error)

    p = sub.add_parser("hidden", help="hidden-informative-sample advantage")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--D", type=int, default=1)
    p.add_argument("--base-spec", required=True, help="JSON {outcomes, null, alt}")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_hidden)

    p = sub.add_parser("xi", help="dual recursion table and norm")
    _add_model_args(p)
    p.add_argument("--kernel", default="first-order", choices=["first-order", "exact"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_xi)

    p = sub.add_parser("dual-check", help="linear-system residuals and duality gap")
    _add_model_args(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dual_check)

    p = sub.add_parser("bounds-audit", help="run a bound audit suite to CSV")
    p.add_argument("--suite", required=True, help="a name in lowdeg.bounds.SUITES")
    p.add_argument("--params", help="JSON file of model parameters")
    p.add_argument("--slack", type=float, help="default lowdeg.bounds.DESK_SLACK")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bounds_audit, usage_error=p.error)

    p = sub.add_parser("reduce", help="estimator-to-detection reduction harness")
    _add_model_args(p)
    p.add_argument("--model", default="corr-er", choices=["corr-er"])
    p.add_argument("--estimator", default="identity", help="a name in lowdeg.reduction.ESTIMATORS")
    p.add_argument("--lambda-mix", dest="lambda_mix")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_reduce, usage_error=p.error)

    p = sub.add_parser("otter", help="rooted-tree counts and growth constant")
    p.add_argument("--max-n", dest="max_n", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_otter)

    p = sub.add_parser("verify", help="run the quick invariant suite")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        payload = {"error": str(exc), "schema_version": SCHEMA_VERSION}
        if isinstance(exc, gc.EnumerationBudgetError):
            payload.update(where=exc.where, requested=exc.requested, budget=exc.budget)
        print(json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
