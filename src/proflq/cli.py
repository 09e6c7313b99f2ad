"""Command-line front end.

Every subcommand reads JSON inputs, runs one battery from the library
and prints a single canonical-JSON report to stdout; timings go to
stderr so identical inputs give byte-identical stdout.  Exit codes:

* 0 — all verdicts positive,
* 1 — a verified negative mathematical finding (e.g. fullness fails),
* 2 — usage or budget errors (`errors.BudgetError`),
* 3 — internal invariant violation (`errors.InvariantError`, e.g. an
  lq_check mismatch; its dump, if any, goes to stderr).  Invariants are
  checked with `errors.require`, not `assert`, so this holds under
  `python -O` too.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import acceptance, groupcoh as gc, jsonio, lq, repv, sep, tower
from .errors import BudgetError, InvariantError
from .finring import (cokernel, dual_map, image, is_prime, kernel,
                      pontryagin_dual)
from .etale import coproduct_finite, is_product, product_finite, sections
from .repv import ElementaryAbelian

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _prime(value: str) -> int:
    p = int(value)
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def _positive(value: str) -> int:
    n = int(value)
    if n <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return n


def _inputs(args, names) -> dict:
    return {name: {"path": getattr(args, name),
                   "sha256": jsonio.digest(getattr(args, name))}
            for name in names if getattr(args, name, None)}


def _emit(command: str, config: dict, inputs: dict,
          results, verdicts: dict) -> int:
    report = {"command": command, "config": config, "inputs": inputs,
              "results": results, "verdicts": verdicts}
    sys.stdout.write(jsonio.dumps(report) + "\n")
    return EXIT_OK if all(verdicts.values()) else EXIT_FINDING


# -- subcommands ---------------------------------------------------------------


def _cmd_module(args) -> int:
    m = jsonio.load_module(jsonio.load_json(args.module))
    results = {
        "factors": m.factors,
        "order": m.order,
        "dual_factors": pontryagin_dual(m).factors,
    }
    verdicts = {"self_dual": pontryagin_dual(m).factors == m.factors}
    if args.map:
        f = jsonio.load_map(jsonio.load_json(args.map))
        k, inc = kernel(f)
        q, proj = cokernel(f)
        results["map"] = {
            "kernel_factors": k.factors,
            "image_factors": image(f).factors,
            "cokernel_factors": q.factors,
        }
        verdicts["double_dual_identity"] = \
            dual_map(dual_map(f)).matrix == f.matrix
        verdicts["dual_reverses_kernel"] = dual_map(inc).is_surjective()
        verdicts["dual_reverses_cokernel"] = dual_map(proj).is_injective()
    return _emit("module", {}, _inputs(args, ("module", "map")),
                 results, verdicts)


def _cmd_etale(args) -> int:
    space = jsonio.load_space(jsonio.load_json(args.space))
    subset = args.subset if args.subset is not None else list(space.base)
    sec = sections(space, subset)
    prod = product_finite(space)
    coprod = coproduct_finite(space)
    results = {
        "base": list(space.base),
        "fiber_factors": {t: space.fiber(t).factors for t in space.base},
        "sections_factors": sec.module.factors,
        "subset": subset,
        "product_factors": prod.module.factors,
        "coproduct_factors": coprod.module.factors,
    }
    verdicts = {"product_equals_sections": is_product(space, prod)}
    return _emit("etale", {}, _inputs(args, ("space",)), results, verdicts)


def _truncate(t: tower.SpaceTower, depth) -> tower.SpaceTower:
    if depth is None or depth >= t.depth:
        return t
    return tower.SpaceTower(t.levels[:depth + 1], t.transitions[:depth])


def _cmd_tower(args) -> int:
    config = {"action": args.action, "depth": args.depth,
              "budget_bits": args.budget_bits}
    if args.action == "freedec":
        if not args.towermap or not args.module:
            raise UsageError("freedec needs --towermap and --module")
        pi = jsonio.load_tower_map(jsonio.load_json(args.towermap))
        a = jsonio.load_module(jsonio.load_json(args.module))
        report = tower.decomposition_check(a, pi, args.budget_bits)
        return _emit("tower", config, _inputs(args, ("towermap", "module")),
                     {"levels": report["levels"]}, {"ok": report["ok"]})

    if not args.tower or not args.module:
        raise UsageError(f"{args.action} needs --tower and --module")
    t = _truncate(jsonio.load_space_tower(jsonio.load_json(args.tower)),
                  args.depth)
    a = jsonio.load_module(jsonio.load_json(args.module))
    inputs = _inputs(args, ("tower", "module"))
    if args.action in ("product", "coproduct"):
        build = tower.free_product if args.action == "product" else tower.free_sum
        x = build(a, t, args.budget_bits)
        comp = tower.canonical_components(x, t.threads())
        results = {"level_factors": [m.factors for m in x.levels],
                   "components": comp["levels"]}
        return _emit("tower", config, inputs, results, {"ok": comp["ok"]})
    # dual: (A^T)^dual against A^dual[[T]], levelwise
    x = tower.dual_tower(tower.free_product(a, t, args.budget_bits))
    y = tower.free_sum(pontryagin_dual(a), t, args.budget_bits)
    results = {"level_factors": [m.factors for m in x.levels]}
    verdicts = {"dual_swaps_product_and_sum":
                tower.levelwise_isomorphic(x, y)}
    return _emit("tower", config, inputs, results, verdicts)


def _cmd_cohomology(args) -> int:
    config = {"p": args.p, "kmax": args.kmax, "budget_dim": args.budget_dim}
    if args.tower:
        gt = jsonio.load_group_tower(jsonio.load_json(args.tower))
        report = gc.continuous_cohomology(gt, args.p, args.kmax,
                                          args.budget_dim)
        return _emit("cohomology", config, _inputs(args, ("tower",)),
                     report, {"computed": True})
    if not args.group:
        raise UsageError("cohomology needs --group or --tower")
    g = jsonio.load_group(jsonio.load_json(args.group))
    dims = gc.cohomology(g, gc.trivial_module(g, args.p), args.kmax,
                         args.budget_dim)
    results = {"group_order": g.order, "dims": dims}
    if args.subgroup is not None:
        results["shapiro"] = gc.shapiro_check(g, args.subgroup, args.p,
                                              args.kmax, args.budget_dim)
        return _emit("cohomology", config, _inputs(args, ("group",)),
                     results, {"shapiro_equal": results["shapiro"]["equal"]})
    return _emit("cohomology", config, _inputs(args, ("group",)),
                 results, {"computed": True})


def _cmd_rep(args) -> int:
    v = ElementaryAbelian(args.p, args.rank)
    config = {"p": args.p, "rank": args.rank, "budget_hom": args.budget_hom}
    if args.tower:
        gt = jsonio.load_group_tower(jsonio.load_json(args.tower))
        report = repv.rep_tower(v, gt, args.budget_hom)
        results = {
            "levels": report["levels"],
            "class_maps": report["class_maps"],
            "threads": report["threads"],
            "persistent_threads": report["persistent_threads"],
        }
        return _emit("rep", config, _inputs(args, ("tower",)),
                     results, {"computed": True})
    if not args.group:
        raise UsageError("rep needs --group or --tower")
    g = jsonio.load_group(jsonio.load_json(args.group))
    classes, _ = repv.rep_classes(v, g, args.budget_hom)
    results = {
        "group_order": g.order,
        "classes": classes,
        "strata": repv.rank_strata(classes),
    }
    return _emit("rep", config, _inputs(args, ("group",)),
                 results, {"computed": True})


def _cmd_lq(args) -> int:
    v = ElementaryAbelian(args.p, args.rank)
    config = {"p": args.p, "rank": args.rank, "kmax": args.kmax,
              "budget_dim": args.budget_dim}
    if args.tower:
        gt = jsonio.load_group_tower(jsonio.load_json(args.tower))
        report = lq.profinite_lq(v, gt, args.kmax, args.budget_dim)
        results = {
            "levels": report["levels"],
            "fibers": report["fibers"],
            "persistent_threads": report["persistent_threads"],
            "nontrivial_limit_classes": report["nontrivial_limit_classes"],
        }
        verdicts = {"levelwise": all(all(r["verdict"])
                                     for r in report["levels"])}
        return _emit("lq", config, _inputs(args, ("tower",)),
                     results, verdicts)
    if not args.group:
        raise UsageError("lq needs --group or --tower")
    g = jsonio.load_group(jsonio.load_json(args.group))
    report = lq.lq_check(v, g, args.kmax, args.budget_dim)
    results = dict(report)
    if args.dump_orbits:
        results["strata"] = lq.strata_split(v, g, args.kmax, args.budget_dim)
    verdicts = {"degreewise_equal": all(report["verdict"])}
    return _emit("lq", config, _inputs(args, ("group",)), results, verdicts)


def _cmd_sep(args) -> int:
    v = ElementaryAbelian(args.p, args.rank)
    config = {"p": args.p, "rank": args.rank}
    f = jsonio.load_group_hom(jsonio.load_json(args.hom))
    fv = sep.fv_map(v, f, args.budget_hom)
    classes, _ = repv.rep_classes(v, f.source, args.budget_hom)
    fullness = [sep.fullness_check(v, f, i, args.budget_hom)
                for i in range(len(classes))]
    sp = sep.sp_functor_check(f, args.p)
    results = {"fv": fv, "fullness": fullness, "sp_functor": sp}
    verdicts = {
        "fv_injective": fv["injective"],
        "fullness": all(rep["surjective"] for rep in fullness
                        if not rep["skipped"]),
        "sp_equivalence": sp["equivalence"],
    }
    return _emit("sep", config, _inputs(args, ("hom",)), results, verdicts)


def _cmd_sep_distinguish(args) -> int:
    gt = jsonio.load_group_tower(jsonio.load_json(args.tower))
    x = jsonio.load_thread(jsonio.load_json(args.x))
    y = jsonio.load_thread(jsonio.load_json(args.y))
    report = sep.conjugacy_distinguished(x, y, gt)
    return _emit("sep distinguish", {}, _inputs(args, ("tower", "x", "y")),
                 report, {"separated": report["separated"]})


def _cmd_selftest(args) -> int:
    criteria = acceptance.ALL_CRITERIA
    if args.criterion is not None:
        if not 1 <= args.criterion <= len(criteria):
            raise UsageError(f"criterion must be 1..{len(criteria)}")
        criteria = [criteria[args.criterion - 1]]
    results = []
    for fn in criteria:
        report = fn()
        elapsed = report.pop("elapsed")
        print(f"{report['name']}: {elapsed:.3f}s", file=sys.stderr)
        results.append(report)
    verdicts = {r["name"]: r["passed"] for r in results}
    return _emit("selftest", {"criterion": args.criterion}, {},
                 results, verdicts)


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proflq",
        description="Exact checks for products, duality, cohomology and "
                    "the Lannes-Quillen decomposition at finite scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mod = sub.add_parser("module", help="module invariants and duality")
    p_mod.add_argument("--module", required=True)
    p_mod.add_argument("--map")
    p_mod.set_defaults(fn=_cmd_module)

    p_et = sub.add_parser("etale", help="sections and fiberwise functors")
    p_et.add_argument("--space", required=True)
    p_et.add_argument("--subset", nargs="*")
    p_et.set_defaults(fn=_cmd_etale)

    p_tw = sub.add_parser("tower", help="free products/sums over towers")
    p_tw.add_argument("action",
                      choices=("product", "coproduct", "freedec", "dual"))
    p_tw.add_argument("--tower")
    p_tw.add_argument("--towermap")
    p_tw.add_argument("--module")
    p_tw.add_argument("--depth", type=_positive)
    p_tw.add_argument("--budget-bits", type=_positive,
                      default=tower.DEFAULT_BIT_BUDGET)
    p_tw.set_defaults(fn=_cmd_tower)

    p_coh = sub.add_parser("cohomology", help="mod-p group cohomology")
    p_coh.add_argument("--group")
    p_coh.add_argument("--tower", help="group tower JSON")
    p_coh.add_argument("--p", type=_prime, required=True)
    p_coh.add_argument("--kmax", type=_positive, default=3)
    p_coh.add_argument("--subgroup", nargs="*", type=int,
                       help="element indices for a Shapiro check")
    p_coh.add_argument("--budget-dim", type=_positive,
                       default=gc.DEFAULT_DIM_BUDGET)
    p_coh.set_defaults(fn=_cmd_cohomology)

    p_rep = sub.add_parser("rep", help="Rep(V,G) classes and towers")
    p_rep.add_argument("--group")
    p_rep.add_argument("--tower", help="group tower JSON")
    p_rep.add_argument("--p", type=_prime, required=True)
    p_rep.add_argument("--rank", type=_positive, default=1)
    p_rep.add_argument("--budget-hom", type=_positive,
                       default=repv.DEFAULT_HOM_BUDGET)
    p_rep.set_defaults(fn=_cmd_rep)

    p_lq = sub.add_parser("lq", help="the centralizer decomposition check")
    p_lq.add_argument("--group")
    p_lq.add_argument("--tower", help="group tower JSON")
    p_lq.add_argument("--p", type=_prime, required=True)
    p_lq.add_argument("--rank", type=_positive, default=1)
    p_lq.add_argument("--kmax", type=_positive, default=3)
    p_lq.add_argument("--dump-orbits", action="store_true")
    p_lq.add_argument("--budget-dim", type=_positive,
                      default=gc.DEFAULT_DIM_BUDGET)
    p_lq.set_defaults(fn=_cmd_lq)

    p_sep = sub.add_parser("sep", help="separability and fullness checks")
    sep_sub = p_sep.add_subparsers(dest="sep_command")
    p_dist = sep_sub.add_parser("distinguish",
                                help="separate two threads of elements or of subgroups")
    p_dist.add_argument("--tower", required=True)
    p_dist.add_argument("--x", required=True)
    p_dist.add_argument("--y", required=True)
    p_dist.set_defaults(fn=_cmd_sep_distinguish)
    p_sep.add_argument("--hom")
    p_sep.add_argument("--p", type=_prime)
    p_sep.add_argument("--rank", type=_positive, default=1)
    p_sep.add_argument("--budget-hom", type=_positive,
                       default=repv.DEFAULT_HOM_BUDGET)
    p_sep.set_defaults(fn=_cmd_sep)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--criterion", type=int)
    p_self.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sep" and getattr(args, "sep_command", None) is None \
            and (args.hom is None or args.p is None):
        parser.error("sep needs --hom and --p (or the distinguish subcommand)")
    t0 = time.monotonic()
    try:
        code = args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, ValueError, KeyError) as e:
        print(f"bad input: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        if e.dump is not None:
            print(jsonio.dumps(e.dump), file=sys.stderr)
        return EXIT_INTERNAL
    print(f"total: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
