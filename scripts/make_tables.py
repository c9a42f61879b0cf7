#!/usr/bin/env python3
"""Generate the standard verification tables for a list of (p, n, cutoff)
contexts: three-way Hilbert comparison, collapse check, and relation counts.

Examples:
    python scripts/make_tables.py
    python scripts/make_tables.py --contexts 3,2,8 5,2,6 --outdir tables/
"""

import argparse
import os
import time

from phiring.charspace import GroupContext, enumerate_lines
from phiring.phi import build_phi_presentation, closed_form_series, compare_routes
from phiring.ssq import collapse_check

DEFAULT_CONTEXTS = ["3,1,10", "3,2,8", "5,2,6", "3,3,4"]


def parse_context(text):
    p, n, cutoff = (int(v) for v in text.split(","))
    return GroupContext(p, n), cutoff


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--contexts", nargs="+", default=DEFAULT_CONTEXTS,
                        help="p,n,cutoff triples")
    parser.add_argument("--outdir", help="also write one CSV per context")
    args = parser.parse_args()

    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)

    for text in args.contexts:
        ctx, cutoff = parse_context(text)
        t0 = time.time()
        # phi.verify_phi, keeping the presentation to count its relations
        pres = build_phi_presentation(ctx)
        rep = compare_routes(ctx, enumerate_lines(ctx), pres, cutoff,
                             closed_form_series(ctx, cutoff))
        collapse = collapse_check(ctx, cutoff)
        elapsed = time.time() - t0

        print("== p=%d n=%d cutoff=%d  (%d relations, %.2fs)" % (
            ctx.p, ctx.n, cutoff, len(pres.relation_weights), elapsed))
        print("   closed form : %s" % (rep.closed_form,))
        print("   presentation: %s" % (rep.presentation,))
        print("   oracle      : %s" % (rep.oracle,))
        print("   second page : %s" % (collapse.e2_totals,))
        print("   all equal   : %s / collapse ok: %s" % (rep.ok, collapse.ok))

        if args.outdir:
            path = os.path.join(args.outdir, "phi_p%d_n%d.csv" % (ctx.p, ctx.n))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("weight," + ",".join(str(w) for w in range(cutoff + 1)) + "\n")
                for name, row in [
                    ("closed-form", rep.closed_form),
                    ("presentation", rep.presentation),
                    ("oracle", rep.oracle),
                    ("e2-total", collapse.e2_totals),
                ]:
                    fh.write(name + "," + ",".join(str(v) for v in row) + "\n")
            print("   wrote %s" % path)


if __name__ == "__main__":
    main()
