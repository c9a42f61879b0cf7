"""Command-line surface: table generation and verification runs.

Every subcommand builds a plain-dict report, serializes it as csv or json,
and exits 0 only when all verification flags in the report are true (1 on a
failed flag, 2 on usage errors).  Output is byte-deterministic for a fixed
config, including localize's --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from functools import lru_cache, partial

from . import charspace, modp, oracle, phi, rograde, ssq, superalg
from .charspace import Character, GroupContext

BUDGET_ENV = "PHIRING_COLUMN_BUDGET"
DEFAULT_COLUMN_BUDGET = 20000


class UsageError(Exception):
    pass


def _context(config: argparse.Namespace) -> GroupContext:
    """The group of the job; an arrangement file names it, and --p/--n must
    then agree with the file."""
    p, n = config.p, config.n
    if config.arrangement is not None:
        file_p, file_n, _ = config.arrangement
        if p is not None and p != file_p:
            raise UsageError("--p disagrees with the arrangement file (%d vs %d)" % (p, file_p))
        if n is not None and n != file_n:
            raise UsageError("--n disagrees with the arrangement file (%d vs %d)" % (n, file_n))
        p, n = file_p, file_n
    if p is None:
        raise UsageError("--p is required")
    if n is None:
        raise UsageError("--n is required")
    try:
        return GroupContext(p, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require_cutoff(config: argparse.Namespace) -> int:
    if config.cutoff is None or config.cutoff < 0:
        raise UsageError("--cutoff must be a nonnegative integer")
    return config.cutoff


def _check_budget(
    num_gens: int, weight: int, ctx: GroupContext, config: argparse.Namespace
) -> None:
    """Refuse, before any work, a job whose matrices exceed the column budget
    or whose prime is too large for exact elimination.  The presentation's
    blocks have at most `estimate` columns and the oracle's at most
    `estimate` rows, and an entry of the oracle's numerator products gathers
    at most n products, so modp.check_exact for the larger of the two, the
    one float64 bound, covers all the job's arithmetic."""
    estimate = superalg.free_monomial_count(num_gens, weight)
    if estimate > config.column_budget:
        raise UsageError(
            "cutoff too large: weight %d needs ~%d matrix columns, budget is %d "
            "(raise %s to override)" % (weight, estimate, config.column_budget, BUDGET_ENV)
        )
    try:
        modp.check_exact(max(estimate, ctx.n), ctx.p)
    except ValueError:
        raise UsageError(
            "p = %d is too large for exact elimination at weight %d (~%d columns)"
            % (ctx.p, weight, estimate)
        ) from None


def _check_oracle_blocks(
    num_lines: int, cutoff: int, ctx: GroupContext, config: argparse.Namespace
) -> None:
    """Refuse, before any work, a job whose oracle on num_lines lines forms a
    block, at some weight up to the cutoff, of more dense entries than the
    budget squared: the count the presentation's budget already allows.
    oracle.block_shapes gives each block's shape in closed form."""
    for weight in range(cutoff + 1):
        for k, (rows, cols) in oracle.block_shapes(num_lines, weight, ctx.n).items():
            if rows * cols > config.column_budget**2:
                raise UsageError(
                    "cutoff too large: the oracle's weight-%d, dx-degree-%d block on %d lines "
                    "needs ~%d x %d matrix entries, budget is %d^2 (raise %s to override)"
                    % (weight, k, num_lines, rows, cols, config.column_budget, BUDGET_ENV)
                )


def _parse_character(text: str, ctx: GroupContext, flag: str) -> Character:
    parts = text.split(",")
    if len(parts) != ctx.n:
        raise UsageError("%s: character %r must have %d coordinates" % (flag, text, ctx.n))
    try:
        coords = tuple(int(c) % ctx.p for c in parts)
    except ValueError:
        raise UsageError("%s: character %r has non-integer coordinates" % (flag, text)) from None
    if not any(coords):
        raise UsageError("%s: character %r is zero mod p" % (flag, text))
    return Character(coords)


def _parse_lines(items, ctx: GroupContext, flag: str):
    """Sorted distinct lines of characters given as comma-separated text."""
    lines = {charspace.line_of(_parse_character(item, ctx, flag), ctx) for item in items}
    return tuple(sorted(lines))


def _coords_str(coords) -> str:
    return " ".join(str(c) for c in coords)


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


# ---------------------------------------------------------------- commands
#
# A handler returns (report, csv rows, ok); run adds command, p and n to
# the report.


def _cmd_lines(config: argparse.Namespace, ctx: GroupContext):
    lines = charspace.enumerate_lines(ctx)
    report = {"count": len(lines), "lines": [list(line.rep.coords) for line in lines]}
    rows = [[_coords_str(line.rep.coords)] for line in lines]
    return report, rows, True


def _cmd_fn_enum(config: argparse.Namespace, ctx: GroupContext):
    subsets = charspace.enumerate_Fn(ctx)
    report = {
        "count": len(subsets),
        "subsets": [[list(chi.coords) for chi in sub.elems] for sub in subsets],
    }
    rows = [["size", "subset"]]
    for sub in subsets:
        rows.append([str(sub.size), ";".join(_coords_str(chi.coords) for chi in sub.elems)])
    return report, rows, True


def _cmd_series(config: argparse.Namespace, ctx: GroupContext):
    cutoff = _require_cutoff(config)
    coeffs = phi.closed_form_series(ctx, cutoff)
    report = {"cutoff": cutoff, "coeffs": list(coeffs)}
    rows = [[str(c) for c in coeffs]]
    return report, rows, True


def _cmd_phi_verify(config: argparse.Namespace, ctx: GroupContext):
    cutoff = _require_cutoff(config)
    gens = ctx.num_characters if config.verbatim else ctx.num_lines
    _check_budget(gens, cutoff, ctx, config)
    _check_oracle_blocks(ctx.num_lines, cutoff, ctx, config)
    rep = phi.verify_phi(ctx, cutoff, verbatim_mode=config.verbatim)
    report = {
        "cutoff": cutoff,
        "verbatim": config.verbatim,
        "closed_form": list(rep.closed_form),
        "presentation": list(rep.presentation),
        "oracle": list(rep.oracle),
        "equal": list(rep.equal),
        "mismatched_weights": list(rep.mismatched_weights),
        "ok": rep.ok,
    }
    rows = [["weight"] + [str(w) for w in range(cutoff + 1)]]
    rows.append(["closed-form"] + [str(v) for v in rep.closed_form])
    rows.append(["presentation"] + [str(v) for v in rep.presentation])
    rows.append(["oracle"] + [str(v) for v in rep.oracle])
    rows.append(["equal"] + [_bool_str(v) for v in rep.equal])
    return report, rows, rep.ok


def _cmd_phi_basis(config: argparse.Namespace, ctx: GroupContext):
    if config.weight is None or config.weight < 0:
        raise UsageError("--weight must be a nonnegative integer")
    gens = ctx.num_characters if config.verbatim else ctx.num_lines
    _check_budget(gens, config.weight, ctx, config)
    pres = phi.build_phi_presentation(ctx, verbatim_mode=config.verbatim)
    basis = superalg.monomial_basis(pres, config.weight)
    report = {
        "weight": config.weight,
        "verbatim": config.verbatim,
        "dimension": len(basis),
        "basis": [str(m) for m in basis],
    }
    rows = [[str(m)] for m in basis]
    return report, rows, True


def _cmd_page_table(page_dim, config: argparse.Namespace, ctx: GroupContext):
    """e1-table and e2-table: page_dim is ssq.e1_dim or ssq.e2_dim."""
    cutoff = _require_cutoff(config)
    entries = [[page_dim(ctx, s, d) for d in range(cutoff + 1)] for s in range(cutoff + 1)]
    rows = [["s"] + [str(d) for d in range(cutoff + 1)]]
    rows.extend([str(s)] + [str(v) for v in row] for s, row in enumerate(entries))
    return {"cutoff": cutoff, "entries": entries}, rows, True


def _cmd_collapse_check(config: argparse.Namespace, ctx: GroupContext):
    cutoff = _require_cutoff(config)
    rep = ssq.collapse_check(ctx, cutoff)
    report = {
        "cutoff": cutoff,
        "e2_totals": list(rep.e2_totals),
        "closed_form": list(rep.closed_form),
        "equal": list(rep.equal),
        "e2_dominated_by_e1": rep.dominated,
        "ok": rep.ok,
    }
    rows = [["weight"] + [str(d) for d in range(cutoff + 1)]]
    rows.append(["e2-total"] + [str(v) for v in rep.e2_totals])
    rows.append(["closed-form"] + [str(v) for v in rep.closed_form])
    rows.append(["equal"] + [_bool_str(v) for v in rep.equal])
    rows.append(["e2<=e1", _bool_str(rep.dominated)])
    return report, rows, rep.ok


def _parse_mult(text: str, ctx: GroupContext) -> dict[Character, int]:
    """--mult 'coords:count;...' as counts per character; the counts of a
    character given twice add up."""
    mults: dict[Character, int] = {}
    for item in text.split(";") if text else ():
        coords, colon, count = item.rpartition(":")
        if not colon:
            raise UsageError("--mult item %r must look like coords:count" % item)
        chi = _parse_character(coords, ctx, "--mult")
        try:
            mults[chi] = mults.get(chi, 0) + int(count)
        except ValueError:
            raise UsageError("--mult item %r has a non-integer count" % item) from None
    return mults


def _cmd_ro_dim(config: argparse.Namespace, ctx: GroupContext):
    mults = _parse_mult(config.mult, ctx)
    if config.k is None:
        raise UsageError("--k is required")
    try:
        md = rograde.multidegree(ctx, mults, config.k)
    except ValueError as exc:
        raise UsageError("--mult: %s" % exc) from None
    # ro_dimension builds no matrix.  The guard is kept, sized by the free
    # monomials on the piece's labels, so that which jobs exit 2 does not
    # depend on how the dimension is computed.
    _check_budget(len(md.m), max(0, min(md.k, 2 * md.total_mult)), ctx, config)
    dim = rograde.ro_dimension(ctx, md)
    report = {
        "mult": [[_coords_str(label.rep.coords), m] for label, m in md.m],
        "k": config.k,
        "dimension": dim,
    }
    return report, [[str(dim)]], True


def _md_str(md: rograde.MultiDegree) -> str:
    if not md.m:
        return "-"
    return ";".join("%s:%d" % (_coords_str(label.rep.coords), m) for label, m in md.m)


def _cmd_ro_table(config: argparse.Namespace, ctx: GroupContext):
    if config.max_mult < 0:
        raise UsageError("--max-mult must be nonnegative")
    if config.k_max < config.k_min:
        raise UsageError("--k-max must be >= --k-min")
    # Sized by the largest piece (max_mult labels, weight 2*max_mult) and
    # kept for the reason given in _cmd_ro_dim.
    _check_budget(config.max_mult, max(0, min(config.k_max, 2 * config.max_mult)), ctx, config)
    table = rograde.ro_table(ctx, config.max_mult, (config.k_min, config.k_max))
    named = [(_md_str(md), md.k, dim) for md, dim in table.items()]
    report = {
        "max_mult": config.max_mult,
        "k_range": [config.k_min, config.k_max],
        "entries": [{"mult": name, "k": k, "dimension": dim} for name, k, dim in named],
    }
    rows = [["multidegree", "k", "dimension"]]
    rows.extend([name, str(k), str(dim)] for name, k, dim in named)
    return report, rows, True


def _cmd_localize(config: argparse.Namespace, ctx: GroupContext):
    arrangements = []
    if config.arrangement is not None:
        rows = (",".join(map(str, row)) for row in config.arrangement[2])
        arrangements.append(_parse_lines(rows, ctx, "arrangement"))
    cutoff = _require_cutoff(config)
    if config.sample is not None and config.sample < 0:
        raise UsageError("--sample must be a nonnegative integer")
    if config.sample_max_size < 1:
        raise UsageError("--sample-max-size must be >= 1")
    if config.lines_spec:
        arrangements.append(_parse_lines(config.lines_spec.split(";"), ctx, "--lines"))
    if config.sample:
        rng = random.Random(config.seed)
        pool = list(charspace.enumerate_lines(ctx))
        for _ in range(config.sample):
            size = rng.randint(1, config.sample_max_size)
            arrangements.append(tuple(sorted(rng.sample(pool, min(size, len(pool))))))
    if not arrangements:
        raise UsageError("localize needs --lines, --arrangement, or --sample")
    for lines in arrangements:
        _check_budget(len(lines), cutoff, ctx, config)
    for lines in arrangements:  # after every budget check, whose messages come first
        _check_oracle_blocks(len(lines), cutoff, ctx, config)
    results = [rograde.localized_hilbert(ctx, lines, cutoff) for lines in arrangements]
    report = {
        "cutoff": cutoff,
        "results": [
            {
                "lines": [list(line.rep.coords) for line in res.lines],
                "oracle": list(res.oracle),
                "presentation": list(res.presentation),
                "equal": list(res.equal),
            }
            for res in results
        ],
        "ok": all(res.ok for res in results),
    }
    rows = [["arrangement", "source"] + [str(w) for w in range(cutoff + 1)]]
    for res in results:
        name = ";".join(_coords_str(line.rep.coords) for line in res.lines)
        rows.append([name, "oracle"] + [str(v) for v in res.oracle])
        rows.append([name, "presentation"] + [str(v) for v in res.presentation])
        rows.append([name, "equal"] + [_bool_str(v) for v in res.equal])
    return report, rows, report["ok"]


def _cmd_relation_check(config: argparse.Namespace, ctx: GroupContext):
    pres = phi.build_phi_presentation(ctx, verbatim_mode=config.verbatim)
    relations = len(pres.relation_weights)
    vanished = int(oracle.vanishing(pres).sum())
    ok = vanished == relations
    report = {
        "verbatim": config.verbatim,
        "relations": relations,
        "vanished": vanished,
        "ok": ok,
    }
    rows = [["relations", "vanished", "ok"], [str(relations), str(vanished), _bool_str(ok)]]
    return report, rows, ok


# ------------------------------------------------------------ command table
#
# Flags are (name, argparse keywords) and go after --p and --n in this
# order; this table is the one definition of each flag and its default.

_CUTOFF = ("--cutoff", dict(type=int, help="largest weight computed"))
_WEIGHT = ("--weight", dict(type=int, help="weight of the graded piece"))
_VERBATIM = ("--verbatim", dict(
    action="store_true",
    help="use the character-indexed presentation with no u identification",
))
_OUTPUT = (("--format", dict(dest="fmt", choices=("csv", "json"), default="csv")),)

_COMMANDS = (
    ("lines", "list the canonical line representatives", _cmd_lines, _OUTPUT),
    ("fn-enum", "list the echelon subsets", _cmd_fn_enum, _OUTPUT),
    ("series", "closed-form Poincare series coefficients", _cmd_series, (_CUTOFF, *_OUTPUT)),
    ("phi-verify", "closed form vs presentation vs oracle", _cmd_phi_verify,
     (_CUTOFF, _VERBATIM, *_OUTPUT)),
    ("phi-basis", "monomial basis of one graded piece", _cmd_phi_basis,
     (_WEIGHT, _VERBATIM, *_OUTPUT)),
    ("e1-table", "first-page dimensions", partial(_cmd_page_table, ssq.e1_dim),
     (_CUTOFF, *_OUTPUT)),
    ("e2-table", "second-page dimensions", partial(_cmd_page_table, ssq.e2_dim),
     (_CUTOFF, *_OUTPUT)),
    ("collapse-check", "second page against the closed form", _cmd_collapse_check,
     (_CUTOFF, *_OUTPUT)),
    ("ro-dim", "dimension of one representation-graded piece", _cmd_ro_dim, (
        *_OUTPUT,
        ("--mult", dict(default="", help="multidegree, e.g. '1,0:1;0,1:2'")),
        ("--k", dict(type=int, help="integer shift")),
    )),
    ("ro-table", "representation-graded dimension table", _cmd_ro_table, (
        *_OUTPUT,
        ("--max-mult", dict(type=int, default=2)),
        ("--k-min", dict(type=int, default=0)),
        ("--k-max", dict(type=int, default=4)),
    )),
    ("localize", "oracle vs candidate presentation on a line set", _cmd_localize, (
        _CUTOFF,
        *_OUTPUT,
        ("--lines", dict(dest="lines_spec", default="", help="e.g. '1,0;0,1'")),
        ("--arrangement", dict(help="JSON file {p, n, lines}")),
        ("--sample", dict(type=int, help="number of random arrangements")),
        ("--sample-max-size", dict(type=int, default=4)),
        ("--seed", dict(type=int, default=0, help="seed of the --sample draw")),
    )),
    ("relation-check", "verify every relation vanishes in the oracle", _cmd_relation_check,
     (_VERBATIM, *_OUTPUT)),
)
_HANDLERS = {name: handler for name, _, handler, _ in _COMMANDS}


def run(config: argparse.Namespace) -> tuple[int, str]:
    """Dispatch one job; returns (exit status, serialized report)."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise UsageError("unknown command %r" % config.command)
    ctx = _context(config)
    report, rows, ok = handler(config, ctx)
    report.update(command=config.command, p=ctx.p, n=ctx.n)
    if config.fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        text = buf.getvalue()
    return (0 if ok else 1), text


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on first use and then kept: every
    default in _COMMANDS is immutable, so parses share nothing."""
    parser = argparse.ArgumentParser(
        prog="phiring",
        description="Exact coefficient-ring tables for (Z/p)^n-equivariant cohomology",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, _, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--p", type=int, help="odd prime")
        sp.add_argument("--n", type=int, help="rank of the group")
        for flag, kwargs in flags:
            sp.add_argument(flag, **kwargs)
    return parser


def _read_arrangement_file(path: str):
    """Arrangement file: {"p": int, "n": int, "lines": [[int, ...], ...]},
    with at least one row.  JSON integers load as int, never as bool."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError("arrangement file %s: %s" % (path, exc)) from None
    if not isinstance(data, dict):
        raise UsageError("arrangement file %s: expected a JSON object" % path)
    for key in ("p", "n", "lines"):
        if key not in data:
            raise UsageError("arrangement file %s: missing field %r" % (path, key))
    for key in ("p", "n"):
        if type(data[key]) is not int:
            raise UsageError("arrangement file %s: field %r must be an integer" % (path, key))
    rows = data["lines"]
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) and all(type(v) is int for v in row) for row in rows)):
        raise UsageError("arrangement file %s: field 'lines' must be a nonempty list of "
                         "integer lists" % path)
    return data["p"], data["n"], rows


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise UsageError("%s must be an integer, got %r" % (name, raw)) from None
    if value < 1:
        raise UsageError("%s must be >= 1" % name)
    return value


def config_from_args(argv) -> argparse.Namespace:
    """The parsed flags, plus the column budget and, as `arrangement`, the
    (p, n, rows) of the --arrangement file (None without one)."""
    config = _build_parser().parse_args(argv)
    config.column_budget = _env_int(BUDGET_ENV, DEFAULT_COLUMN_BUDGET)
    path = getattr(config, "arrangement", None)
    config.arrangement = _read_arrangement_file(path) if path else None
    return config


def main(argv=None) -> int:
    try:
        config = config_from_args(sys.argv[1:] if argv is None else argv)
        status, text = run(config)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
