"""Command-line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 for usage or
parse problems. Reports are line-oriented on stdout; --out writes one
JSON record per item.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import errors as err
from .identities import corrupt_keys
from .localglobal import CoverData, conj_decompose, dilate, normality_demo, patch
from .rewrite import decompose_full
from .rings import Localized, PolyRing, parse_element, ring_from_descriptor
from .verify import run_verify_tables
from .words import Word, same_value, word_from_text

# errors in what the caller gave; a check of the program's own work that
# fails raises StepVerificationFailed and exits 1
USAGE_ERRORS = (err.ParseError, err.EvenModulus, err.ZeroDivisorS, err.BadIndices,
                err.AlphabetViolation, err.ExponentTooSmall,
                err.CoverNotComaximal, err.NotHomotopy, err.LocalWordMismatch,
                FileNotFoundError, ValueError)


# ceilings measured on a 2-core VM: verify-tables over zmod:15 at n = 24
# with the default 3 trials takes about 60 s (its time grows like n^5),
# and at n = 2 with 1000 trials about 8 s
MAX_N = 24
MAX_TRIALS = 1000


def _check_n(n, text):
    if n < 2:
        raise err.ParseError(f"--n {text} includes n < 2; every n must be >= 2")
    if n > MAX_N:
        raise err.ParseError(f"--n {text} goes above n = {MAX_N}, the largest n accepted")


def _parse_n_range(text):
    """Block counts from ``k`` or ``lo..hi``: a nonempty range, every n in 2..MAX_N."""
    try:
        lo, hi = map(int, text.split("..", 1)) if ".." in text else (int(text),) * 2
    except ValueError:
        raise err.ParseError(f"--n {text} is neither an integer nor a range lo..hi") from None
    if hi < lo:
        raise err.ParseError(f"--n {text} is an empty range")
    _check_n(lo, text)
    _check_n(hi, text)
    return list(range(lo, hi + 1))


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_verify_tables(args):
    ring = ring_from_descriptor(args.ring)
    n_values = _parse_n_range(args.n)
    trials = args.trials
    if trials is None:
        trials = 3
    elif isinstance(ring, PolyRing):
        raise err.ParseError(f"--trials has no effect over {ring.descriptor()}: the bindings "
                             "are symbolic, so one instance per item is checked")
    elif trials < 1:
        raise err.ParseError(f"--trials {trials} checks nothing; it must be >= 1")
    elif trials > MAX_TRIALS:
        raise err.ParseError(f"--trials {trials} is above {MAX_TRIALS}, the most trials accepted")
    keys = corrupt_keys(n_values)
    if args.corrupt is not None and args.corrupt not in keys:
        raise err.ParseError(f"--corrupt {args.corrupt} names no table entry that --n {args.n} "
                             "builds; the keys are " + ", ".join(sorted(keys)))
    report = run_verify_tables(ring, n_values, seed=args.seed,
                               trials=trials, corrupt=args.corrupt,
                               out_stream=sys.stdout)
    if args.out:
        _write(args.out, report.to_jsonl())
    print(report.summary())
    return 0 if report.ok else 1


def cmd_decompose(args):
    ring = ring_from_descriptor(args.ring)
    word = word_from_text(ring, args.n, _read(args.infile))
    cert = decompose_full(word)
    ok = cert.verified and same_value(ring, args.n, cert.output_word.atoms, word.atoms)
    print(f"{'PASS' if ok else 'FAIL'} decompose {cert.summary()}")
    if args.out:
        _write(args.out, cert.output_word.to_text())
    if args.trace:
        def digest(atoms):
            return hashlib.sha256(Word(ring, args.n, atoms).to_text().encode()).hexdigest()[:12]

        lines = [f"{rule} {digest(before)} {digest(after)}" for rule, before, after in cert.trace]
        _write(args.trace, "\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_conj(args):
    base = ring_from_descriptor(args.ring)
    s = parse_element(base, args.s)
    loc = Localized(base, s)
    a = parse_element(base, args.a)
    x = parse_element(base, args.x)
    word, graded = conj_decompose(loc, args.n, args.xshape, args.i, a, args.k,
                                  args.yshape, args.j, args.m, x)
    print(f"PASS conj length={len(word)} "
          f"min_exponent={min((g.e[0] for g in graded), default=None)}")
    for g in graded:
        print(f"  {g.shape}@{g.pos} exponent={g.e[0]} coeff={base.show(g.e[1])}")
    if args.out:
        _write(args.out, word.to_text())
    return 0


def cmd_dilate(args):
    base = ring_from_descriptor(args.ring)
    s = parse_element(base, args.s)
    loc = Localized(base, s)
    ring_sx = PolyRing(loc, ("X",))
    word = word_from_text(ring_sx, args.n, _read(args.infile))
    m, out = dilate(base, s, args.n, word)
    print(f"PASS dilate m={m} output_atoms={len(out)}")
    if args.out:
        _write(args.out, out.to_text())
    return 0


def cmd_patch(args):
    base = ring_from_descriptor(args.ring)
    cover = CoverData.from_text(base, _read(args.cover))
    ring_x = PolyRing(base, ("X",))
    alpha = word_from_text(ring_x, args.n, _read(args.alpha))
    if len(args.locals) != len(cover.entries):
        raise err.ParseError(f"--locals gives {len(args.locals)} word file(s) for a cover of "
                             f"{len(cover.entries)} entries; give one local word per entry")
    local_words = []
    for (entry, path) in zip(cover.entries, args.locals):
        loc = Localized(base, entry[0])
        ring_sx = PolyRing(loc, ("X",))
        local_words.append(word_from_text(ring_sx, args.n, _read(path)))
    out = patch(base, args.n, alpha, cover, local_words)
    print(f"PASS patch output_atoms={len(out)}")
    if args.out:
        _write(args.out, out.to_text())
    return 0


def cmd_normality(args):
    base = ring_from_descriptor(args.ring)
    cover = CoverData.from_text(base, _read(args.cover))
    gamma_word = word_from_text(base, args.n, _read(args.gamma))
    h_word = word_from_text(base, args.n, _read(args.h))
    out = normality_demo(base, args.n, gamma_word, h_word, cover)
    print(f"PASS normality-demo output_atoms={len(out)}")
    if args.out:
        _write(args.out, out.to_text())
    return 0


def cmd_report(args):
    records = []
    for lineno, line in enumerate(_read(args.infile).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise err.ParseError(str(exc), line=lineno) from None
        if not isinstance(rec, dict):
            raise err.ParseError(f"a record must be a JSON object, not {type(rec).__name__}",
                                 line=lineno)
        records.append(rec)
    if not records:
        raise err.ParseError("the report has no records")
    npass = sum(1 for r in records if r.get("status") == "PASS")
    for r in records:
        if r.get("status") != "PASS":
            print(f"FAIL {r.get('name')} ring={r.get('ring')} n={r.get('n')} "
                  f"bindings: {r.get('bindings', '')}")
    print(f"{npass}/{len(records)} items passed")
    return 0 if npass == len(records) else 1


def build_parser():
    top = argparse.ArgumentParser(prog="sympelem",
                                  description="exact verification and rewriting "
                                              "for elementary symplectic generators")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-tables", help="run every identity family")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", default="2..3", help="block range, e.g. 2..3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None,
                   help="random instances per item over a sampled ring (default 3)")
    p.add_argument("--corrupt", default=None,
                   help="fault-injection key, e.g. commutator:AB:eq")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("decompose", help="rewrite a generator word into shapes")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("conj", help="conjugation decomposition over a localization")
    p.add_argument("--ring", required=True, help="base ring descriptor")
    p.add_argument("--s", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xshape", required=True, choices=list("ABCD"))
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--yshape", required=True, choices=list("ABCD"))
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_conj)

    p = sub.add_parser("dilate", help="clear localization denominators of a homotopy")
    p.add_argument("--ring", required=True, help="base ring descriptor")
    p.add_argument("--s", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dilate)

    p = sub.add_parser("patch", help="assemble a global homotopy from local words")
    p.add_argument("--ring", required=True, help="base ring descriptor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--alpha", required=True, help="word file over R[X] defining alpha")
    p.add_argument("--locals", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_patch)

    p = sub.add_parser("normality-demo", help="conjugate a shape word by a symplectic element")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", required=True, help="generator word file, or one CORNER line")
    p.add_argument("--h", required=True, help="shape word file")
    p.add_argument("--cover", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_normality)

    p = sub.add_parser("report", help="summarize a JSONL report file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_report)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if isinstance(getattr(args, "n", None), int):
            _check_n(args.n, args.n)
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except err.SympelemError as exc:  # every other failure is a verification one
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
