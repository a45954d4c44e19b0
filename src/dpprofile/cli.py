"""Command-line front end for sketching, reconstructing, and evaluating.

Every command is deterministic: rerunning with identical flags (--seed, for
every command that draws randomness) produces byte-identical output files.
Output is written to a temporary file of the command's own and renamed into
place on success, so failures never leave partial files.
Diagnostics (parameters, timing) go to standard error.

Exit codes: 0 on success, 2 on user error (bad flags or inputs), 1 on
internal error.

`main(argv)` is the in-process entry, and leaves the garbage collector as it
found it.  `run()` is the process entry (`python -m dpprofile`, this module
run as a script, and the `dpprofile` console script): it calls `main()` and
then, however main ends (a return, or argparse's SystemExit for `--help` and
usage errors), freezes the collector with `gc.freeze()`.  The interpreter's
shutdown collections then skip every object alive at exit, some 20 000 once
numpy is loaded (about 20 ms of a d = 1e6 `sketch`'s CPU, a tenth of it, on
a 2-vCPU Xeon guest with Python 3.11 and numpy 2.4).  That is safe
because main closes every file it opens, and renames every output into
place, before it returns, so no output waits on a collection; the shutdown
still flushes stdout and stderr and runs the atexit handlers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
import time
from collections import Counter

# No layer is imported here.  Each command imports the layers it runs, and
# checks its flag values with `params`, which needs no numpy, before it reads
# any input or loads numpy: `--help`, a usage error or a refused flag costs
# the interpreter's start alone, and a `sketch` or `update` process loads
# neither the reconstruction nor the evaluation sweep.  Functions are called
# through their module (mechanism.read_sketch), not a name bound at import,
# so a wrapper swapped into the module (bench/tracer.py) sees every call.

__all__ = ["main", "run"]


def _write_atomic_via(path: str, writer) -> None:
    # a fresh temp per call, so no file already there is taken over and two
    # writers to one output each rename a complete file into place; made as
    # open() makes a file, so the umask sets the output's mode (mkstemp's
    # files are 0600)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_atomic(path: str, text: str) -> None:
    def writer(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)

    _write_atomic_via(path, writer)


@contextlib.contextmanager
def _naming(flag: str):
    """Prefix the message of a ValueError raised in the block with `flag`."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def cmd_sketch(args) -> None:
    from . import params

    # a sketch could never be reconstructed if its window exceeds the cap at
    # every eta (first from n alone, then with the least noise bound that
    # epsilon gives at any eta and d), or if no noise bound lifts the
    # operator's spectrum floor to the invertibility threshold
    with _naming("--n"):
        params.check_max_count(args.n)
        params.check_window(args.n)
    with _naming(f"--epsilon {args.epsilon!r}"):
        b_min = params.min_truncation_radius(args.epsilon)  # validates epsilon
    with _naming(f"--epsilon {args.epsilon!r} (least B at any eta)"):
        params.check_window(args.n, b_min, remedy="raise epsilon")
    sup_floor = params.max_spectrum_floor(args.epsilon)
    if sup_floor < params.MIN_EIGENVALUE:
        raise ValueError(
            f"--epsilon {args.epsilon!r}: every operator is ill-conditioned: its "
            f"spectrum floor is below tanh^2(eps/2) = {sup_floor:.3e} < "
            f"{params.MIN_EIGENVALUE:g} at any eta"
        )
    import numpy as np

    from . import mechanism

    h = mechanism.read_histogram(args.input, n=args.n)
    rng = np.random.default_rng(args.seed)
    sketch = mechanism.privatize(h, args.epsilon, clip=args.clip, rng=rng)
    _write_atomic_via(args.output, lambda p: mechanism.write_sketch(p, sketch))


def cmd_reconstruct(args) -> None:
    from . import params

    with _naming(f"--eta {args.eta!r}"):
        params.check_eta(args.eta)
    import numpy as np

    from . import mechanism

    sketch = mechanism.read_sketch(args.input)
    # the sketch is valid, so a configuration error comes from --eta and
    # the noise bound it sets
    with _naming(f"--eta {args.eta!r}"):
        cfg = params.ReconstructionConfig(
            epsilon=sketch.epsilon,
            eta=args.eta,
            n=sketch.n,
            d=sketch.d,
            p_norm=args.norm,
        )
    # the reconstruction and its operator load only for a sketch and a
    # configuration that passed
    from . import circulant, reconstruct

    # only unfolding a clipped sketch draws randomness
    rng = np.random.default_rng(args.seed) if sketch.clipped else None
    start = time.perf_counter()
    profile = reconstruct.reconstruct_profile(sketch, cfg, rng=rng)
    elapsed = time.perf_counter() - start
    p_norm = circulant.kernel_normalizer(cfg.epsilon, cfg.B)
    print(f"B={cfg.B} P_norm={p_norm!r} seconds={elapsed:.6f}", file=sys.stderr)
    _write_atomic_via(args.output, lambda p: reconstruct.write_profile_csv(p, profile))


def cmd_update(args) -> None:
    from . import mechanism

    sketch = mechanism.read_sketch(args.sketch)
    if sketch.clipped:  # before the delta file is read
        raise ValueError(f"--sketch {args.sketch}: a clipped sketch cannot be updated; "
                         "sketch the histogram again without --clip")
    # Delta entries may be any integers: no [0, n] check.
    deltas = mechanism.read_int_lines(args.delta)
    updated = mechanism.update(sketch, deltas)
    _write_atomic_via(args.output, lambda p: mechanism.write_sketch(p, updated))


def _parse_dist(text: str) -> tuple[str, float]:
    """The SynthSpec distribution and parameter that --dist names."""
    name, _, param = text.partition(":")
    if name == "point_mass":
        try:
            return "point_mass", int(param)
        except ValueError:
            raise ValueError(
                f"--dist {text!r}: point_mass needs an integer count, e.g. point_mass:1"
            ) from None
    if name == "uniform":
        if param:
            raise ValueError(f"--dist {text!r}: uniform takes no parameter")
        return "uniform_counts", 0.0
    if name == "zipf":
        try:
            return "zipf", float(param) if param else 1.1
        except ValueError:
            raise ValueError(f"--dist {text!r}: zipf needs an exponent, e.g. zipf:1.1") from None
    raise ValueError(f"--dist {text!r}: unknown distribution {name!r}")


def cmd_eval(args) -> None:
    from . import params

    try:
        d_list = [int(tok) for tok in args.d_list.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--d-list must be comma-separated integers, got {args.d_list!r}")
    if not d_list:
        raise ValueError("--d-list is empty")
    # params' checks; these two messages name their flag as the subject
    try:
        params.check_max_count(args.n)
    except ValueError:
        raise ValueError(f"--n must be >= 1, got {args.n}") from None
    try:
        params.check_eta(args.eta)
    except ValueError:
        raise ValueError(f"--eta must lie in (0, 1), got {args.eta!r}") from None
    with _naming("--n"):
        params.check_window(args.n)
    with _naming(f"--epsilon {args.epsilon!r}"):
        params._check_epsilon(args.epsilon)
    too_small = [d for d in d_list if d < 1]
    if too_small:
        raise ValueError(f"--d-list: domain size {too_small[0]} must be >= 1")
    # every cell holds a d-length histogram; refuse before any is built
    too_large = [d for d in d_list if d > params.MAX_WINDOW]
    if too_large:
        raise ValueError(
            f"--d-list: domain size {too_large[0]} is above the largest supported "
            f"{params.MAX_WINDOW}"
        )
    with _naming("--trials"):
        params.check_trials(args.trials)
    if args.fit:  # every listing of a d is one cell of --trials rows
        with _naming("--fit"):
            params.check_fit({d: k * args.trials for d, k in Counter(d_list).items()})
    distribution, param = _parse_dist(args.dist)
    # the flags are valid one by one; the noise bound they set together may
    # still give no window
    with _naming(f"--epsilon {args.epsilon!r} with --eta {args.eta!r}"):
        cfgs = [
            params.ReconstructionConfig(epsilon=args.epsilon, eta=args.eta, n=args.n, d=d)
            for d in d_list
        ]
    from . import evaluation

    grid = []
    for cell, cfg in enumerate(cfgs):
        seed = evaluation.derive_seed(args.seed, cell, 1 << 32)
        try:
            spec = evaluation.SynthSpec(distribution, d=cfg.d, n=cfg.n, seed=seed, param=param)
        except ValueError as exc:  # d and n are checked above
            raise ValueError(f"--dist {args.dist!r}: {exc}") from None
        grid.append((spec, cfg))
    reports = evaluation.sweep(grid, trials=args.trials, master_seed=args.seed)
    slopes = None
    if args.fit:
        with _naming("--fit"):  # before any slope is printed or a file written
            slopes = {p: evaluation.fit_scaling(reports, p) for p in evaluation.NORMS}
        for p in evaluation.NORMS:
            print(f"slope_{p}={slopes[p]!r}", file=sys.stderr)
    _write_atomic(args.output, evaluation.rows_to_csv(reports, slopes))


def cmd_innerprod(args) -> None:
    from . import params

    if not 16 <= args.d < 2**63:  # run_protocol's range, named by its flag here
        raise ValueError(f"--d must lie in [16, 2**63 - 1], got {args.d}")
    with _naming("--trials"):
        params.check_trials(args.trials)
    with _naming(f"--epsilon {args.epsilon!r}"):
        params._check_epsilon(args.epsilon)  # run_protocol's check, before numpy loads
    from . import twoparty

    # run_protocol's window, which the noise bound may overrun; the protocol
    # fixes eta, so epsilon is the one flag that narrows it
    with _naming(f"--epsilon {args.epsilon!r}"):
        b = params.truncation_radius(args.epsilon, twoparty.PROTOCOL_ETA, args.d)
        params.check_window(twoparty.PROTOCOL_N, b, remedy="raise epsilon")
    results = twoparty.run_protocol(
        d=args.d, epsilon=args.epsilon, trials=args.trials, master_seed=args.seed
    )
    _write_atomic(args.output, twoparty.results_to_csv(args.d, results))


def _build_parser() -> argparse.ArgumentParser:
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument(
        "--seed", type=int, default=0, help="64-bit seed; reruns are byte-identical"
    )

    parser = argparse.ArgumentParser(
        prog="dpprofile",
        description="Privatize histograms and reconstruct dataset profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sketch", parents=[seed_parent], help="privatize a histogram")
    p.add_argument("--input", required=True, help="histogram file, one count per line")
    p.add_argument("--output", required=True, help="sketch JSON path")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="maximum count")
    p.add_argument("--clip", action="store_true", help="clip noisy counts into [0, n]")
    p.set_defaults(func=cmd_sketch)

    p = sub.add_parser(
        "reconstruct", parents=[seed_parent], help="estimate the profile of a sketch"
    )
    p.add_argument("--input", required=True, help="sketch JSON path")
    p.add_argument("--output", required=True, help="profile CSV path")
    p.add_argument("--eta", type=float, required=True, help="failure probability")
    p.add_argument("--norm", choices=["l1", "l2", "linf"], default="l2")
    p.set_defaults(func=cmd_reconstruct)

    # update draws no randomness, so it takes no --seed
    p = sub.add_parser("update", help="shift an unclipped sketch")
    p.add_argument("--sketch", required=True)
    p.add_argument("--delta", required=True, help="integer deltas, one per line")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("eval", parents=[seed_parent], help="error sweep over domain sizes")
    p.add_argument("--dist", required=True, help="point_mass:C, uniform, or zipf:A")
    p.add_argument("--d-list", required=True, help="comma-separated domain sizes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--fit", action="store_true", help="append scaling slopes")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "innerprod", parents=[seed_parent], help="two-party inner-product demo"
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_innerprod)

    return parser


def main(argv=None) -> int:
    # numpy's OpenBLAS starts a worker thread per CPU at import, although
    # this package makes no BLAS or LAPACK call; the pin must be set before
    # that import, a value the user set is kept, and an in-process caller
    # that has already loaded numpy keeps its environment
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed"):  # once for every command with --seed
            from .params import check_seed
            check_seed(args.seed, "--seed")
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> int:
    """The process entry: main() on sys.argv, then the collector frozen for
    the shutdown.  Only for a process that ends when it returns."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
