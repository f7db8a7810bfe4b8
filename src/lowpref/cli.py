"""Command-line interface.

Subcommands: gen-instance, sample, run, analyze, adversary, mdp.  Exit
codes: 0 on success, 2 for validation errors, 3 for inconsistent
instances, 4 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import hardness, lower_bound_adversary
from .bench import emit_outputs, load_config, run_experiment, summarize
from .errors import InconsistencyError, NumericalError, ValidationError, refusing
from .instances import (
    GeneratorConfig,
    load_dataset,
    load_instance,
    make_paper_instance,
    sample_dataset,
    save_dataset,
    save_instance,
)
from .mdp import load_kernel, mdp_regret, rl_low_mdp
from .privacy import PrivacyParams


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowpref",
        description="Offline preference-based best-action estimation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-instance", help="generate a synthetic instance")
    gen.add_argument("--S", type=int, required=True)
    gen.add_argument("--A", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--gap-step", type=float, default=0.05)
    gen.add_argument("--out", required=True)

    smp = sub.add_parser("sample", help="sample a preference dataset")
    smp.add_argument("--instance", required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, required=True)
    smp.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run a benchmark config")
    run.add_argument("--config", required=True)

    ana = sub.add_parser("analyze", help="emit a hardness report as JSON")
    ana.add_argument("--instance", required=True)
    ana.add_argument("--epsilon", type=float, default=None)
    ana.add_argument("--delta", type=float, default=None)
    ana.add_argument("--out", default=None)

    adv = sub.add_parser("adversary", help="emit the lower-bound alternative instance")
    adv.add_argument("--instance", required=True)
    adv.add_argument("--out", required=True)

    mdp = sub.add_parser("mdp", help="policy estimation on a known-transition MDP")
    mdp.add_argument("--instance", required=True)
    mdp.add_argument("--kernel", required=True)
    mdp.add_argument("--dataset", required=True, help="estimate once from a dataset file")
    mdp.add_argument("--tie-seed", type=int, default=0)
    return parser


def _cmd_gen_instance(args) -> int:
    cfg = GeneratorConfig(
        num_states=args.S,
        num_actions=args.A,
        dim=args.d,
        seed=args.seed,
        gap_step=args.gap_step,
    )
    save_instance(make_paper_instance(cfg), args.out)
    print(f"wrote instance to {args.out}")
    return 0


def _cmd_sample(args) -> int:
    v = load_instance(args.instance)
    save_dataset(sample_dataset(v, args.n, args.seed), args.out)
    print(f"wrote dataset to {args.out}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    table = run_experiment(cfg)
    paths = emit_outputs(summarize(table), table, cfg)
    print(json.dumps(paths))
    return 0


def _cmd_analyze(args) -> int:
    v = load_instance(args.instance)
    privacy = None
    if (args.epsilon is None) != (args.delta is None):
        raise ValidationError("provide both --epsilon and --delta or neither")
    if args.epsilon is not None:
        privacy = PrivacyParams(epsilon=args.epsilon, delta=args.delta)
    payload = hardness(v, privacy).to_json_dict()
    if privacy is not None:
        payload["privacy"] = {"epsilon": privacy.epsilon, "delta": privacy.delta}
    report = json.dumps(payload, indent=2)
    if args.out:
        with refusing("write", args.out), open(args.out, "w") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    return 0


def _cmd_adversary(args) -> int:
    v = load_instance(args.instance)
    pair = lower_bound_adversary(v)
    save_instance(pair.alt, args.out)
    print(f"wrote alternative instance to {args.out} (divergence {pair.dtilde_value!r})")
    return 0


def _cmd_mdp(args) -> int:
    v = load_instance(args.instance)
    kernel = load_kernel(args.kernel, (v.num_states, v.num_actions))
    data = load_dataset(args.dataset)
    policy = rl_low_mdp(
        data, v.features, v.reward_bound, kernel, v.rho, tie_seed=args.tie_seed
    )
    print(json.dumps({"policy": list(policy), "regret": mdp_regret(v, kernel, policy)}))
    return 0


_COMMANDS = {
    "gen-instance": _cmd_gen_instance,
    "sample": _cmd_sample,
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "adversary": _cmd_adversary,
    "mdp": _cmd_mdp,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InconsistencyError as exc:
        print(f"inconsistency error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
