"""Command-line orchestration: config parsing, experiment execution, reporting.

Subcommands: ``flops``, ``run``, ``compare``, ``profile``, ``replay``.
Exit codes: 0 success, 1 user/config error, 2 internal invariant violation.
``FASTOCR_LOG`` (quiet|info|debug) controls stderr verbosity only.

Config files are line-oriented ``key = value`` text with dotted section keys,
``#`` comments, and no nesting; see the README for the full key reference.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import flops as flops_mod
from .baselines import FastVConfig, FastVPolicy, H2OConfig, H2OPolicy
from .metrics import (SCOPE_NOTE, atomic_write_text, emit_report, focal_layer_frequency,
                      kept_set_jaccard, prefix_agreement, ratio_rows, report_json,
                      token_match_rate, validate_report)
from .model import (DEFAULT_DECODE_STEPS, DEFAULT_IMAGE_TOKENS, DEFAULT_PROMPT_TOKENS,
                    DecodeSession, ModelConfig, init_model, prompt_token_ids)
from .policy import FixationConfig, FixationPolicy, InvariantViolation, VanillaPolicy
from .tracelab import (PlantedConfig, TraceParseError, generate_trace, planted_trace_file,
                       read_trace, replay, toy_trace_file, write_trace)

log = logging.getLogger("fastocr")

FASTV_ADAPTATION_NOTE = ("fastv adaptation: eviction fires at the first decode step from "
                         "that step's layer-K attention and applies to layers >= K")
CSFR_FLOPS_NOTE = ("fallback full layer-0 passes are excluded from the analytic cost model "
                   "(amortized to zero); measured breakdowns count them when they run")
# fastocr hyperparameters: (config key suffix and replay flag, FixationConfig field, type);
# their defaults are the FixationConfig field defaults
_FIXATION_PARAMS = (("rho", "focal_layer_ratio", float), ("gap", "focal_gap", int),
                   ("kappa", "kept_token_ratio", float), ("warmup", "warmup_steps", int))


class ConfigError(ValueError):
    """User or config error; maps to exit code 1."""


def _setup_logging():
    level = {"quiet": logging.WARNING, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("FASTOCR_LOG", "quiet"), logging.WARNING)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("[%(levelname)s] %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)


# -- config file ------------------------------------------------------------------


def parse_config(path: str) -> dict:
    """Flat dict from a `key = value` file; keys keep their dotted form."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    out: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _get(cfg: dict, key: str, conv, default=None, required: bool = False):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing config key: {key}")
        return default
    try:
        return conv(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {cfg[key]!r} ({exc})") from exc


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _model_config(cfg: dict, seed: int) -> ModelConfig:
    try:
        return ModelConfig(
            num_layers=_get(cfg, "model.layers", int, 8),
            hidden_dim=_get(cfg, "model.hidden", int, 64),
            num_heads=_get(cfg, "model.heads", int, 4),
            vocab_size=_get(cfg, "model.vocab", int, 256),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _planted_config(cfg: dict, seed: int) -> PlantedConfig:
    focal = _get(cfg, "planted.focal_layers", _int_list, required=True)
    try:
        return PlantedConfig(
            num_layers=_get(cfg, "planted.layers", int, required=True),
            num_image_tokens=_get(cfg, "planted.image_tokens", int, required=True),
            num_text_tokens=_get(cfg, "planted.text_tokens", int, required=True),
            focal_like_layers=tuple(focal),
            num_steps=_get(cfg, "planted.steps", int, required=True),
            seed=seed,
            image_mass_focal=_get(cfg, "planted.mu_focal", float, 0.422),
            image_mass_nonfocal=_get(cfg, "planted.mu_nonfocal", float, 0.143),
            window_center=_get(cfg, "planted.center", float, 0.0),
            window_sigma=_get(cfg, "planted.sigma", float, 3.0),
            drift=_get(cfg, "planted.drift", float, 0.0),
            noise=_get(cfg, "planted.noise", float, 0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _policy_params(cfg: dict, name: str) -> dict:
    """Policy hyperparameters from the flat config, by policy name."""
    if name == "vanilla":
        return {}
    if name == "fastocr":
        force = cfg.get("policy.force_focal")
        params = {key: _get(cfg, f"policy.{key}", conv, getattr(FixationConfig, field))
                  for key, field, conv in _FIXATION_PARAMS}
        if force is not None:
            params["force_focal"] = force.strip()
        return params
    if name == "fastv":
        return {
            "prune_layer": _get(cfg, "policy.fastv_layer", int, required=True),
            "prune_ratio": _get(cfg, "policy.fastv_ratio", float, required=True),
        }
    if name == "h2o":
        return {"retain_ratio": _get(cfg, "policy.h2o_ratio", float, required=True)}
    raise ConfigError(f"unknown policy name: {name!r}")


def build_policy(name: str, params: dict, num_layers: int):
    try:
        if name == "vanilla":
            return VanillaPolicy(num_layers)
        if name == "fastocr":
            force = params.get("force_focal")
            if force == "all":
                forced = tuple(range(num_layers))
            elif force is not None:
                forced = tuple(_int_list(force))
            else:
                forced = None
            fc = FixationConfig(force_focal_layers=forced,
                                **{field: params[key] for key, field, _ in _FIXATION_PARAMS})
            return FixationPolicy(fc, num_layers)
        if name == "fastv":
            return FastVPolicy(FastVConfig(prune_layer=params["prune_layer"],
                                           prune_ratio=params["prune_ratio"]), num_layers)
        if name == "h2o":
            return H2OPolicy(H2OConfig(retain_ratio=params["retain_ratio"]), num_layers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown policy name: {name!r}")


# -- single-seed execution -----------------------------------------------------------


def run_one_seed(cfg: dict, policy_name: str, params: dict, seed: int,
                 instrumented: bool, record_trace: bool = False):
    """Run one seed of the configured workload; returns (records, extras)."""
    kind = cfg.get("workload.kind", "toy")
    steps = _get(cfg, "run.steps", int, DEFAULT_DECODE_STEPS)
    if steps < 1:
        raise ConfigError("run.steps must be >= 1")
    if record_trace and kind != "toy":
        raise ConfigError("output.trace requires workload.kind = toy")
    if kind == "toy":
        mc = _model_config(cfg, seed)
        policy = build_policy(policy_name, params, mc.num_layers)
        weights = init_model(mc)
        n_img = _get(cfg, "workload.image_tokens", int, DEFAULT_IMAGE_TOKENS)
        prompt = _get(cfg, "workload.prompt", _int_list, None)
        if prompt is None:
            n_txt = _get(cfg, "workload.text_tokens", int, DEFAULT_PROMPT_TOKENS)
            prompt = prompt_token_ids(seed, n_txt, mc.vocab_size)
        try:
            session = DecodeSession(weights, policy, instrumented=instrumented,
                                    record_trace=record_trace)
            session.prefill(n_img, prompt)
            session.generate(steps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return session.records, {"policy": policy, "session": session,
                                 "sequence": list(session.generated),
                                 "hidden": mc.hidden_dim}
    if kind == "planted":
        return _replay(planted_trace_file(generate_trace(_planted_config(cfg, seed))),
                       policy_name, params, instrumented)
    if kind == "trace":
        path = cfg.get("workload.trace_path")
        if not path:
            raise ConfigError("workload.kind=trace requires workload.trace_path")
        return _replay(_read_trace_checked(path), policy_name, params, instrumented)
    raise ConfigError(f"unknown workload.kind: {kind!r}")


def _replay(trace, policy_name: str, params: dict, collect_oracle: bool):
    """Replay a trace under a new policy; returns (records, extras) as run_one_seed does."""
    policy = build_policy(policy_name, params, trace.num_layers)
    try:
        records = replay(trace, policy, collect_oracle=collect_oracle)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return records, {"policy": policy, "hidden": None}


def _run_seeds(cfg: dict, policy_name: str, params: dict, seeds: list, instrumented: bool,
               trace_out: str | None = None) -> dict:
    """Run one policy over every seed; the first seed's session is written to trace_out."""
    res = {"params": params, "records": {}, "policies": {}, "sequences": {}, "hidden": None}
    for i, seed in enumerate(seeds):
        record_trace = bool(trace_out) and i == 0
        records, extras = run_one_seed(cfg, policy_name, params, seed, instrumented,
                                       record_trace=record_trace)
        res["records"][seed] = records
        res["policies"][seed] = extras["policy"]
        res["hidden"] = extras["hidden"]
        if "sequence" in extras:
            res["sequences"][seed] = extras["sequence"]
        if record_trace:
            write_trace(toy_trace_file(extras["session"]), trace_out)
    return res


def _read_trace_checked(path: str):
    try:
        return read_trace(path)
    except (OSError, TraceParseError) as exc:
        raise ConfigError(f"cannot read trace: {exc}") from exc


# -- report assembly ----------------------------------------------------------------


def _focal_section(per_seed_policies: dict) -> dict:
    num_layers = next(iter(per_seed_policies.values())).num_layers
    sets = {}
    for seed, policy in per_seed_policies.items():
        fs = getattr(policy, "focal_set", None)
        sets[str(seed)] = list(fs.layers) if fs is not None else []
    if any(sets.values()):
        freq, counts, mean_size = focal_layer_frequency(list(sets.values()), num_layers)
    else:
        freq, counts, mean_size = [0.0] * num_layers, [0] * num_layers, 0.0
    return {"per_seed": sets, "frequency": freq, "counts": counts, "mean_size": mean_size}


def _flops_section(per_seed_records: dict, hidden: int | None) -> dict:
    if hidden is None:
        return {"note": "replay workloads carry no arithmetic; no FLOPs measured"}
    measured = {}
    vanilla_equiv = {}
    for seed, records in per_seed_records.items():
        br = flops_mod.measured_breakdown(records, hidden)
        measured[str(seed)] = br.mean_per_step
        full = 0
        for rec in records:
            context = max(int(c.max()) + 1 for c in rec.kept if len(c))
            full += len(rec.modes) * flops_mod.layer_attention_flops(hidden, context)
        vanilla_equiv[str(seed)] = full / len(records) if records else 0.0
    mean = sum(measured.values()) / len(measured)
    mean_vanilla = sum(vanilla_equiv.values()) / len(vanilla_equiv)
    return {
        "mean_per_step": mean,
        "mean_per_step_g": flops_mod.format_g(mean),
        "vanilla_equivalent_per_step": mean_vanilla,
        "reduction_vs_vanilla": 1.0 - mean / mean_vanilla if mean_vanilla else 0.0,
        "per_seed_mean_per_step": measured,
        "cost_model_note": CSFR_FLOPS_NOTE,
    }


def _attention_section(per_seed_records: dict, instrumented: bool) -> dict:
    num_layers = len(next(iter(per_seed_records.values()))[0].modes)
    ratio_sum = np.zeros(num_layers)
    ratio_n = 0
    recall_vals = []
    jaccards = []
    for records in per_seed_records.values():
        prev_f = None
        for rec in records:
            ratio_sum += np.asarray(rec.ratios)
            ratio_n += 1
            if instrumented and rec.oracle_recall is not None:
                recall_vals.extend(r for r in rec.oracle_recall if r is not None)
            if rec.f_last is not None:
                if prev_f is not None:
                    jaccards.append(kept_set_jaccard(prev_f, rec.f_last))
                prev_f = rec.f_last
    out = {
        "mean_ratio_per_layer": list(ratio_sum / ratio_n),
        "ratios_are_proxy": True,
    }
    if instrumented:
        out["mean_recall"] = float(np.mean(recall_vals)) if recall_vals else None
        out["recall_is_proxy"] = True
    if jaccards:
        out["fixation_jaccard_mean"] = float(np.mean(jaccards))
    return out


def _meta(command: str, cfg: dict, policy_name: str, params: dict, seeds: list,
          instrumented: bool, notes: list) -> dict:
    return {
        "command": command,
        "policy": policy_name,
        "policy_params": params,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "seeds": list(seeds),
        "instrumented": instrumented,
        "backend": "numpy",
        "notes": notes,
        "scope_note": SCOPE_NOTE,
    }


def _write_report(meta: dict, sequence: dict, attention: dict, flops: dict, focal: dict,
                  path: str | None):
    """Validate the five report sections, then write them to path or print them."""
    report = {"meta": meta, "sequence_metrics": sequence, "attention_metrics": attention,
              "flops": flops, "focal_layers": focal}
    if path:
        emit_report(report, "json", path)  # validates before writing
        print(f"report written: {path}")
    else:
        validate_report(report)
        print(report_json(report), end="")


# -- subcommands -----------------------------------------------------------------------


def cmd_flops(args) -> int:
    cfg = flops_mod.FlopsConfig(batch=args.batch, layers=args.layers, hidden=args.hidden,
                                context=args.seqlen)
    if args.policy == "fastocr":
        if args.n_focal is None or args.s_pruned is None:
            raise ConfigError("--policy fastocr requires --n-focal and --s-pruned")
        br = flops_mod.fastocr_flops(args.batch, args.layers, args.hidden, args.seqlen,
                                     args.n_focal, args.s_pruned)
        total = br.total
        print(f"policy=fastocr n_focal={args.n_focal} s_pruned={args.s_pruned}")
    else:
        total = flops_mod.attention_flops(cfg)
        print("policy=vanilla")
    print(f"flops={total}")
    print(f"flops_g={flops_mod.format_g(total)}")
    return 0


def _seeds(cfg: dict) -> list:
    seeds = _get(cfg, "run.seeds", _int_list, [0])
    if not seeds:
        raise ConfigError("run.seeds must be non-empty")
    return seeds


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    policy_name = cfg.get("policy.name", "vanilla")
    params = _policy_params(cfg, policy_name)
    seeds = _seeds(cfg)
    instrumented = _get(cfg, "run.instrumented", _bool, False)
    notes = []
    if policy_name == "fastv":
        notes.append(FASTV_ADAPTATION_NOTE)
    if policy_name == "fastocr" and params["warmup"] == 0:
        notes.append("warmup=0: focal selection has no decode statistics")
    res = _run_seeds(cfg, policy_name, params, seeds, instrumented, cfg.get("output.trace"))
    _write_report(_meta("run", cfg, policy_name, params, seeds, instrumented, notes),
                  {"sequences": {str(s): seq for s, seq in res["sequences"].items()},
                   "proxy_note": "sequences feed agreement metrics in compare runs"},
                  _attention_section(res["records"], instrumented),
                  _flops_section(res["records"], res["hidden"]),
                  _focal_section(res["policies"]), cfg.get("output.report"))
    return 0


def cmd_compare(args) -> int:
    cfg = parse_config(args.config)
    names = _get(cfg, "compare.policies", lambda s: [x.strip() for x in s.split(",")],
                 required=True)
    if "vanilla" in names:
        names = [n for n in names if n != "vanilla"]
    seeds = _seeds(cfg)
    instrumented = _get(cfg, "run.instrumented", _bool, False)
    if cfg.get("workload.kind", "toy") != "toy":
        raise ConfigError("compare requires workload.kind = toy (sequence agreement)")

    all_policies = ["vanilla"] + names
    results = {name: _run_seeds(cfg, name, _policy_params(cfg, name), seeds, instrumented)
               for name in all_policies}

    vanilla_seq = results["vanilla"]["sequences"]
    seq_section, attn_section, flops_section = {}, {}, {}
    vanilla_flops = _flops_section(results["vanilla"]["records"], results["vanilla"]["hidden"])
    for name in all_policies:
        res = results[name]
        agreements = {str(s): prefix_agreement(vanilla_seq[s], res["sequences"][s])
                      for s in seeds}
        matches = {str(s): token_match_rate(vanilla_seq[s], res["sequences"][s])
                   for s in seeds}
        seq_section[name] = {
            "prefix_agreement_mean": sum(agreements.values()) / len(seeds),
            "token_match_rate_mean": sum(matches.values()) / len(seeds),
            "prefix_agreement_per_seed": agreements,
            "token_match_rate_per_seed": matches,
            "proxy_for": "decode-level fidelity (desk-scale proxy, not benchmark accuracy)",
        }
        attn_section[name] = _attention_section(res["records"], instrumented)
        fl = _flops_section(res["records"], res["hidden"])
        fl["speedup_vs_vanilla"] = (vanilla_flops["mean_per_step"] / fl["mean_per_step"]
                                    if fl["mean_per_step"] else None)
        flops_section[name] = fl

    notes = [FASTV_ADAPTATION_NOTE] if "fastv" in names else []
    fastocr_policies = results.get("fastocr", {}).get("policies", {})
    _write_report(_meta("compare", cfg, ",".join(all_policies),
                        {n: results[n]["params"] for n in all_policies}, seeds,
                        instrumented, notes),
                  seq_section, attn_section, flops_section,
                  _focal_section(fastocr_policies) if fastocr_policies else {"per_seed": {}},
                  cfg.get("output.report"))
    _print_compare_table(all_policies, seq_section, flops_section)
    return 0


def _print_compare_table(names, seq_section, flops_section):
    print(f"{'policy':<10} {'prefix':>8} {'match':>8} {'flops/step (G)':>15} {'speedup':>8}")
    for name in names:
        seq = seq_section[name]
        fl = flops_section[name]
        speedup = fl.get("speedup_vs_vanilla")
        print(f"{name:<10} {seq['prefix_agreement_mean']:>8.4f} "
              f"{seq['token_match_rate_mean']:>8.4f} "
              f"{fl['mean_per_step'] / 1e9:>15.4f} "
              f"{speedup if speedup is None else f'{speedup:.2f}x':>8}")


def cmd_profile(args) -> int:
    cfg = parse_config(args.config)
    policy_name = cfg.get("policy.name", "fastocr")
    seeds = _seeds(cfg)
    res = _run_seeds(cfg, policy_name, _policy_params(cfg, policy_name), seeds,
                     instrumented=True)
    csv_path = cfg.get("output.ratios_csv")
    if not csv_path:
        raise ConfigError("profile requires output.ratios_csv")
    first = res["records"][seeds[0]]
    emit_report({"ratio_rows": ratio_rows(first)}, "csv", csv_path)
    print(f"ratio csv written: {csv_path} ({len(first) * len(first[0].modes)} rows)")
    freq_path = cfg.get("output.frequency_json")
    if freq_path:
        section = _focal_section(res["policies"])
        section["runs"] = len(seeds)
        atomic_write_text(freq_path, json.dumps(section, indent=2) + "\n")
        print(f"focal frequency written: {freq_path}")
    return 0


def cmd_replay(args) -> int:
    trace = _read_trace_checked(args.trace)
    params: dict = {}
    if args.policy == "fastocr":
        params = {key: getattr(args, key) for key, _, _ in _FIXATION_PARAMS}
        if args.force_focal:
            params["force_focal"] = args.force_focal
    elif args.policy == "fastv":
        if args.fastv_layer is None or args.fastv_ratio is None:
            raise ConfigError("--policy fastv requires --fastv-layer and --fastv-ratio")
        params = {"prune_layer": args.fastv_layer, "prune_ratio": args.fastv_ratio}
    elif args.policy == "h2o":
        if args.h2o_ratio is None:
            raise ConfigError("--policy h2o requires --h2o-ratio")
        params = {"retain_ratio": args.h2o_ratio}
    records, extras = _replay(trace, args.policy, params, collect_oracle=True)
    _write_report(_meta("replay", {"trace": args.trace}, args.policy, params, ["trace"],
                        True, []),
                  {"note": "replay has no generated sequence"},
                  _attention_section({"trace": records}, True),
                  _flops_section({"trace": records}, None),
                  _focal_section({"trace": extras["policy"]}), args.report)
    return 0


# -- entry point -------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fastocr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flops", help="print the self-attention FLOPs cost model")
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--hidden", type=int, required=True)
    p.add_argument("--seqlen", type=int, required=True)
    p.add_argument("--policy", choices=["vanilla", "fastocr"], default="vanilla")
    p.add_argument("--n-focal", type=int, default=None)
    p.add_argument("--s-pruned", type=int, default=None)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("run", help="run one policy over the configured seeds")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="side-by-side vanilla + policies on identical seeds")
    p.add_argument("config")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("profile", help="instrumented run: ratio CSV + focal frequency JSON")
    p.add_argument("config")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("replay", help="drive a policy with a recorded attention trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--policy", choices=["vanilla", "fastocr", "fastv", "h2o"],
                   default="fastocr")
    for key, field, conv in _FIXATION_PARAMS:
        p.add_argument(f"--{key}", type=conv, default=getattr(FixationConfig, field))
    p.add_argument("--force-focal", default=None)
    p.add_argument("--fastv-layer", type=int, default=None)
    p.add_argument("--fastv-ratio", type=float, default=None)
    p.add_argument("--h2o-ratio", type=float, default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
