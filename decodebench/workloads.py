"""The benchmark's workloads and the seeded inputs it makes for them.

Every input the program receives is made here from the ``--seed`` argument:
model seeds and prompts for the live workloads, and a planted-fixation trace
file for replay. The program never sees the seed itself. The same seed gives
the same inputs; rounds within a run draw from ``(seed, round)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WARMUP = 10  # W in every workload; step W+1 freezes the focal set
STEADY_FROM = WARMUP + 2  # step W+1 carries the freeze and the fallback pass


@dataclass(frozen=True)
class LiveWorkload:
    """A `fastocr run` over a toy-model config, one command per round."""

    name: str
    layers: int
    hidden: int
    heads: int
    vocab: int
    image_tokens: int
    text_tokens: int
    steps: int
    sessions_per_command: int  # model seeds in each command's config
    policy: dict = field(default_factory=dict)
    kind = "live"

    def command_inputs(self, seed: int, round_index: int):
        """(model seeds, prompt ids) of one round."""
        rng = np.random.default_rng([seed, round_index])
        seeds = [int(s) for s in rng.integers(0, 2 ** 31, self.sessions_per_command)]
        prompt = [int(t) for t in rng.integers(0, self.vocab, self.text_tokens)]
        return seeds, prompt

    def config_text(self, seeds, prompt, report_path: str) -> str:
        lines = [
            f"model.layers = {self.layers}",
            f"model.hidden = {self.hidden}",
            f"model.heads = {self.heads}",
            f"model.vocab = {self.vocab}",
            "workload.kind = toy",
            f"workload.image_tokens = {self.image_tokens}",
            "workload.prompt = " + ",".join(str(t) for t in prompt),
        ]
        lines += [f"{k} = {v}" for k, v in self.policy.items()]
        lines += [
            f"run.steps = {self.steps}",
            "run.seeds = " + ",".join(str(s) for s in seeds),
            f"output.report = {report_path}",
        ]
        return "\n".join(lines) + "\n"

    @property
    def policy_name(self) -> str:
        return self.policy["policy.name"]


@dataclass(frozen=True)
class ReplayWorkload:
    """A `fastocr replay` of one planted trace file, one command per round."""

    name: str
    layers: int
    image_tokens: int
    text_tokens: int
    steps: int
    rho: float
    kappa: float
    focal_mass: float = 0.422
    other_mass: float = 0.143
    hidden: int = 2048  # paper width, only for the cost model's predicted ratio
    kind = "replay"
    sessions_per_command = 1

    @property
    def focal_count(self) -> int:
        return math.floor(self.rho * self.layers + 1e-9)

    def replay_args(self, trace_path: str, report_path: str) -> list:
        return ["replay", "--trace", trace_path, "--policy", "fastocr",
                "--rho", repr(self.rho), "--gap", "1", "--kappa", repr(self.kappa),
                "--warmup", str(WARMUP), "--report", report_path]


def _fixation(rho: float) -> dict:
    return {"policy.name": "fastocr", "policy.rho": rho, "policy.gap": 1,
            "policy.kappa": 0.05, "policy.warmup": WARMUP}


WORKLOADS = {
    w.name: w for w in (
        LiveWorkload("page_fixation", layers=12, hidden=128, heads=4, vocab=256,
                     image_tokens=1024, text_tokens=16, steps=130, sessions_per_command=1,
                     policy=_fixation(0.25)),
        LiveWorkload("page_fastv", layers=12, hidden=128, heads=4, vocab=256,
                     image_tokens=1024, text_tokens=16, steps=130, sessions_per_command=1,
                     policy={"policy.name": "fastv", "policy.fastv_layer": 2,
                             "policy.fastv_ratio": 0.871}),
        ReplayWorkload("trace_replay", layers=36, image_tokens=1024, text_tokens=16,
                       steps=60, rho=0.1, kappa=0.05),
    )
}


@dataclass
class PlantedTrace:
    weights: np.ndarray  # (steps, layers, Nimg + Ntext), head-averaged rows
    focal_layers: tuple
    layer_mass: np.ndarray  # (layers,) planted image mass of each layer


def planted_trace(w: ReplayWorkload, seed: int) -> PlantedTrace:
    """Drifting Gaussian window of image mass plus uniform noise.

    Focal-like layers carry ``focal_mass`` of each row on image positions,
    the others ``other_mass``; text positions share the rest equally. The
    focal-like layers are at least two apart, so the gap rule (gap=1) can
    select all of them.
    """
    rng = np.random.default_rng([seed, 0x7ACE])
    while True:
        focal = np.sort(rng.choice(w.layers, size=w.focal_count, replace=False))
        if np.all(np.diff(focal) >= 2):
            break
    n = w.image_tokens
    center0 = rng.uniform(0.1 * n, 0.9 * n)
    drift = rng.uniform(-3.0, 3.0)
    sigma = rng.uniform(2.0, 8.0)
    centers = np.clip(center0 + drift * np.arange(w.steps), 0.0, n - 1.0)
    pos = np.arange(n, dtype=np.float64)
    base = np.exp(-((pos[None, :] - centers[:, None]) ** 2) / (2.0 * sigma ** 2))
    base /= base.sum(axis=1, keepdims=True)
    # noise adds about 1/8 to the window's unit mass before normalising
    raw = base[:, None, :] + (0.25 / n) * rng.random((w.steps, w.layers, n))
    dist = raw / raw.sum(axis=2, keepdims=True)
    mass = np.full(w.layers, w.other_mass)
    mass[focal] = w.focal_mass
    weights = np.empty((w.steps, w.layers, n + w.text_tokens))
    weights[:, :, :n] = mass[None, :, None] * dist
    weights[:, :, n:] = ((1.0 - mass) / w.text_tokens)[None, :, None]
    return PlantedTrace(weights=weights, focal_layers=tuple(int(l) for l in focal),
                        layer_mass=mass)


def write_trace_file(w: ReplayWorkload, trace: PlantedTrace, path: str):
    """The line format of the project README; repr() round-trips float64 exactly."""
    with open(path, "w") as f:
        f.write(f"#trace v1 L={w.layers} Nimg={w.image_tokens} "
                f"Ntext={w.text_tokens} source=planted\n")
        for s in range(w.steps):
            for layer in range(w.layers):
                body = ",".join(map(repr, trace.weights[s, layer].tolist()))
                f.write(f"t={s + 1} l={layer} w={body}\n")
