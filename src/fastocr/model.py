"""Deterministic seeded attention decoder for output-agreement experiments.

The stack is attention-only (no FFN, no layer norm, no biases): the pruning
policies touch nothing but attention, and the cost model covers exactly the
Q/K/V/output projections plus the attention product, so a pure-attention
stack maximizes the signal of attention-path divergence between policies.

Prefill runs the image then prompt-text positions through the stack in one
batched causal pass per layer: project q/k/v for every position at once,
append the k/v rows to the layer cache, attend each position over its prefix
(the ``mha_attend_causal`` kernel), and apply the residual update. It agrees
with pushing the tokens one at a time to about 1e-15, not bit for bit: the
products are reduced in a different order. Every policy shares the same
prefill, so the exact identities below are unaffected.

Per decode step the engine samples greedily from the logits of the previously
pushed token, registers the sampled token as text, and pushes it through the
layer stack under the active policy: project q/k/v from the evolving hidden
state, append k/v to the layer cache, attend (full or gathered), and apply the
residual update. The cache therefore grows by exactly one position per step
at every layer, and warmup-phase hidden states match the unpruned decoder
bit for bit.

All weights derive from SplitMix64 (see rng.py) so any reimplementation can
match them exactly. Fill order, one sequential stream seeded with the model
seed: embedding (V x h, row-major), unembedding (h x V), patch embedder
(16 x h), then per layer l = 0..L-1: W_q, W_k, W_v, W_o (each h x h).
Entries are uniform in [-1, 1) scaled by 1/sqrt(h). Synthetic image patch
descriptors come from a second stream seeded with (seed XOR
0xC2B2AE3D27D4EB4F); seed-derived prompt token ids from (seed XOR
0xFF51AFD7ED558CCD).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .attention import HeadConfig, attend_full, attend_gathered
from .kernels import mha_attend_causal
from .kvstore import SessionCache, TokenType
from .metrics import covered_image_recall
from .rng import SplitMix64

log = logging.getLogger("fastocr")

PATCH_DIM = 16
_PATCH_STREAM_SALT = 0xC2B2AE3D27D4EB4F
_PROMPT_STREAM_SALT = 0xFF51AFD7ED558CCD

# desk-scale defaults: every acceptance experiment runs in seconds
DEFAULT_NUM_LAYERS = 8
DEFAULT_HIDDEN_DIM = 64
DEFAULT_NUM_HEADS = 4
DEFAULT_VOCAB_SIZE = 256
DEFAULT_IMAGE_TOKENS = 64
DEFAULT_PROMPT_TOKENS = 8
DEFAULT_DECODE_STEPS = 50


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = DEFAULT_NUM_LAYERS
    hidden_dim: int = DEFAULT_HIDDEN_DIM
    num_heads: int = DEFAULT_NUM_HEADS
    vocab_size: int = DEFAULT_VOCAB_SIZE
    seed: int = 0

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.hidden_dim < 1 or self.num_heads < 1:
            raise ValueError("hidden_dim and num_heads must be >= 1")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError("hidden_dim must be divisible by num_heads")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")

    @property
    def head_config(self) -> HeadConfig:
        return HeadConfig(num_heads=self.num_heads,
                          head_dim=self.hidden_dim // self.num_heads)


@dataclass(frozen=True)
class ModelWeights:
    config: ModelConfig
    embedding: np.ndarray  # (V, h)
    unembedding: np.ndarray  # (h, V)
    patch_embedder: np.ndarray  # (PATCH_DIM, h)
    wq: np.ndarray  # (L, h, h)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray


def init_model(config: ModelConfig) -> ModelWeights:
    """Seed-determined weights; same seed gives bit-identical arrays."""
    stream = SplitMix64(config.seed)
    h, v, L = config.hidden_dim, config.vocab_size, config.num_layers
    scale = 1.0 / math.sqrt(h)
    embedding = stream.symmetric((v, h), scale)
    unembedding = stream.symmetric((h, v), scale)
    patch_embedder = stream.symmetric((PATCH_DIM, h), scale)
    wq = np.empty((L, h, h))
    wk = np.empty((L, h, h))
    wv = np.empty((L, h, h))
    wo = np.empty((L, h, h))
    for l in range(L):
        wq[l] = stream.symmetric((h, h), scale)
        wk[l] = stream.symmetric((h, h), scale)
        wv[l] = stream.symmetric((h, h), scale)
        wo[l] = stream.symmetric((h, h), scale)
    return ModelWeights(config=config, embedding=embedding, unembedding=unembedding,
                        patch_embedder=patch_embedder, wq=wq, wk=wk, wv=wv, wo=wo)


def positional_encoding(pos, hidden_dim: int) -> np.ndarray:
    """Fixed sinusoidal encoding added to token embeddings before the stack.

    ``pos`` is one position, giving an (h,) vector, or an array of n
    positions, giving one row each (n, h).
    """
    pos = np.asarray(pos, dtype=np.float64)[..., np.newaxis]
    pe = np.empty(pos.shape[:-1] + (hidden_dim,))
    idx = np.arange(0, hidden_dim, 2, dtype=np.float64)
    inv_freq = np.power(10000.0, -idx / hidden_dim)
    pe[..., 0::2] = np.sin(pos * inv_freq)
    pe[..., 1::2] = np.cos(pos * inv_freq[: hidden_dim // 2])
    return pe


def prompt_token_ids(seed: int, count: int, vocab_size: int) -> list:
    stream = SplitMix64(seed ^ _PROMPT_STREAM_SALT)
    return [stream.next_u64() % vocab_size for _ in range(count)]


class DecodeSession:
    """One seeded decode session bound to a policy.

    ``instrumented=True`` adds a shadow full-attention pass at every gathered
    layer so attention-mass recall can be measured against the oracle; the
    shadow pass never feeds the residual stream and is excluded from measured
    FLOPs. ``record_trace=True`` collects per-(step, layer) full head-averaged
    weights in the trace-lab layout (requires full weights at every layer, so
    pruning policies must also be instrumented; eviction policies cannot
    record traces).
    """

    def __init__(self, weights: ModelWeights, policy, instrumented: bool = False,
                 record_trace: bool = False):
        self.weights = weights
        self.config = weights.config
        self.policy = policy
        self.instrumented = instrumented
        self.record_trace = record_trace
        if record_trace and policy.requires_eviction:
            raise ValueError("cannot record attention traces under an eviction policy")
        if record_trace and policy.name == "fastocr" and not instrumented:
            raise ValueError("trace recording for a pruning policy requires instrumented=True")
        self.cache = SessionCache(self.config.num_layers, self.config.hidden_dim,
                                  eviction_allowed=policy.requires_eviction)
        self.generated: list = []
        self.records: list = []
        self.logits_log: list = []
        self.trace_rows: list = []  # (step, layer, full head_avg)
        self._pending: np.ndarray | None = None
        self._failed_step: int | None = None
        self._head_cfg = self.config.head_config

    @property
    def t(self) -> int:
        return len(self.generated)

    # -- prefill ---------------------------------------------------------------

    def prefill(self, num_image_tokens: int, prompt_ids):
        """Run image then prompt-text embeddings through all layers, full causal attention.

        All-or-nothing: every input is checked before the first position is
        registered, so a rejected prefill leaves the session empty.
        """
        if len(self.cache) != 0:
            raise RuntimeError("prefill requires a fresh session")
        prompt_ids = list(prompt_ids)
        if not prompt_ids:
            raise ValueError("empty prompt")
        if num_image_tokens < 0:
            raise ValueError(f"num_image_tokens must be >= 0, got {num_image_tokens}")
        for tok in prompt_ids:
            if not 0 <= tok < self.config.vocab_size:
                raise ValueError(f"prompt token id out of range: {tok}")
        if num_image_tokens == 0 and self.policy.name == "fastocr":
            log.warning("no image tokens: the fixation policy degenerates to text-only")
        for _ in range(num_image_tokens):
            self.cache.register_token(TokenType.IMAGE)
        for _ in prompt_ids:
            self.cache.register_token(TokenType.TEXT)
        w = self.weights
        desc = SplitMix64(self.config.seed ^ _PATCH_STREAM_SALT).symmetric(
            (num_image_tokens, PATCH_DIM))
        x = np.concatenate([desc @ w.patch_embedder, w.embedding[prompt_ids]])
        x += positional_encoding(np.arange(len(x)), self.config.hidden_dim)
        for layer in range(self.config.num_layers):
            q, k, v = x @ w.wq[layer], x @ w.wk[layer], x @ w.wv[layer]
            self.cache.extend(layer, k, v)
            x += mha_attend_causal(q, k, v, self.config.num_heads) @ w.wo[layer]
        self._pending = x[-1].copy()

    # -- decoding ----------------------------------------------------------------

    def decode_step(self) -> int:
        """Greedy-sample one token and push it through the stack under the policy.

        A step that raises leaves its token registered and only some layers
        appended, so the session is marked failed and refuses further steps.
        """
        if self._failed_step is not None:
            raise RuntimeError(f"decode step {self._failed_step} failed; "
                               "the session cannot continue")
        if self._pending is None:
            raise RuntimeError("decode_step requires a prefilled session")
        logits = self._pending @ self.weights.unembedding
        self.logits_log.append(logits)
        token = int(np.argmax(logits))  # ties resolve to the lower token id
        self.cache.register_token(TokenType.TEXT)
        x = self.weights.embedding[token] + positional_encoding(len(self.cache) - 1,
                                                                self.config.hidden_dim)
        w = self.weights
        cfg = self._head_cfg
        state = {"x": x}
        oracle_recall: list = []
        step_index = self.t + 1

        def attend_layer(layer, kept):
            xv = state["x"]
            q = xv @ w.wq[layer]
            self.cache.append(layer, xv @ w.wk[layer], xv @ w.wv[layer])
            keys, values = self.cache.full_view(layer)
            covered = self.cache.live_positions(layer)
            oracle_avg = None
            if kept is None:
                out, weights = attend_full(q, keys, values, cfg)
                oracle_avg = weights.head_avg
                if self.instrumented:
                    # after physical eviction the unpruned oracle no longer
                    # exists; recall is only defined on a complete view
                    complete = covered.size == len(self.cache)
                    oracle_recall.append(1.0 if complete else None)
            else:
                if self.instrumented or self.record_trace:
                    _, oracle = attend_full(q, keys, values, cfg)
                    oracle_avg = oracle.head_avg
                out, weights = attend_gathered(q, keys, values, kept, cfg)
                covered = np.asarray(kept, dtype=np.int64)
                if self.instrumented:
                    oracle_recall.append(
                        covered_image_recall(oracle_avg, covered, self.cache, layer))
            if self.record_trace and oracle_avg is not None:
                self.trace_rows.append((step_index, layer, oracle_avg.copy()))
            state["x"] = xv + out @ w.wo[layer]
            return weights.head_avg, covered

        try:
            record = self.policy.run_step(self.cache, attend_layer)
        except BaseException:
            self._failed_step = step_index
            raise
        if self.instrumented:
            record.oracle_recall = oracle_recall
        self.records.append(record)
        self._pending = state["x"]
        self.generated.append(token)
        return token

    def generate(self, n_steps: int) -> list:
        for _ in range(n_steps):
            self.decode_step()
        return list(self.generated)
