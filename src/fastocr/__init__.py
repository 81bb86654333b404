"""Desk-scale decoding engine and simulator for dynamic visual fixation
KV-cache pruning, with physical-eviction baselines, exact FLOPs accounting,
a deterministic toy transformer, and a planted-fixation trace laboratory."""

from .attention import AttentionWeights, HeadConfig, attend_full, attend_gathered, head_average, softmax
from .baselines import (FastVConfig, FastVPolicy, H2OConfig, H2OPolicy, HeavyHitterState,
                        fastv_evict, h2o_retain, h2o_update)
from .flops import (FlopsConfig, PolicyFlopsBreakdown, attention_flops, fastocr_flops,
                    format_g, measured_breakdown)
from .kvstore import PolicyContractViolation, SessionCache, TokenType
from .metrics import (StepRecord, attention_mass_recall, focal_layer_frequency,
                      kept_set_jaccard, prefix_agreement, token_match_rate)
from .model import DecodeSession, ModelConfig, ModelWeights, init_model, prompt_token_ids
from .policy import (FixationConfig, FixationPolicy, FocalSet, FocalTokens, InvariantViolation,
                     PolicyState, VanillaPolicy, WarmupStats, init_step_kept_set,
                     kept_token_count, record_warmup, select_focal_layers, select_focal_tokens)
from .tracelab import (LogicalCache, PlantedConfig, PlantedTrace, TraceFile, TraceParseError,
                       generate_trace, planted_trace_file, read_trace, replay, toy_trace_file,
                       write_trace)

__version__ = "0.1.0"
