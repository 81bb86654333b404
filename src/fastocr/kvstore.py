"""Token position registry and the per-layer append-only key/value cache.

``TokenRegistry`` holds the position facts that live decoding and trace
replay share: each registered position's token type and, per layer, which
positions are tombstoned. ``SessionCache`` adds the per-layer key/value
store on top; replay's ``tracelab.LogicalCache`` is the registry alone.

The fixation policy never shrinks the cache; physical eviction exists only for
the baseline policies and is implemented as per-layer tombstoning so position
indices stay stable for metrics and traces. A registry that was not created
with ``eviction_allowed=True`` refuses to evict.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np


class PolicyContractViolation(RuntimeError):
    """Raised when a policy calls an operation its contract forbids."""


class TokenType(IntEnum):
    IMAGE = 0
    TEXT = 1


class TokenRegistry:
    """Typed sequence positions with per-layer tombstones, for L layers."""

    _INITIAL_CAPACITY = 64

    def __init__(self, num_layers: int, eviction_allowed: bool = False):
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.num_layers = num_layers
        self.eviction_allowed = eviction_allowed
        cap = self._INITIAL_CAPACITY
        self._types = np.empty(cap, dtype=np.int8)
        self._num_tokens = 0
        # tombstones, per layer; a dead position is excluded from every view
        self._dead = [np.zeros(cap, dtype=bool) for _ in range(num_layers)]

    def __len__(self) -> int:
        return self._num_tokens

    def register_token(self, token_type: TokenType) -> int:
        """Register the next sequence position; must precede per-layer appends."""
        pos = self._num_tokens
        if pos == self._types.shape[0]:
            self._grow()
        self._types[pos] = int(token_type)
        self._num_tokens += 1
        return pos

    def _grow(self):
        cap = self._types.shape[0] * 2
        types = np.empty(cap, dtype=np.int8)
        types[: self._num_tokens] = self._types[: self._num_tokens]
        self._types = types
        for l in range(self.num_layers):
            dead = np.zeros(cap, dtype=bool)
            dead[: len(self._dead[l])] = self._dead[l]
            self._dead[l] = dead

    def token_type(self, pos: int) -> TokenType:
        if not 0 <= pos < self._num_tokens:
            raise IndexError(f"position {pos} not registered")
        return TokenType(self._types[pos])

    @property
    def n_img(self) -> int:
        """Number of registered image tokens (FastOCR never evicts, so this is |I|)."""
        return int(np.count_nonzero(self._types[: self._num_tokens] == int(TokenType.IMAGE)))

    def _check_layer(self, layer: int):
        if not 0 <= layer < self.num_layers:
            raise IndexError(f"layer {layer} out of range [0, {self.num_layers})")

    def layer_len(self, layer: int) -> int:
        """Positions that exist at a layer; the registry has every one at every layer."""
        self._check_layer(layer)
        return self._num_tokens

    # -- views ---------------------------------------------------------------

    def live_positions(self, layer: int = 0) -> np.ndarray:
        """Positions of the layer not tombstoned, ascending."""
        n = self.layer_len(layer)
        return np.nonzero(~self._dead[layer][:n])[0].astype(np.int64)

    def _typed_positions(self, token_type: TokenType, layer: int) -> np.ndarray:
        # registry-scoped: mid-step, a registered token counts before its
        # per-layer appends land (kept sets must already include it)
        self._check_layer(layer)
        n = self._num_tokens
        pos = np.nonzero(self._types[:n] == int(token_type))[0].astype(np.int64)
        return pos[~self._dead[layer][pos]]

    def image_positions(self, layer: int = 0) -> np.ndarray:
        return self._typed_positions(TokenType.IMAGE, layer)

    def text_positions(self, layer: int = 0) -> np.ndarray:
        return self._typed_positions(TokenType.TEXT, layer)

    # -- physical eviction (baselines only) -----------------------------------

    def evict(self, positions, layers=None):
        """Permanently tombstone positions at the given layers (default: all).

        Only baseline policies may evict; the fixation policy's cache is
        created with eviction disabled and any attempt errors.
        """
        if not self.eviction_allowed:
            raise PolicyContractViolation("policy contract violation: eviction forbidden")
        pos = np.asarray(list(positions), dtype=np.int64)
        if pos.size == 0:
            return
        if layers is None:
            layers = range(self.num_layers)
        layers = list(layers)
        for l in layers:
            self._check_layer(l)
        if pos.min() < 0 or np.unique(pos).size != pos.size:
            raise ValueError("invalid eviction positions")
        # all-or-nothing: every layer is checked before any is tombstoned
        for l in layers:
            if pos.max() >= self.layer_len(l):
                raise ValueError(f"eviction position beyond layer {l} length")
            if self._dead[l][pos].any():
                raise ValueError("position already evicted")
        for l in layers:
            self._dead[l][pos] = True

    def unreachable_count(self, layer: int = 0) -> int:
        n = self.layer_len(layer)
        return int(np.count_nonzero(self._dead[layer][:n]))


class SessionCache(TokenRegistry):
    """KV cache for one decode session: L layers over a shared token registry.

    A layer's positions are the ones appended to it, so ``live_positions``
    and eviction see a registered token only once its row lands at that layer.
    """

    def __init__(self, num_layers: int, hidden_dim: int, eviction_allowed: bool = False):
        if hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        super().__init__(num_layers, eviction_allowed)
        self.hidden_dim = hidden_dim
        cap = self._types.shape[0]
        self._keys = [np.empty((cap, hidden_dim), dtype=np.float64) for _ in range(num_layers)]
        self._values = [np.empty((cap, hidden_dim), dtype=np.float64) for _ in range(num_layers)]
        self._lens = [0] * num_layers

    def _grow(self):
        # the registry and every layer double together, at registration: a
        # prompt registered before its bulk prefill gets all layer buffers
        # before the prefill's temporaries exist, as fresh pages that stay
        # out of resident memory until rows are written
        super()._grow()
        cap = self._types.shape[0]
        for l in range(self.num_layers):
            n = self._lens[l]
            for store in (self._keys, self._values):
                grown = np.empty((cap, self.hidden_dim), dtype=np.float64)
                grown[:n] = store[l][:n]
                store[l] = grown

    def layer_len(self, layer: int) -> int:
        self._check_layer(layer)
        return self._lens[layer]

    def append(self, layer: int, key, value):
        """Append one (key, value) pair at a layer for the newest registered token."""
        key = np.asarray(key, dtype=np.float64)
        value = np.asarray(value, dtype=np.float64)
        if key.shape != (self.hidden_dim,) or value.shape != (self.hidden_dim,):
            raise ValueError("key/value dimension mismatch")
        self.extend(layer, key[np.newaxis], value[np.newaxis])

    def extend(self, layer: int, keys, values):
        """Append (m, h) key/value rows at a layer for the next m registered tokens."""
        self._check_layer(layer)
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if keys.ndim != 2 or keys.shape[1] != self.hidden_dim or values.shape != keys.shape:
            raise ValueError("key/value dimension mismatch")
        n = self._lens[layer]
        end = n + keys.shape[0]
        if end > self._num_tokens:
            raise RuntimeError("register_token must precede per-layer appends")
        self._keys[layer][n:end] = keys
        self._values[layer][n:end] = values
        self._lens[layer] = end

    def full_view(self, layer: int):
        """All live entries for a layer in position order."""
        self._check_layer(layer)
        n = self._lens[layer]
        if n == 0:
            raise ValueError(f"layer {layer} is empty")
        if not self._dead[layer][:n].any():
            return self._keys[layer][:n], self._values[layer][:n]
        live = self.live_positions(layer)
        return self._keys[layer][live], self._values[layer][live]

    def gathered_view(self, layer: int, kept):
        """Sub-sequences for a kept set, ascending; kept must be live positions."""
        self._check_layer(layer)
        pos = np.unique(np.asarray(list(kept), dtype=np.int64))
        if pos.size == 0:
            raise ValueError("empty kept set")
        n = self._lens[layer]
        if pos[0] < 0 or pos[-1] >= n:
            raise ValueError(f"stale position in kept set (layer length {n})")
        if self._dead[layer][pos].any():
            raise ValueError("kept set references an evicted position")
        return self._keys[layer][pos], self._values[layer][pos]
