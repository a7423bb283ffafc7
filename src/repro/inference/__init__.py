"""Layer-wise inference engine with a versioned embedding cache.

The paper's two-stage procedure (embed all nodes -> K-Means -> Hungarian
alignment) makes cheap, repeated full-node embedding the backbone of
OpenIMA and every two-stage baseline.  This package bounds that cost in two
orthogonal ways:

* :class:`LayerwiseInference` — the one no-grad forward of every encoder
  (``encoder.embed``): deterministic all-node embeddings computed layer by
  layer in node chunks (GCN and GAT), never building an autodiff graph;
  parity with the autodiff ``forward`` at 1e-8.
* :class:`EmbeddingCache` / :class:`ParamVersion` — reuse one embedding pass
  across pseudo-label refresh, evaluation, and prediction while the encoder
  parameters are unchanged (the version counter is bumped by every
  optimizer step and ``load_state_dict``, so stale reuse is impossible).

:class:`InferenceEngine` combines both behind
:class:`repro.core.config.InferenceConfig` (``chunk_size``, ``cache``,
``partial_refresh``, ``partial_threshold``) and is threaded through
``TrainerConfig`` -> ``GraphTrainer`` -> ``repro.api.OpenWorldClassifier``
-> the ``repro embed``, ``repro predict`` and ``repro serve`` CLI
subcommands.
"""

# Local modules first: repro.core.trainer does `from ..inference import
# InferenceEngine` while repro.core is initializing, so the engine must be
# bound on this package before the re-export below touches repro.core.
from .cache import EmbeddingCache, ParamVersion
from .engine import InferenceEngine
from .layerwise import DEFAULT_CHUNK_SIZE, LayerwiseInference

from ..core.config import InferenceConfig  # after-docstring import kept below the lazy-import machinery

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "EmbeddingCache",
    "InferenceConfig",
    "InferenceEngine",
    "LayerwiseInference",
    "ParamVersion",
]
