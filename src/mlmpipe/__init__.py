"""Deterministic masked-language-modeling corruption pipeline and analysis suite."""

from .corpus import (PackedDataset, TokenSequence, Vocab, Window, epoch_stream,
                     load_tokens, pack_sequences)
from .masking import (MaskedBlock, MaskingConfig, MaskPlan, effective_rates, generate_blocks,
                      generate_plans, materialize)
from .pmi import NgramCounts, PmiVocabulary, build_vocab, count_ngrams, pmi_score

__all__ = [
    "PackedDataset", "TokenSequence", "Vocab", "Window", "epoch_stream",
    "load_tokens", "pack_sequences",
    "MaskedBlock", "MaskingConfig", "MaskPlan", "effective_rates", "generate_blocks",
    "generate_plans", "materialize",
    "NgramCounts", "PmiVocabulary", "build_vocab", "count_ngrams", "pmi_score",
]

__version__ = "0.1.0"
