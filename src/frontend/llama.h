/**
 * @file
 * Transformer LLM frontend: builds Relax IR for Llama-family decoder-only
 * models (the paper's nn.Module-like model construction, §5.1). The
 * serving build is one function, `decode_ragged`, compiled once over a
 * symbolic batch, packed token count and KV page pool — so dynamism
 * covers batch size, sequence length and context length at once. The
 * paper figures still run the dense `prefill`/`decode` pair, built
 * separately over the same layer code.
 *
 * The 4-bit quantized variant replaces each weight matmul with the Fig. 9
 * custom decode_q4 tensor program feeding the matmul, exercising
 * cross-level fusion on a real workload.
 */
#ifndef RELAX_FRONTEND_LLAMA_H_
#define RELAX_FRONTEND_LLAMA_H_

#include <string>

#include "ir/module.h"

namespace relax {
namespace frontend {

/** Weight quantization scheme. */
enum class Quant { kF16, kQ4, kQ3 };

/** Decoder-only transformer configuration. */
struct LlamaConfig
{
    std::string name;
    int64_t hiddenSize = 4096;
    int64_t numLayers = 32;
    int64_t numHeads = 32;
    int64_t headDim = 128;
    int64_t ffnSize = 14336;
    int64_t vocabSize = 128256;
    int64_t maxContext = 4096;
    Quant quant = Quant::kF16;
    /** "silu" (Llama) or "gelu" (Gemma). */
    std::string activation = "silu";
    /**
     * When nonzero, the batch dimension is compiled as this constant
     * instead of a symbolic var (used by benches that compile per batch,
     * letting partial library lowering see the GEMM row count; sequence
     * and context lengths stay symbolic).
     */
    int64_t fixedBatch = 0;

    /** Total parameter bytes under the quantization scheme. */
    int64_t weightBytes() const;
    /** KV cache bytes for one sequence position across all layers. */
    int64_t kvBytesPerToken() const;

    static LlamaConfig llama3_8b();
    static LlamaConfig gemma1_1_7b();
    static LlamaConfig qwen2_7b();
    static LlamaConfig llama2_7b();
    static LlamaConfig phi3_mini();
    static LlamaConfig redpajama_3b();
    /** Scaled-down variant for data-mode correctness tests. */
    static LlamaConfig tiny();

    LlamaConfig withQuant(Quant q) const;
};

/**
 * Builds the serving module: one function, the pool-addressed
 * `decode_ragged`.
 *
 *   decode_ragged(ids [1, n], seq_lens [b] i64, cu_fresh [b+1] i64,
 *                 block_table [b, w] i64,
 *                 k_pool_0 [p, h, c, d], v_pool_0, ..., weights...) ->
 *       (logits [1, n, V], k_pool_0', v_pool_0', ...)
 *
 * Every cache access gathers/scatters through the persistent KV page
 * pools (p physical pages of c positions per layer per k/v) via the
 * block table. The n fresh tokens of all b rows travel packed (varlen):
 * row r owns packed positions [cu_fresh[r], cu_fresh[r+1]) and writes
 * them into pool pages starting at its seq_lens[r] offset, so one call
 * mixes n_r = 1 decode steps with prompt-chunk prefills. The returned
 * pools alias the inputs (in-place append) — nothing is allocated or
 * copied per call. The weights are the trailing parameters, in
 * makeLlamaWeights order.
 */
ir::IRModulePtr buildLlama(const LlamaConfig& config);

/**
 * Builds the dense per-call cache pair the paper-figure harness
 * compiles, with the same trailing weight parameters as `decode_ragged`:
 *
 *   prefill(ids [b, n], weights...) ->
 *       (logits [b, n, V], k_0 [b, h, n, d], v_0, ..., k_L-1, v_L-1)
 *   decode(ids [b, 1], k_0 [b, h, m, d], v_0, ..., weights...) ->
 *       (logits [b, 1, V], k_0' [b, h, m+1, d], v_0', ...)
 */
ir::IRModulePtr buildDenseLlama(const LlamaConfig& config);

/** Creates tensors for `decode_ragged`'s weight parameters, in order
 *  (data or metadata-only). */
std::vector<NDArray> makeLlamaWeights(const LlamaConfig& config,
                                      bool with_data, unsigned seed = 7);

/**
 * makeLlamaWeights for the `decode_ragged` that `module`, built by
 * buildLlama(config), already holds. Read the module before compiling
 * it: ShardPass rewrites the weights' shapes.
 */
std::vector<NDArray> makeLlamaWeights(const ir::IRModulePtr& module,
                                      const LlamaConfig& config,
                                      bool with_data, unsigned seed = 7);

/**
 * Slices full weight tensors into the set that rank `shard` of
 * `num_shards` passes to `sharded`, the ShardPass'd `decode_ragged`
 * (compiled or not): each weight is cut along the one dim whose extent
 * ShardPass divided, rank `shard` taking the shard-th block. A weight
 * whose shape ShardPass left unchanged is shared by handle (weights are
 * read-only). Metadata-only weights slice shape-only. One shard returns
 * `full` as it is. Otherwise throws RuntimeError when a divided extent
 * times `num_shards` is not the full extent.
 */
std::vector<NDArray> shardLlamaWeights(const ir::Function& sharded,
                                       const std::vector<NDArray>& full,
                                       int shard, int num_shards);

} // namespace frontend
} // namespace relax

#endif // RELAX_FRONTEND_LLAMA_H_
