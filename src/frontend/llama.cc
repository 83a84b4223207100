/**
 * @file
 * Llama-family model builder: the named configs (llama3_8b ... tiny)
 * with weight/KV-cache byte accounting; buildLlama, which emits the
 * pool-addressed decode_ragged serving function (packed varlen fresh
 * tokens delimited by cu_fresh, persistent KV page pools gathered
 * through the block table, in-place appends) over symbolic batch /
 * sequence / pool variables through the BlockBuilder; and
 * buildDenseLlama, the dense prefill/decode pair of the figure harness.
 * makeLlamaWeights fabricates decode_ragged's weight tensors (optionally
 * metadata-only for timing mode), and shardLlamaWeights slices them to
 * the shapes of a ShardPass'd decode_ragged.
 */
#include "frontend/llama.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "op/ops.h"
#include "op/tir_kernels.h"
#include "shape/block_builder.h"

namespace relax {
namespace frontend {

using namespace ir;
using Var = ir::Var;

int64_t
LlamaConfig::weightBytes() const
{
    int64_t h = hiddenSize, f = ffnSize, v = vocabSize;
    int64_t proj = numHeads * headDim;
    int64_t per_layer_params = 4 * h * proj + 3 * h * f + 2 * h;
    int64_t params = numLayers * per_layer_params + 2 * v * h + h;
    switch (quant) {
      case Quant::kF16: return params * 2;
      case Quant::kQ4: return params / 2 + params / 16; // nibbles + scales
      case Quant::kQ3: return params * 3 / 8 + params / 16;
    }
    return params * 2;
}

int64_t
LlamaConfig::kvBytesPerToken() const
{
    return 2 * numLayers * numHeads * headDim * 2; // k+v, f16
}

LlamaConfig
LlamaConfig::llama3_8b()
{
    LlamaConfig config;
    config.name = "Llama3-8B";
    config.hiddenSize = 4096;
    config.numLayers = 32;
    config.numHeads = 32;
    config.headDim = 128;
    config.ffnSize = 14336;
    config.vocabSize = 128256;
    config.maxContext = 8192;
    return config;
}

LlamaConfig
LlamaConfig::gemma1_1_7b()
{
    LlamaConfig config;
    config.name = "Gemma1.1-7B";
    config.hiddenSize = 3072;
    config.numLayers = 28;
    config.numHeads = 16;
    config.headDim = 256;
    config.ffnSize = 24576;
    config.vocabSize = 256000;
    config.maxContext = 8192;
    config.activation = "gelu";
    return config;
}

LlamaConfig
LlamaConfig::qwen2_7b()
{
    LlamaConfig config;
    config.name = "Qwen2-7B";
    config.hiddenSize = 3584;
    config.numLayers = 28;
    config.numHeads = 28;
    config.headDim = 128;
    config.ffnSize = 18944;
    config.vocabSize = 152064;
    config.maxContext = 8192;
    return config;
}

LlamaConfig
LlamaConfig::llama2_7b()
{
    LlamaConfig config;
    config.name = "Llama2-7B";
    config.hiddenSize = 4096;
    config.numLayers = 32;
    config.numHeads = 32;
    config.headDim = 128;
    config.ffnSize = 11008;
    config.vocabSize = 32000;
    config.maxContext = 4096;
    return config;
}

LlamaConfig
LlamaConfig::phi3_mini()
{
    LlamaConfig config;
    config.name = "Phi3-mini-4k";
    config.hiddenSize = 3072;
    config.numLayers = 32;
    config.numHeads = 32;
    config.headDim = 96;
    config.ffnSize = 8192;
    config.vocabSize = 32064;
    config.maxContext = 4096;
    return config;
}

LlamaConfig
LlamaConfig::redpajama_3b()
{
    LlamaConfig config;
    config.name = "RedPajama-3B";
    config.hiddenSize = 2560;
    config.numLayers = 32;
    config.numHeads = 32;
    config.headDim = 80;
    config.ffnSize = 10240;
    config.vocabSize = 50432;
    config.maxContext = 2048;
    return config;
}

LlamaConfig
LlamaConfig::tiny()
{
    LlamaConfig config;
    config.name = "tiny";
    config.hiddenSize = 8;
    config.numLayers = 2;
    config.numHeads = 2;
    config.headDim = 4;
    config.ffnSize = 16;
    config.vocabSize = 32;
    config.maxContext = 64;
    return config;
}

LlamaConfig
LlamaConfig::withQuant(Quant q) const
{
    LlamaConfig config = *this;
    config.quant = q;
    std::string suffix = q == Quant::kQ4 ? "-q4" : q == Quant::kQ3 ? "-q3"
                                                                    : "";
    config.name += suffix;
    return config;
}

namespace {

/** Which graph function is being constructed. */
enum class FnKind { kPrefill, kDecode, kDecodeRagged };

/** Builder state shared by the functions of one module. */
class LlamaBuilder
{
  public:
    LlamaBuilder(const LlamaConfig& config, IRModulePtr module)
        : config_(config), module_(std::move(module))
    {
        // The benchmark dtype: fp16 weights/activations; q4 packs weights.
        dtype_ = DataType::f16();
    }

    /** Builds one function ("prefill", "decode" or "decode_ragged"). */
    void
    buildFunction(FnKind kind)
    {
        bool is_decode = kind != FnKind::kPrefill;
        ragged_ = kind == FnKind::kDecodeRagged;
        shape::BlockBuilder builder(module_);
        weights_.clear();
        params_.clear();
        seqLens_ = Var();
        cuFresh_ = Var();
        blockTable_ = Var();

        SymVar bvar = var("b");
        PrimExpr b = config_.fixedBatch > 0
                         ? PrimExpr(intImm(config_.fixedBatch))
                         : PrimExpr(bvar);
        // The ragged pool function takes a symbolic fresh-token count n
        // like prefill. In the packed varlen layout n is the TOTAL fresh
        // token count across all b rows (prefill chunks and n=1 decodes
        // packed back to back along one axis), so the data tensors carry
        // a literal batch dimension of 1 and `cu_fresh` delimits rows.
        SymVar n = kind == FnKind::kDecode ? SymVar() : var("n");
        SymVar m = kind == FnKind::kDecode ? var("m") : SymVar();
        PrimExpr seq = kind == FnKind::kDecode ? PrimExpr(intImm(1))
                                               : PrimExpr(n);
        PrimExpr data_b = ragged_ ? PrimExpr(intImm(1)) : b;

        Var ids = makeVar(
            "ids", tensorSInfo({data_b, seq}, DataType::i64()));
        params_.push_back(ids);
        if (ragged_) {
            // Packed varlen page-pool contract: each row's true context
            // length rides in `seq_lens` [b] (a host-side integer tensor,
            // the paper's cross-level dynamism) and doubles as the write
            // offset for the fresh tokens; `cu_fresh` [b+1] holds the
            // cumulative fresh-token offsets that assign packed token i
            // to the row r with cu[r] <= i < cu[r+1] (the FlashAttention
            // varlen idiom — cu_fresh[b] == n); `block_table` [b, w]
            // names the physical pool pages backing each logical block.
            // Page size comes from the pool shape, never from a padded
            // length. seq_lens binds b first, so the [b+1] dim of
            // cu_fresh lowers to an evaluated runtime check.
            seqLens_ = makeVar("seq_lens",
                               tensorSInfo({b}, DataType::i64()));
            params_.push_back(seqLens_);
            cuFresh_ = makeVar(
                "cu_fresh",
                tensorSInfo({relax::add(b, intImm(1))}, DataType::i64()));
            params_.push_back(cuFresh_);
            SymVar w = var("w");
            blockTable_ = makeVar("block_table",
                                  tensorSInfo({b, w}, DataType::i64()));
            params_.push_back(blockTable_);
        }
        // Caches precede weights for decode. The ragged function takes
        // one persistent page-pool tensor [p, h, c, d] per layer per k/v
        // (p pages of c positions), owned by the serving KVCacheManager
        // as VM persistent storage; the legacy dense decode keeps the
        // per-call [b, h, m, d] layout.
        std::vector<Var> k_caches, v_caches;
        if (is_decode) {
            SymVar pool_pages = ragged_ ? var("p") : SymVar();
            SymVar pool_block = ragged_ ? var("c") : SymVar();
            for (int64_t layer = 0; layer < config_.numLayers; ++layer) {
                StructInfo cache_sinfo =
                    ragged_ ? tensorSInfo({pool_pages,
                                           intImm(config_.numHeads),
                                           pool_block,
                                           intImm(config_.headDim)},
                                          dtype_)
                            : tensorSInfo({b, intImm(config_.numHeads), m,
                                           intImm(config_.headDim)},
                                          dtype_);
                k_caches.push_back(makeVar(
                    (ragged_ ? "k_pool" : "k_cache") +
                        std::to_string(layer),
                    cache_sinfo));
                v_caches.push_back(makeVar(
                    (ragged_ ? "v_pool" : "v_cache") +
                        std::to_string(layer),
                    cache_sinfo));
                params_.push_back(k_caches.back());
                params_.push_back(v_caches.back());
            }
        }

        builder.beginDataflowBlock();
        Var embedding = weight("tok_embeddings",
                               {config_.vocabSize, config_.hiddenSize});
        Expr x = builder.emit(op::take(embedding, ids), "embed");

        std::vector<Var> new_k, new_v;
        for (int64_t layer = 0; layer < config_.numLayers; ++layer) {
            x = buildLayer(builder, x, layer, is_decode, data_b, seq,
                           is_decode ? Expr(k_caches[layer]) : Expr(),
                           is_decode ? Expr(v_caches[layer]) : Expr(),
                           &new_k, &new_v);
        }
        Var norm_w = weight("final_norm", {config_.hiddenSize});
        Expr normed = builder.emit(op::rmsNorm(x, norm_w), "final_norm_out");
        Var head = weight("lm_head", {config_.vocabSize,
                                      config_.hiddenSize});
        Var logits = builder.emitOutput(
            matmulWeight(builder, normed, head, "vocab"), "logits");

        // Outputs: logits plus the updated caches.
        std::vector<Expr> outs{logits};
        std::vector<Var> out_caches;
        for (int64_t layer = 0; layer < config_.numLayers; ++layer) {
            outs.push_back(new_k[layer]);
            outs.push_back(new_v[layer]);
        }
        builder.endBlock();

        builder.beginBindingBlock();
        Var result = builder.emitOutput(makeTuple(outs), "result");
        builder.endBlock();

        params_.insert(params_.end(), weights_.begin(), weights_.end());
        Function func = makeFunction(params_, builder.finish(result),
                                     result->structInfo());
        const char* fn_name = kind == FnKind::kPrefill ? "prefill"
                              : ragged_                ? "decode_ragged"
                                                       : "decode";
        if (ragged_ && is_decode) {
            // The serving engine passes each layer's persistent page
            // pool with the intent that the kernel writes through it;
            // donating the pool params licenses InplacePlanPass to alias
            // the KV-append outputs onto them. Weights and token inputs
            // are NOT donated — writing through those is never legal.
            std::string donated;
            for (const auto& cache : k_caches) {
                donated += cache->name + ";";
            }
            for (const auto& cache : v_caches) {
                donated += cache->name + ";";
            }
            if (!donated.empty()) donated.pop_back();
            func->attrs["donatable_params"] = donated;
        }
        module_->addFunction(fn_name, func);
    }

  private:
    /** Declares (or reuses) a named fp16 weight parameter. */
    Var
    weight(const std::string& name, std::vector<int64_t> dims)
    {
        std::vector<PrimExpr> shape;
        for (int64_t d : dims) shape.push_back(intImm(d));
        Var v = makeVar(name, tensorSInfo(std::move(shape), dtype_));
        weights_.push_back(v);
        return v;
    }

    /**
     * x @ W^T for an [out, in] weight; under q4 quantization the weight is
     * stored packed and decoded by the Fig. 9 custom tensor program that
     * fusion later merges into the matmul.
     *
     * `tp` is the Megatron-style tensor-parallel role of the weight —
     * "col" (output-dim split, no communication), "row" (input-dim split,
     * partial sums all-reduced) or "vocab" (output-dim split, results
     * all-gathered) — recorded as a call attribute for ShardPass. The
     * annotation is inert unless the sharding pass runs; quantized
     * weights are not annotated (not shardable yet).
     */
    Expr
    matmulWeight(shape::BlockBuilder& builder, Expr x, Var w,
                 const char* tp = nullptr)
    {
        if (config_.quant == Quant::kF16) {
            ir::Call mm = op::matmul(x, w, /*transpose_b=*/true);
            if (tp) mm->attrs["tp"] = std::string(tp);
            return builder.emit(mm, w->name + "_mm");
        }
        // Quantized: w holds [out, in]; the packed params replace it.
        const auto* tensor = asTensor(w->structInfo());
        int64_t out_dim = *asIntImm((*tensor->shape)[0]);
        int64_t in_dim = *asIntImm((*tensor->shape)[1]);
        // Replace the fp16 weight with the packed params (erase by
        // identity: other weights may have been declared since).
        weights_.erase(std::find(weights_.begin(), weights_.end(), w));
        Var wdata = makeVar(w->name + "_q4data",
                            tensorSInfo({intImm(in_dim),
                                         intImm((out_dim + 7) / 8)},
                                        DataType::u32()));
        Var wscale = makeVar(w->name + "_q4scale",
                             tensorSInfo({intImm(in_dim),
                                          intImm((out_dim + 31) / 32)},
                                         dtype_));
        weights_.push_back(wdata);
        weights_.push_back(wscale);
        std::string kernel_name = module_->uniqueName("decode_q4");
        tir::PrimFunc decode = op::makeDecodeQ4Func(
            kernel_name, intImm(in_dim), intImm(out_dim), dtype_);
        GlobalVar gv = module_->addTIRFunc(decode);
        Expr decoded = builder.emit(
            callTIR(gv, {wdata, wscale},
                    tensorSInfo({intImm(in_dim), intImm(out_dim)}, dtype_)),
            w->name + "_deq");
        return builder.emit(op::matmul(x, decoded), w->name + "_mm");
    }

    Expr
    buildLayer(shape::BlockBuilder& builder, Expr x, int64_t layer,
               bool is_decode, PrimExpr b, PrimExpr seq, Expr k_cache,
               Expr v_cache, std::vector<Var>* new_k,
               std::vector<Var>* new_v)
    {
        std::string prefix = "l" + std::to_string(layer) + "_";
        int64_t h = config_.hiddenSize;
        int64_t heads = config_.numHeads;
        int64_t hd = config_.headDim;
        int64_t proj = heads * hd;

        Var attn_norm_w = weight(prefix + "attn_norm", {h});
        Expr normed = builder.emit(op::rmsNorm(x, attn_norm_w),
                                   prefix + "attn_norm_out");

        auto project = [&](const std::string& name) {
            Var w = weight(prefix + name, {proj, h});
            Expr p = matmulWeight(builder, normed, w, "col");
            // Under tensor parallelism the head axis is the sharded one:
            // each shard reshapes its proj/N columns into heads/N heads.
            ir::Call reshape_call = op::reshape(
                p, makeShapeExpr({b, seq, intImm(heads), intImm(hd)}));
            reshape_call->attrs["tp_dim"] = (int64_t)2;
            Expr reshaped =
                builder.emit(reshape_call, prefix + name + "_r");
            return builder.emit(op::permuteDims(reshaped, {0, 2, 1, 3}),
                                prefix + name + "_t");
        };
        Expr q = project("wq");
        Expr k = project("wk");
        Expr v = project("wv");

        Expr k_full = k, v_full = v;
        if (is_decode && ragged_) {
            // Page-pool append: scatter this call's fresh K/V into the
            // persistent pool pages named by the block table at each
            // sequence's own length offset. The frontend emits a plain
            // DPS call; InplacePlanPass proves the pool argument is dead
            // (it is donated and never read again) and rewrites the site
            // with `inplace_arg = 0`, so the append allocates nothing and
            // copies nothing — the zero-relayout contract of the serving
            // path — without any hand-placed aliasing attribute here.
            const auto* cache_info = asTensor(k_cache->structInfo());
            Call k_append = callDPSLibrary(
                "kv.append_ragged",
                {k_cache, k, seqLens_, cuFresh_, blockTable_},
                tensorSInfo(*cache_info->shape, dtype_));
            k_append->attrs["tp_dim"] = (int64_t)1; // pool head axis
            k_full = builder.emit(k_append, prefix + "k_full");
            Call v_append = callDPSLibrary(
                "kv.append_ragged",
                {v_cache, v, seqLens_, cuFresh_, blockTable_},
                tensorSInfo(*cache_info->shape, dtype_));
            v_append->attrs["tp_dim"] = (int64_t)1;
            v_full = builder.emit(v_append, prefix + "v_full");
        } else if (is_decode) {
            // Paged KV-cache append (runtime library, in-place semantics):
            // avoids copying the whole cache per step like a functional
            // concat would.
            const auto* cache_info = asTensor(k_cache->structInfo());
            PrimExpr m_plus = relax::add((*cache_info->shape)[2], intImm(1));
            StructInfo appended = tensorSInfo(
                {b, intImm(heads), m_plus, intImm(hd)}, dtype_);
            k_full = builder.emit(
                callDPSLibrary("kv.append", {k_cache, k}, appended),
                prefix + "k_full");
            v_full = builder.emit(
                callDPSLibrary("kv.append", {v_cache, v}, appended),
                prefix + "v_full");
        }
        new_k->push_back(builder.emitOutput(k_full, prefix + "k_out"));
        new_v->push_back(builder.emitOutput(v_full, prefix + "v_out"));

        double scale = 1.0 / std::sqrt((double)hd);
        Expr attn = builder.emit(
            ragged_ ? op::attentionRagged(q, new_k->back(), new_v->back(),
                                          seqLens_, cuFresh_, blockTable_,
                                          scale)
                    : op::attention(q, new_k->back(), new_v->back(), scale,
                                    /*causal=*/!is_decode),
            prefix + "attn");
        Expr attn_t = builder.emit(op::permuteDims(attn, {0, 2, 1, 3}),
                                   prefix + "attn_t");
        ir::Call flat_call =
            op::reshape(attn_t, makeShapeExpr({b, seq, intImm(proj)}));
        flat_call->attrs["tp_dim"] = (int64_t)2;
        Expr attn_flat = builder.emit(flat_call, prefix + "attn_flat");
        Var wo = weight(prefix + "wo", {h, proj});
        Expr o = matmulWeight(builder, attn_flat, wo, "row");
        Expr x1 = builder.emit(op::add(x, o), prefix + "resid1");

        Var ffn_norm_w = weight(prefix + "ffn_norm", {h});
        Expr h1 = builder.emit(op::rmsNorm(x1, ffn_norm_w),
                               prefix + "ffn_norm_out");
        Var w_gate = weight(prefix + "w_gate", {config_.ffnSize, h});
        Var w_up = weight(prefix + "w_up", {config_.ffnSize, h});
        Expr gate = matmulWeight(builder, h1, w_gate, "col");
        Expr up = matmulWeight(builder, h1, w_up, "col");
        Expr act = builder.emit(config_.activation == "gelu"
                                    ? op::gelu(gate)
                                    : op::silu(gate),
                                prefix + "act");
        Expr prod = builder.emit(op::multiply(act, up), prefix + "ffn_mul");
        Var w_down = weight(prefix + "w_down", {h, config_.ffnSize});
        Expr down = matmulWeight(builder, prod, w_down, "row");
        return builder.emit(op::add(x1, down), prefix + "resid2");
    }

    LlamaConfig config_;
    IRModulePtr module_;
    DataType dtype_;
    std::vector<Var> weights_;
    std::vector<Var> params_;
    bool ragged_ = false;
    Var seqLens_;   //!< [b] per-sequence context lengths (ragged only)
    Var cuFresh_;   //!< [b+1] cumulative packed fresh offsets (ragged only)
    Var blockTable_; //!< [b, w] paged-KV block table (ragged only)
};

/** A weight parameter's shape; weights have no symbolic dims. */
std::vector<int64_t>
literalShape(const Var& param)
{
    std::vector<int64_t> shape;
    for (const auto& dim : *asTensor(param->structInfo())->shape) {
        shape.push_back(*asIntImm(dim));
    }
    return shape;
}

} // namespace

IRModulePtr
buildLlama(const LlamaConfig& config)
{
    auto module = IRModule::create();
    LlamaBuilder(config, module).buildFunction(FnKind::kDecodeRagged);
    return module;
}

IRModulePtr
buildDenseLlama(const LlamaConfig& config)
{
    auto module = IRModule::create();
    LlamaBuilder builder(config, module);
    builder.buildFunction(FnKind::kPrefill);
    builder.buildFunction(FnKind::kDecode);
    return module;
}

std::vector<NDArray>
makeLlamaWeights(const LlamaConfig& config, bool with_data, unsigned seed)
{
    return makeLlamaWeights(buildLlama(config), config, with_data, seed);
}

std::vector<NDArray>
makeLlamaWeights(const IRModulePtr& module, const LlamaConfig& config,
                 bool with_data, unsigned seed)
{
    Function func = module->getFunction("decode_ragged");
    RELAX_ICHECK(func) << "makeLlamaWeights: no decode_ragged";
    // ids, seq_lens, cu_fresh and block_table, then a k and a v pool per
    // layer; the weights trail.
    size_t first = 4 + 2 * (size_t)config.numLayers;
    RELAX_ICHECK(func->params.size() >= first)
        << "makeLlamaWeights: decode_ragged has too few parameters";
    std::mt19937 rng(seed);
    std::normal_distribution<double> dist(0.0, 0.05);
    std::vector<NDArray> weights;
    for (size_t i = first; i < func->params.size(); ++i) {
        const Var& param = func->params[i];
        const auto* tensor = asTensor(param->structInfo());
        std::vector<int64_t> shape = literalShape(param);
        if (!with_data) {
            weights.push_back(NDArray::metaOnly(shape, tensor->dtype));
            continue;
        }
        NDArray array = NDArray::zeros(shape, tensor->dtype);
        bool is_norm = param->name.find("norm") != std::string::npos;
        bool is_packed = tensor->dtype == DataType::u32();
        for (int64_t j = 0; j < array.numel(); ++j) {
            if (is_norm) {
                array.set(j, 1.0);
            } else if (is_packed) {
                array.set(j, (double)(rng() & 0xFFFFFFFFu));
            } else {
                array.set(j, dist(rng));
            }
        }
        weights.push_back(array);
    }
    return weights;
}

namespace {

/** Slices `count` indices starting at `start` along `dim`. Metadata-only
 *  inputs slice shape-only (timing mode never materializes weights). */
NDArray
sliceDim(const NDArray& src, size_t dim, int64_t start, int64_t count)
{
    std::vector<int64_t> shape = src.shape();
    RELAX_ICHECK(dim < shape.size()) << "sliceDim: dim out of range";
    RELAX_ICHECK(start >= 0 && start + count <= shape[dim])
        << "sliceDim: slice out of range";
    int64_t src_dim = shape[dim];
    shape[dim] = count;
    if (!src.hasData()) return NDArray::metaOnly(shape, src.dtype());
    NDArray out = NDArray::zeros(shape, src.dtype());
    int64_t inner = 1;
    for (size_t d = dim + 1; d < shape.size(); ++d) inner *= shape[d];
    int64_t outer = src.numel() / (src_dim * inner);
    const auto& in = src.data();
    auto& dst = out.data();
    for (int64_t o = 0; o < outer; ++o) {
        for (int64_t c = 0; c < count; ++c) {
            int64_t src_off = (o * src_dim + start + c) * inner;
            int64_t dst_off = (o * count + c) * inner;
            std::copy(in.begin() + src_off, in.begin() + src_off + inner,
                      dst.begin() + dst_off);
        }
    }
    return out;
}

} // namespace

std::vector<NDArray>
shardLlamaWeights(const Function& sharded, const std::vector<NDArray>& full,
                  int shard, int num_shards)
{
    RELAX_ICHECK(num_shards >= 1 && shard >= 0 && shard < num_shards)
        << "shardLlamaWeights: bad shard index " << shard << "/"
        << num_shards;
    // One shard is the whole model: nothing to slice.
    if (num_shards == 1) return full;
    RELAX_ICHECK(sharded->params.size() >= full.size())
        << "shardLlamaWeights: " << full.size() << " weights for "
        << sharded->params.size() << " parameters";
    size_t first = sharded->params.size() - full.size();
    std::vector<NDArray> out;
    out.reserve(full.size());
    for (size_t i = 0; i < full.size(); ++i) {
        const Var& param = sharded->params[first + i];
        std::vector<int64_t> local = literalShape(param);
        const std::vector<int64_t>& dims = full[i].shape();
        RELAX_ICHECK(local.size() == dims.size())
            << "shardLlamaWeights: " << param->name << " rank mismatch";
        size_t axis = 0;
        while (axis < dims.size() && local[axis] == dims[axis]) ++axis;
        if (axis == dims.size()) {
            // Replicated: share the handle — weights are read-only.
            out.push_back(full[i]);
            continue;
        }
        int64_t chunk = local[axis];
        if (chunk * num_shards != dims[axis]) {
            RELAX_THROW(RuntimeError)
                << "shardLlamaWeights: " << param->name << " dim " << axis
                << " (" << dims[axis] << ") not divisible into "
                << num_shards << " shards of " << chunk;
        }
        out.push_back(sliceDim(full[i], axis, shard * chunk, chunk));
    }
    return out;
}

} // namespace frontend
} // namespace relax
