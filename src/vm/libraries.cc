/**
 * @file
 * Simulated vendor libraries (the call_dps_library targets of §4.6) and
 * runtime builtins. Each kernel provides a cost model (used by the
 * simulated device clock) and a data-mode implementation that reuses the
 * generated tensor-program kernels through the reference interpreter, so
 * library dispatch is bit-identical to the compiler path.
 *
 * Library cost characteristics mirror the real systems:
 *  - cublas/rocblas/mps GEMMs hit a higher fraction of roofline peak than
 *    compiler-generated kernels (libGemmEfficiency);
 *  - flashattn.attention never materializes the score matrix, so its
 *    memory traffic is only q+k+v+out (the FlashAttention property);
 *  - cutlass fused norms behave like tuned elementwise kernels.
 *
 * No `ccl.*` collective is registered here: a collective needs every
 * shard of its device group, so VirtualMachine::invokeLockstep prices and
 * materializes it at the call site, and reaching one without a group is
 * an error.
 */
#include <algorithm>
#include <cmath>

#include "op/tir_kernels.h"
#include "tir/interpreter.h"
#include "vm/vm.h"

namespace relax {
namespace vm {

namespace {

std::vector<PrimExpr>
staticShape(const NDArray& array)
{
    std::vector<PrimExpr> shape;
    for (int64_t dim : array.shape()) shape.push_back(intImm(dim));
    return shape;
}

double
totalBytes(const std::vector<NDArray>& args)
{
    double bytes = 0;
    for (const auto& a : args) bytes += (double)a.sizeBytes();
    return bytes;
}

double
attrDouble(const ir::Attrs& attrs, const std::string& key, double fallback)
{
    auto it = attrs.find(key);
    return it == attrs.end() ? fallback : std::get<double>(it->second);
}

int64_t
attrInt(const ir::Attrs& attrs, const std::string& key, int64_t fallback)
{
    auto it = attrs.find(key);
    return it == attrs.end() ? fallback : std::get<int64_t>(it->second);
}

void
registerGemm(LibraryRegistry& registry, const std::string& name)
{
    LibraryKernel kernel;
    kernel.cost = [](const std::vector<NDArray>& args, const ir::Attrs&,
                     const device::DeviceSpec& spec) {
        const NDArray& a = args[0];
        const NDArray& out = args.back();
        int64_t k = a.shape().back();
        device::KernelCost cost;
        cost.flops = 2.0 * (double)out.numel() * (double)k;
        cost.bytes = totalBytes(args);
        cost.efficiency = spec.libGemmEfficiency;
        return cost;
    };
    kernel.compute = [](std::vector<NDArray>& args, const ir::Attrs& attrs) {
        bool transpose_b = attrInt(attrs, "transpose_b", 0) != 0;
        tir::PrimFunc func = op::makeMatmulFunc(
            "lib_matmul", staticShape(args[0]), staticShape(args[1]),
            transpose_b, args[0].dtype());
        tir::run(func, args);
    };
    registry.registerKernel(name, kernel);
}

void
registerAttention(LibraryRegistry& registry, const std::string& name)
{
    LibraryKernel kernel;
    kernel.cost = [](const std::vector<NDArray>& args, const ir::Attrs&,
                     const device::DeviceSpec& spec) {
        const auto& q = args[0].shape(); // [b, h, n, d]
        const auto& k = args[1].shape(); // [b, h, m, d]
        device::KernelCost cost;
        cost.flops = 4.0 * (double)q[0] * q[1] * q[2] * k[2] * q[3];
        // IO-aware attention: only q, k, v and out touch device memory.
        cost.bytes = totalBytes(args);
        cost.efficiency = spec.libAttentionEfficiency;
        return cost;
    };
    kernel.compute = [](std::vector<NDArray>& args, const ir::Attrs& attrs) {
        tir::PrimFunc func = op::makeAttentionFunc(
            "lib_attention", staticShape(args[0]), staticShape(args[1]),
            staticShape(args[2]), attrDouble(attrs, "scale", 1.0),
            attrInt(attrs, "causal", 0) != 0, args[0].dtype());
        tir::run(func, args);
    };
    registry.registerKernel(name, kernel);
}

void
registerRaggedAttention(LibraryRegistry& registry, const std::string& name)
{
    // Varlen / paged-KV attention over the persistent page pool
    // (FlashAttention's varlen paged-KV entry point): one launch covers a
    // packed batch q [1, h, n, d] of prefill chunks and single-token
    // decodes with unequal fresh lengths, delimited by the cumulative
    // offsets cu [b+1], gathering keys/values from pool pages
    // [p, h, c, d] through the [b, w] block table. Work is
    // data-dependent — each row prices fresh_i = cu[i+1] - cu[i] queries
    // against its own true context length, both read from host-side
    // integer tensors that carry data even in timing mode — so the cost
    // sums per-row fresh costs, never the padded packed axis or the pool
    // size. Shape padding from a bucketed capture region is benign: the
    // zero-filled tail of cu clamps to fresh 0 and prices nothing.
    LibraryKernel kernel;
    kernel.cost = [](const std::vector<NDArray>& args, const ir::Attrs&,
                     const device::DeviceSpec& spec) {
        const auto& q = args[0].shape();     // [1, h, n, d] packed
        const auto& pool = args[1].shape();  // [p, h, c, d] K pool
        const NDArray& lens = args[3];       // [b] true context lengths
        const NDArray& cu = args[4];         // [b+1] cumulative fresh
        int64_t h = q[1], n = q[2], d = q[3];
        int64_t dv = args[2].shape()[3];
        // Keys range over the mapped table width, not the pool size.
        int64_t m = args[5].shape()[1] * pool[2];
        double query_kv = 0.0;  // sum over rows of fresh_i * kv_i
        double kv_positions = 0.0;
        if (lens.hasData() && cu.hasData()) {
            int64_t rows =
                std::min<int64_t>(lens.numel(), cu.numel() - 1);
            for (int64_t i = 0; i < rows; ++i) {
                // Padded tails are zero-filled, so clamp the differences;
                // phantom rows read fresh 0 and price nothing.
                int64_t fresh = std::max<int64_t>(
                    (int64_t)cu.at(i + 1) - (int64_t)cu.at(i), 0);
                int64_t kv = std::min<int64_t>(
                    (int64_t)lens.at(i) + fresh, m);
                query_kv += (double)fresh * (double)kv;
                if (fresh > 0) kv_positions += (double)kv;
            }
        } else {
            // No host data: every packed query prices the padded worst
            // case of the mapped table width.
            query_kv = (double)n * (double)m;
            kv_positions = (double)lens.numel() * (double)m;
        }
        device::KernelCost cost;
        cost.flops = 2.0 * (double)h * (double)(d + dv) * query_kv;
        // IO-aware: q, out, lens, cu and block table, plus only the
        // gathered live K/V page bytes — the FlashAttention property
        // applied per row; the rest of the pool is never touched.
        cost.bytes = (double)args[0].sizeBytes() +
                     (double)args.back().sizeBytes() +
                     (double)args[3].sizeBytes() +
                     (double)args[4].sizeBytes() +
                     (double)args[5].sizeBytes() +
                     kv_positions * (double)h * (double)(d + dv) *
                         (double)args[1].dtype().bytes();
        cost.efficiency = spec.libAttentionEfficiency;
        return cost;
    };
    kernel.compute = [](std::vector<NDArray>& args, const ir::Attrs& attrs) {
        tir::PrimFunc func = op::makeRaggedAttentionFunc(
            "lib_attention_ragged", staticShape(args[0]),
            staticShape(args[1]), staticShape(args[2]),
            staticShape(args[3]), staticShape(args[4]),
            staticShape(args[5]),
            attrDouble(attrs, "scale", 1.0), args[0].dtype());
        tir::run(func, args);
    };
    registry.registerKernel(name, kernel);
}

void
registerNorms(LibraryRegistry& registry, const std::string& prefix)
{
    LibraryKernel rms;
    rms.cost = [](const std::vector<NDArray>& args, const ir::Attrs&,
                  const device::DeviceSpec& spec) {
        device::KernelCost cost;
        cost.flops = 4.0 * (double)args[0].numel();
        cost.bytes = totalBytes(args);
        cost.efficiency = 0.9;
        return cost;
    };
    rms.compute = [](std::vector<NDArray>& args, const ir::Attrs& attrs) {
        tir::PrimFunc func = op::makeRMSNormFunc(
            "lib_rms_norm", staticShape(args[0]),
            attrDouble(attrs, "eps", 1e-5), args[0].dtype());
        tir::run(func, args);
    };
    registry.registerKernel(prefix + ".rms_norm", rms);

    LibraryKernel ln = rms;
    ln.compute = [](std::vector<NDArray>& args, const ir::Attrs& attrs) {
        tir::PrimFunc func = op::makeLayerNormFunc(
            "lib_layer_norm", staticShape(args[0]),
            attrDouble(attrs, "eps", 1e-5), args[0].dtype());
        tir::run(func, args);
    };
    registry.registerKernel(prefix + ".layer_norm", ln);
}

void
registerKvCache(LibraryRegistry& registry)
{
    // Paged KV-cache append: the runtime appends the new position in
    // place, so only the new token's K/V bytes move (the behavior of the
    // production paged cache the paper's system uses). Data mode realizes
    // the append as a concat so results stay exact.
    LibraryKernel append;
    append.cost = [](const std::vector<NDArray>& args, const ir::Attrs&,
                     const device::DeviceSpec& spec) {
        const NDArray& fresh = args[1]; // [b, h, 1, d]
        device::KernelCost cost;
        cost.bytes = 2.0 * (double)fresh.sizeBytes();
        cost.flops = 0.0;
        cost.efficiency = spec.genElemwiseEfficiency;
        return cost;
    };
    append.compute = [](std::vector<NDArray>& args, const ir::Attrs&) {
        tir::PrimFunc func = op::makeConcatFunc(
            "lib_kv_append",
            {staticShape(args[0]), staticShape(args[1])}, /*axis=*/2,
            args[0].dtype());
        tir::run(func, args);
    };
    registry.registerKernel("kv.append", append);

    // Page-pool packed append (in-place, `inplace_arg = 0`): scatters the
    // packed fresh tokens into the persistent pool at each row's own
    // length offset, addressed through the block table. The DPS output
    // aliases the pool argument, so the call allocates nothing and copies
    // nothing — only the true fresh K/V bytes (summed from the per-row
    // cu spans, plus the integer metadata) move, regardless of the pool
    // size or the padded packed axis. Args: pool, fresh, lens, cu,
    // table, out (== pool).
    LibraryKernel ragged;
    ragged.cost = [](const std::vector<NDArray>& args, const ir::Attrs&,
                     const device::DeviceSpec& spec) {
        const NDArray& fresh = args[1]; // [1, h, n, d] packed
        const NDArray& cu = args[3];    // [b+1] cumulative fresh
        double tokens = (double)fresh.shape()[2]; // padded worst case
        if (cu.hasData()) {
            // Sum of per-row fresh counts; the zero-filled padded tail
            // clamps to zero.
            tokens = 0.0;
            for (int64_t i = 0; i + 1 < cu.numel(); ++i) {
                tokens += (double)std::max<int64_t>(
                    (int64_t)cu.at(i + 1) - (int64_t)cu.at(i), 0);
            }
        }
        double token_bytes = (double)fresh.shape()[1] *
                             (double)fresh.shape()[3] *
                             (double)fresh.dtype().bytes();
        device::KernelCost cost;
        cost.bytes = 2.0 * tokens * token_bytes +
                     (double)args[2].sizeBytes() +
                     (double)args[3].sizeBytes() +
                     (double)args[4].sizeBytes();
        cost.flops = 0.0;
        cost.efficiency = spec.genElemwiseEfficiency;
        return cost;
    };
    ragged.compute = [](std::vector<NDArray>& args, const ir::Attrs&) {
        tir::PrimFunc func = op::makeKvAppendRaggedFunc(
            "lib_kv_append_ragged", staticShape(args[1]),
            staticShape(args[2]), staticShape(args[3]),
            staticShape(args[4]), staticShape(args.back()),
            args[1].dtype());
        // The scatter writes straight into the out tensor, which aliases
        // the pool input — genuine in-place mutation.
        std::vector<NDArray> scatter_args{args[1], args[2], args[3],
                                          args[4], args.back()};
        tir::run(func, scatter_args);
    };
    registry.registerKernel("kv.append_ragged", ragged);
}

void
registerBuiltins(LibraryRegistry& registry)
{
    // unique: data-dependent output; allocates its own result (appended).
    LibraryKernel unique;
    unique.cost = [](const std::vector<NDArray>& args, const ir::Attrs&,
                     const device::DeviceSpec&) {
        device::KernelCost cost;
        cost.bytes = 2.0 * (double)args[0].sizeBytes();
        cost.flops = (double)args[0].numel() *
                     std::log2((double)std::max<int64_t>(
                         args[0].numel(), 2));
        cost.efficiency = 0.3;
        return cost;
    };
    unique.compute = [](std::vector<NDArray>& args, const ir::Attrs&) {
        std::vector<double> values = args[0].data();
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()),
                     values.end());
        args.push_back(NDArray::fromVector({(int64_t)values.size()},
                                           args[0].dtype(), values));
    };
    registry.registerKernel("builtin.unique", unique);
}

} // namespace

void
ensureLibrariesRegistered()
{
    static bool done = [] {
        LibraryRegistry& registry = LibraryRegistry::global();
        registerGemm(registry, "cublas.matmul");
        registerGemm(registry, "rocblas.matmul");
        registerGemm(registry, "mps.matmul");
        registerAttention(registry, "flashattn.attention");
        registerRaggedAttention(registry, "flashattn.attention_ragged");
        registerNorms(registry, "cutlass");
        registerKvCache(registry);
        registerBuiltins(registry);
        return true;
    }();
    (void)done;
}

} // namespace vm
} // namespace relax
