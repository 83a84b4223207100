/**
 * @file
 * Loop-level analyses: compute pattern classification (Alg. 1 — index
 * predicates such as isBroadcast / isInjective over loop nests),
 * global-workspace discovery for lifting, and analyzeCost, which counts
 * flops and bytes symbolically for the roofline model.
 */
#include "tir/analysis.h"

#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "arith/analyzer.h"

#include "arith/structural.h"

namespace relax {
namespace tir {

std::string
patternKindName(PatternKind kind)
{
    switch (kind) {
      case PatternKind::kElementWise: return "ElementWise";
      case PatternKind::kBroadcast: return "Broadcast";
      case PatternKind::kInjective: return "Injective";
      case PatternKind::kReduction: return "Reduction";
      case PatternKind::kOutputEwiseFusible: return "OutputEwiseFusible";
      case PatternKind::kOpaque: return "Opaque";
    }
    return "Opaque";
}

PatternKind
patternKindFromName(const std::string& name)
{
    if (name == "ElementWise") return PatternKind::kElementWise;
    if (name == "Broadcast") return PatternKind::kBroadcast;
    if (name == "Injective") return PatternKind::kInjective;
    if (name == "Reduction") return PatternKind::kReduction;
    if (name == "OutputEwiseFusible") return PatternKind::kOutputEwiseFusible;
    if (name == "Opaque") return PatternKind::kOpaque;
    RELAX_THROW(IRError) << "unknown pattern kind: " << name;
}

namespace {

bool
sameIndices(const std::vector<PrimExpr>& a, const std::vector<PrimExpr>& b)
{
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (!structuralEqual(a[i], b[i])) return false;
    }
    return true;
}

bool
allVarIndices(const std::vector<PrimExpr>& indices)
{
    for (const auto& index : indices) {
        if (index->kind() != ExprKind::kVar &&
            index->kind() != ExprKind::kIntImm) {
            return false;
        }
    }
    return true;
}

/** Read is an (ordered) subsequence of the write indices, or all-constant. */
bool
isBroadcast(const std::vector<PrimExpr>& r_idx,
            const std::vector<PrimExpr>& w_idx)
{
    if (!allVarIndices(r_idx)) return false;
    if (r_idx.size() >= w_idx.size() && !r_idx.empty()) {
        // Scalars broadcast too; an equal-rank tuple cannot (that is EW or
        // injective territory).
        bool all_const = true;
        for (const auto& index : r_idx) {
            all_const &= index->kind() == ExprKind::kIntImm;
        }
        return all_const;
    }
    size_t wi = 0;
    for (const auto& index : r_idx) {
        if (index->kind() == ExprKind::kIntImm) continue;
        bool matched = false;
        while (wi < w_idx.size()) {
            if (structuralEqual(index, w_idx[wi])) {
                matched = true;
                ++wi;
                break;
            }
            ++wi;
        }
        if (!matched) return false;
    }
    return true;
}

/** Read indices are arbitrary functions of write-side variables only. */
bool
isInjective(const std::vector<PrimExpr>& r_idx,
            const std::vector<PrimExpr>& w_idx)
{
    std::unordered_set<const VarNode*> w_vars;
    for (const auto& index : w_idx) collectVars(index, &w_vars);
    std::unordered_set<const VarNode*> r_vars;
    for (const auto& index : r_idx) collectVars(index, &r_vars);
    for (const auto* v : r_vars) {
        if (!w_vars.count(v)) return false;
    }
    return true;
}

/** Matches Y[idx] = Y[idx] + a * b accumulation (matmul, convolution). */
bool
isFuseMultiplyAdd(const Stmt& body)
{
    std::function<bool(const PrimExpr&)> containsMul =
        [&](const PrimExpr& e) -> bool {
        if (!e) return false;
        if (e->kind() == ExprKind::kMul) return true;
        switch (e->kind()) {
          case ExprKind::kAdd:
          case ExprKind::kSub: {
            const auto* node = static_cast<const BinaryNode*>(e.get());
            return containsMul(node->a) || containsMul(node->b);
          }
          case ExprKind::kCast:
            return containsMul(static_cast<const UnaryNode*>(e.get())->a);
          default:
            return false;
        }
    };

    bool found = false;
    forEachStmt(body, [&](const Stmt& s) {
        if (found || s->kind() != StmtKind::kBufferStore) return;
        const auto* store = static_cast<const BufferStoreNode*>(s.get());
        if (store->value->kind() != ExprKind::kAdd) return;
        const auto* sum = static_cast<const BinaryNode*>(store->value.get());
        auto isSelfLoad = [&](const PrimExpr& e) {
            if (e->kind() != ExprKind::kBufferLoad) return false;
            const auto* load = static_cast<const BufferLoadNode*>(e.get());
            return load->buffer.get() == store->buffer.get() &&
                   sameIndices(load->indices, store->indices);
        };
        found = (isSelfLoad(sum->a) && containsMul(sum->b)) ||
                (isSelfLoad(sum->b) && containsMul(sum->a));
    });
    return found;
}

bool
hasReductionLoop(const PrimFunc& func, const AccessSet& accesses)
{
    std::unordered_set<const VarNode*> write_vars;
    for (const auto& write : accesses.writes) {
        for (const auto& index : write.indices) {
            collectVars(index, &write_vars);
        }
    }
    for (const auto& v : collectLoopVars(func->body)) {
        if (!write_vars.count(v.get())) return true;
    }
    return false;
}

} // namespace

PatternKind
analyzePatternKind(const PrimFunc& func)
{
    AccessSet accesses = collectAccesses(func->body);
    if (accesses.writes.empty()) return PatternKind::kOpaque;

    // Line 4: every write must target the same indices (the init store and
    // the accumulating store of a reduction share them).
    std::unordered_set<const BufferNode*> written;
    const auto& w_idx = accesses.writes.front().indices;
    for (const auto& write : accesses.writes) {
        written.insert(write.buffer.get());
        if (!sameIndices(write.indices, w_idx)) return PatternKind::kOpaque;
    }
    if (written.size() > 1) return PatternKind::kOpaque;

    PatternKind kind = PatternKind::kOpaque;
    bool has_elem_wise = false;
    for (const auto& read : accesses.reads) {
        if (written.count(read.buffer.get())) {
            continue; // self-accumulation read; handled by the FMA check
        }
        if (sameIndices(read.indices, w_idx)) {
            kind = PatternKind::kElementWise;
            has_elem_wise = true;
        } else if (isBroadcast(read.indices, w_idx)) {
            kind = PatternKind::kBroadcast;
        } else if (isInjective(read.indices, w_idx)) {
            kind = PatternKind::kInjective;
        }
    }

    if (kind == PatternKind::kBroadcast && has_elem_wise) {
        kind = PatternKind::kElementWise;
    } else if (kind == PatternKind::kOpaque && isFuseMultiplyAdd(func->body) &&
               hasReductionLoop(func, accesses)) {
        kind = PatternKind::kOutputEwiseFusible;
    } else if (kind == PatternKind::kOpaque &&
               hasReductionLoop(func, accesses)) {
        kind = PatternKind::kReduction;
    } else if (kind != PatternKind::kOpaque &&
               hasReductionLoop(func, accesses)) {
        // A classified read pattern combined with a reduction loop (e.g.
        // softmax-style programs) is still a reduction overall.
        kind = PatternKind::kReduction;
    }
    return kind;
}

std::optional<BufferAllocation>
findGlobalWorkspace(const PrimFunc& func)
{
    for (const auto& allocation : collectAllocations(func->body)) {
        if (allocation.scope == "global") return allocation;
    }
    return std::nullopt;
}

namespace {

/** Counts scalar arithmetic operations in an expression. */
int64_t
countOps(const PrimExpr& expr)
{
    if (!expr) return 0;
    int64_t total = 1; // one op per arithmetic node
    switch (expr->kind()) {
      case ExprKind::kIntImm:
      case ExprKind::kFloatImm:
      case ExprKind::kVar:
      case ExprKind::kBufferLoad:
        total = 0;
        break;
      case ExprKind::kCall: {
        // Bit intrinsics are single-cycle; transcendentals cost several.
        bool bit_op = static_cast<const CallNode*>(expr.get())->op == "pow2";
        total = bit_op ? 1 : 4;
        break;
      }
      default:
        break;
    }
    for (const PrimExpr& operand : operandsAndIndices(expr)) {
        total += countOps(operand);
    }
    return total;
}

void
accumulateFlops(const Stmt& stmt, PrimExpr iteration_count, PrimExpr* flops)
{
    if (stmt->kind() == StmtKind::kBufferStore) {
        const auto* node = static_cast<const BufferStoreNode*>(stmt.get());
        int64_t per_iter = countOps(node->value);
        if (per_iter == 0) per_iter = 1; // a store still costs one op
        *flops = add(*flops, mul(iteration_count, intImm(per_iter)));
        return;
    }
    if (stmt->kind() == StmtKind::kFor) {
        iteration_count = mul(iteration_count,
                              static_cast<const ForNode*>(stmt.get())->extent);
    }
    forEachSubStmt(stmt, [&](const Stmt& sub) {
        accumulateFlops(sub, iteration_count, flops);
    });
}

/** Map from loop variables to their extents. */
using ExtentMap = std::unordered_map<const VarNode*, PrimExpr>;

ExtentMap
collectExtents(const Stmt& stmt)
{
    ExtentMap out;
    forEachStmt(stmt, [&](const Stmt& s) {
        if (s->kind() == StmtKind::kFor) {
            const auto* node = static_cast<const ForNode*>(s.get());
            out[node->loopVar.get()] = node->extent;
        }
    });
    return out;
}

/**
 * Upper bound on the number of distinct values an index expression takes
 * over the loop nest: the footprint a gather/strided access actually
 * touches (e.g. data[k, j // 8] reads n/8 distinct words per row, and an
 * embedding table is read only at the looked-up rows).
 */
PrimExpr
rangeCount(const PrimExpr& expr, const ExtentMap& extents)
{
    switch (expr->kind()) {
      case ExprKind::kIntImm:
      case ExprKind::kFloatImm:
        return intImm(1);
      case ExprKind::kVar: {
        auto it = extents.find(static_cast<const VarNode*>(expr.get()));
        // Non-loop scalars (symbolic shape params) are constant per call.
        return it == extents.end() ? intImm(1) : it->second;
      }
      case ExprKind::kCast:
        return rangeCount(static_cast<const UnaryNode*>(expr.get())->a,
                          extents);
      case ExprKind::kAdd:
      case ExprKind::kSub:
      case ExprKind::kMul: {
        const auto* node = static_cast<const BinaryNode*>(expr.get());
        return mul(rangeCount(node->a, extents),
                   rangeCount(node->b, extents));
      }
      case ExprKind::kFloorDiv: {
        const auto* node = static_cast<const BinaryNode*>(expr.get());
        if (const int64_t* c = asIntImm(node->b); c && *c > 0) {
            return add(floordiv(sub(rangeCount(node->a, extents),
                                    intImm(1)),
                                intImm(*c)),
                       intImm(1));
        }
        return rangeCount(node->a, extents);
      }
      case ExprKind::kFloorMod: {
        const auto* node = static_cast<const BinaryNode*>(expr.get());
        if (const int64_t* c = asIntImm(node->b); c && *c > 0) {
            return minExpr(rangeCount(node->a, extents), intImm(*c));
        }
        return rangeCount(node->a, extents);
      }
      case ExprKind::kSelect: {
        const auto* node = static_cast<const SelectNode*>(expr.get());
        return maxExpr(rangeCount(node->trueValue, extents),
                       rangeCount(node->falseValue, extents));
      }
      case ExprKind::kBufferLoad: {
        const auto* node = static_cast<const BufferLoadNode*>(expr.get());
        PrimExpr count = intImm(1);
        for (const auto& index : node->indices) {
            count = mul(count, rangeCount(index, extents));
        }
        return count;
      }
      default: {
        // Conservative: product of extents of every var occurring inside.
        std::unordered_set<const VarNode*> vars;
        collectVars(expr, &vars);
        PrimExpr count = intImm(1);
        for (const auto* v : vars) {
            if (auto it = extents.find(v); it != extents.end()) {
                count = mul(count, it->second);
            }
        }
        return count;
      }
    }
}

} // namespace

TensorProgramCost
analyzeCost(const PrimFunc& func)
{
    TensorProgramCost cost;
    cost.flops = intImm(0);
    accumulateFlops(func->body, intImm(1), &cost.flops);

    // Roofline bytes: distinct elements each buffer access touches (range
    // analysis of the index expressions), assuming perfect on-chip reuse.
    // Local fusion intermediates stay on chip and are excluded; global
    // workspaces round-trip device memory and count twice.
    ExtentMap extents = collectExtents(func->body);
    AccessSet accesses = collectAccesses(func->body);
    std::unordered_set<const BufferNode*> local;
    std::unordered_set<const BufferNode*> global_ws;
    for (const auto& allocation : collectAllocations(func->body)) {
        if (allocation.scope == "global") {
            global_ws.insert(allocation.buffer.get());
        } else {
            local.insert(allocation.buffer.get());
        }
    }
    std::unordered_map<const BufferNode*, PrimExpr> per_buffer;
    auto account = [&](const BufferAccess& access) {
        if (local.count(access.buffer.get())) return;
        PrimExpr touched = intImm((int64_t)access.buffer->dtype.bytes());
        for (size_t d = 0; d < access.indices.size(); ++d) {
            // Distinct positions along this dim: never more than the dim
            // itself (symbolic unflatten indices would otherwise explode).
            touched = mul(touched,
                          minExpr(rangeCount(access.indices[d], extents),
                                  access.buffer->shape[d]));
        }
        auto [it, inserted] =
            per_buffer.emplace(access.buffer.get(), touched);
        if (!inserted) it->second = maxExpr(it->second, touched);
    };
    for (const auto& read : accesses.reads) account(read);
    for (const auto& write : accesses.writes) account(write);

    cost.bytes = intImm(0);
    Analyzer analyzer;
    for (const auto& [buffer, touched] : per_buffer) {
        PrimExpr size = analyzer.simplify(touched);
        if (global_ws.count(buffer)) size = mul(size, intImm(2));
        cost.bytes = add(cost.bytes, size);
    }
    cost.bytes = analyzer.simplify(cost.bytes);
    return cost;
}

} // namespace tir
} // namespace relax
