/**
 * @file
 * Structural transforms over tensor programs: simultaneous variable and
 * buffer substitution (substituteStmt and friends) used by fusion and
 * inlining, and buffer access collection (collectAccesses) feeding
 * pattern analysis and workspace lifting.
 */
#include "tir/transform.h"

#include <functional>

#include "arith/analyzer.h"
#include "arith/structural.h"

namespace relax {
namespace tir {

PrimExpr
substituteExpr(const PrimExpr& expr, const VarMap& vmap, const BufferMap& bmap)
{
    if (!expr || expr->kind() == ExprKind::kVar) return substitute(expr, vmap);
    auto recurse = [&](const PrimExpr& operand) {
        return substituteExpr(operand, vmap, bmap);
    };
    if (expr->kind() != ExprKind::kBufferLoad) {
        return mapOperands(expr, recurse);
    }
    const auto* node = static_cast<const BufferLoadNode*>(expr.get());
    Buffer buffer = node->buffer;
    if (auto it = bmap.find(buffer.get()); it != bmap.end()) {
        buffer = it->second;
    }
    bool changed = buffer != node->buffer;
    std::vector<PrimExpr> indices;
    indices.reserve(node->indices.size());
    for (const PrimExpr& index : operandsAndIndices(expr)) {
        indices.push_back(recurse(index));
        changed |= indices.back() != index;
    }
    return changed ? bufferLoad(buffer, std::move(indices)) : expr;
}

namespace {

Buffer
substituteBuffer(const Buffer& buffer, const VarMap& vmap,
                 const BufferMap& bmap)
{
    if (auto it = bmap.find(buffer.get()); it != bmap.end()) {
        return it->second;
    }
    bool changed = false;
    std::vector<PrimExpr> shape;
    shape.reserve(buffer->shape.size());
    for (const auto& dim : buffer->shape) {
        shape.push_back(substitute(dim, vmap));
        changed |= shape.back().get() != dim.get();
    }
    if (!changed) return buffer;
    return makeBuffer(buffer->name, buffer->dtype, std::move(shape));
}

} // namespace

Stmt
substituteStmt(const Stmt& stmt, const VarMap& vmap, const BufferMap& bmap)
{
    if (stmt->kind() == StmtKind::kAllocBuffer) {
        // A reshaped allocation is re-declared, and its body refers to the
        // new buffer.
        const auto* node = static_cast<const AllocBufferNode*>(stmt.get());
        Buffer buffer = substituteBuffer(node->buffer, vmap, bmap);
        if (buffer != node->buffer) {
            BufferMap extended = bmap;
            extended[node->buffer.get()] = buffer;
            return makeAllocBuffer(
                buffer, node->scope,
                substituteStmt(node->body, vmap, extended));
        }
    }
    Stmt out = mapChildren(
        stmt,
        [&](const PrimExpr& expr) { return substituteExpr(expr, vmap, bmap); },
        [&](const Stmt& sub) { return substituteStmt(sub, vmap, bmap); });
    if (out->kind() == StmtKind::kBufferStore) {
        // A store's buffer is remapped like a load's.
        const auto* node = static_cast<const BufferStoreNode*>(out.get());
        if (auto it = bmap.find(node->buffer.get()); it != bmap.end()) {
            return makeStore(it->second, node->indices, node->value);
        }
    }
    return out;
}

namespace {

void
collectExprAccesses(const PrimExpr& expr, AccessSet* out)
{
    if (expr && expr->kind() == ExprKind::kBufferLoad) {
        const auto* node = static_cast<const BufferLoadNode*>(expr.get());
        out->reads.push_back({node->buffer, node->indices});
    }
    for (const PrimExpr& operand : operandsAndIndices(expr)) {
        collectExprAccesses(operand, out);
    }
}

void
collectStmtAccesses(const Stmt& stmt, AccessSet* out)
{
    if (stmt->kind() == StmtKind::kBufferStore) {
        // The write comes first and a store's value reads come before its
        // index reads: the pattern analysis keeps the last read it
        // classifies, so this order is part of the result.
        const auto* node = static_cast<const BufferStoreNode*>(stmt.get());
        out->writes.push_back({node->buffer, node->indices});
        collectExprAccesses(node->value, out);
        for (const auto& index : node->indices) {
            collectExprAccesses(index, out);
        }
        return;
    }
    forEachChild(
        stmt, [&](const PrimExpr& expr) { collectExprAccesses(expr, out); },
        [&](const Stmt& sub) { collectStmtAccesses(sub, out); });
}

} // namespace

AccessSet
collectAccesses(const Stmt& stmt)
{
    AccessSet out;
    collectStmtAccesses(stmt, &out);
    return out;
}

std::vector<BufferAllocation>
collectAllocations(const Stmt& stmt)
{
    std::vector<BufferAllocation> out;
    forEachStmt(stmt, [&](const Stmt& s) {
        if (s->kind() == StmtKind::kAllocBuffer) {
            const auto* node = static_cast<const AllocBufferNode*>(s.get());
            out.push_back({node->buffer, node->scope});
        }
    });
    return out;
}

std::vector<Var>
collectLoopVars(const Stmt& stmt)
{
    std::vector<Var> out;
    forEachStmt(stmt, [&](const Stmt& s) {
        if (s->kind() == StmtKind::kFor) {
            out.push_back(static_cast<const ForNode*>(s.get())->loopVar);
        }
    });
    return out;
}

std::unordered_set<const VarNode*>
collectFreeVars(const PrimFunc& func)
{
    std::unordered_set<const VarNode*> bound;
    for (const auto& v : collectLoopVars(func->body)) bound.insert(v.get());
    for (const auto& v : func->symParams) bound.insert(v.get());

    std::unordered_set<const VarNode*> free;
    std::function<void(const PrimExpr&)> visitExpr = [&](const PrimExpr& e) {
        if (e && e->kind() == ExprKind::kVar) {
            const auto* v = static_cast<const VarNode*>(e.get());
            if (!bound.count(v)) free.insert(v);
        }
        for (const PrimExpr& operand : operandsAndIndices(e)) {
            visitExpr(operand);
        }
    };
    for (const auto& buffer : func->params) {
        for (const auto& dim : buffer->shape) visitExpr(dim);
    }
    // Every access's indices, but never a stored value's own scalars.
    AccessSet accesses = collectAccesses(func->body);
    for (const auto& access : accesses.reads) {
        for (const auto& index : access.indices) visitExpr(index);
    }
    for (const auto& access : accesses.writes) {
        for (const auto& index : access.indices) visitExpr(index);
    }
    forEachStmt(func->body, [&](const Stmt& s) {
        if (s->kind() == StmtKind::kBufferStore) return;
        if (s->kind() == StmtKind::kAllocBuffer) {
            const auto* node = static_cast<const AllocBufferNode*>(s.get());
            for (const auto& dim : node->buffer->shape) visitExpr(dim);
        }
        forEachChild(s, visitExpr, [](const Stmt&) {});
    });
    return free;
}

bool
unifyShapes(const std::vector<PrimExpr>& pattern,
            const std::vector<PrimExpr>& concrete, VarMap* binding)
{
    if (pattern.size() != concrete.size()) return false;
    Analyzer analyzer;
    for (size_t i = 0; i < pattern.size(); ++i) {
        const PrimExpr& p = pattern[i];
        const PrimExpr& c = concrete[i];
        if (p->kind() == ExprKind::kVar) {
            const auto* v = static_cast<const VarNode*>(p.get());
            if (auto it = binding->find(v); it != binding->end()) {
                if (!analyzer.proveEqual(it->second, c)) return false;
            } else {
                (*binding)[v] = c;
            }
            continue;
        }
        // Non-var pattern dim: substitute what we know, then require proof.
        PrimExpr substituted = substitute(p, *binding);
        if (!analyzer.proveEqual(substituted, c)) return false;
    }
    return true;
}

} // namespace tir
} // namespace relax
