/**
 * @file
 * Tests for TensorIR-lite: construction, printing, substitution, shape
 * unification, and the reference interpreter.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "arith/structural.h"
#include "tir/builder.h"
#include "tir/interpreter.h"
#include "tir/stmt.h"
#include "tir/transform.h"

namespace relax {
namespace tir {
namespace {

/** Builds `Y[i,j] = 0; Y[i,j] += X[i,k] * W[k,j]` over grid(n, m, k). */
PrimFunc
makeMatmul(PrimExpr n, PrimExpr k, PrimExpr m)
{
    Buffer x = makeBuffer("X", DataType::f32(), {n, k});
    Buffer w = makeBuffer("W", DataType::f32(), {k, m});
    Buffer y = makeBuffer("Y", DataType::f32(), {n, m});
    Var i = var("i"), j = var("j"), r = var("r");
    Stmt init = makeIf(eq(r, intImm(0)),
                       makeStore(y, {i, j}, floatImm(0.0)));
    Stmt update = makeStore(
        y, {i, j},
        add(bufferLoad(y, {i, j}),
            mul(bufferLoad(x, {i, r}), bufferLoad(w, {r, j}))));
    Stmt body = nestLoops({i, j, r}, {n, m, k},
                          makeSeq({init, update}));
    return makePrimFunc("mm", {x, w, y}, body);
}

/** Builds `Y[i] = max(X[i], 0)` over grid(n). */
PrimFunc
makeRelu(PrimExpr n)
{
    Buffer x = makeBuffer("X", DataType::f32(), {n});
    Buffer y = makeBuffer("Y", DataType::f32(), {n});
    Var i = var("i");
    Stmt body = makeFor(
        i, n, makeStore(y, {i}, maxExpr(bufferLoad(x, {i}), floatImm(0.0))));
    return makePrimFunc("relu", {x, y}, body);
}

TEST(TirTest, PrintsPaperLikeForm)
{
    Var n = var("n");
    PrimFunc mm = makeMatmul(n, intImm(128), intImm(256));
    std::string text = toString(mm);
    EXPECT_NE(text.find("@tensorir_function"), std::string::npos);
    EXPECT_NE(text.find("def mm("), std::string::npos);
    EXPECT_NE(text.find("X: Buffer((n, 128), \"f32\")"), std::string::npos);
    EXPECT_NE(text.find("for i in range(n):"), std::string::npos);
    EXPECT_NE(text.find("Y[i, j] = (Y[i, j] + (X[i, r] * W[r, j]))"),
              std::string::npos);
}

TEST(TirTest, CollectAccessesFindsReadsAndWrites)
{
    Var n = var("n");
    PrimFunc mm = makeMatmul(n, intImm(4), intImm(8));
    AccessSet accesses = collectAccesses(mm->body);
    // Writes: init store + accumulate store. Reads: Y, X, W in accumulate.
    EXPECT_EQ(accesses.writes.size(), 2u);
    EXPECT_EQ(accesses.reads.size(), 3u);
}

TEST(TirTest, CollectLoopVarsInOrder)
{
    Var n = var("n");
    PrimFunc mm = makeMatmul(n, intImm(4), intImm(8));
    auto loop_vars = collectLoopVars(mm->body);
    ASSERT_EQ(loop_vars.size(), 3u);
    EXPECT_EQ(loop_vars[0]->name, "i");
    EXPECT_EQ(loop_vars[1]->name, "j");
    EXPECT_EQ(loop_vars[2]->name, "r");
}

TEST(TirTest, CollectFreeVarsFindsShapeVars)
{
    Var n = var("n");
    PrimFunc mm = makeMatmul(n, intImm(4), intImm(8));
    auto free_vars = collectFreeVars(mm);
    ASSERT_EQ(free_vars.size(), 1u);
    EXPECT_TRUE(free_vars.count(n.get()));
}

TEST(TirTest, SubstituteRewritesBuffersAndVars)
{
    Var n = var("n");
    Buffer x = makeBuffer("X", DataType::f32(), {n});
    Buffer y = makeBuffer("Y", DataType::f32(), {n});
    Buffer z = makeBuffer("Z", DataType::f32(), {n});
    Var i = var("i");
    Stmt body =
        makeFor(i, n, makeStore(y, {i}, bufferLoad(x, {i})));

    BufferMap bmap{{y.get(), z}};
    VarMap vmap{{n.get(), intImm(16)}};
    Stmt rewritten = substituteStmt(body, vmap, bmap);
    AccessSet accesses = collectAccesses(rewritten);
    ASSERT_EQ(accesses.writes.size(), 1u);
    EXPECT_EQ(accesses.writes[0].buffer.get(), z.get());
    const auto* loop = static_cast<const ForNode*>(rewritten.get());
    EXPECT_TRUE(isConstInt(loop->extent, 16));
}

/** The buffers of loads and the vars reached by the tir walk, in order. */
std::vector<const void*>
leaves(const PrimExpr& expr)
{
    std::vector<const void*> out;
    if (expr->kind() == ExprKind::kBufferLoad) {
        out.push_back(static_cast<const BufferLoadNode*>(expr.get())
                          ->buffer.get());
    } else if (expr->kind() == ExprKind::kVar) {
        out.push_back(expr.get());
    }
    for (const PrimExpr& operand : operandsAndIndices(expr)) {
        for (const void* leaf : leaves(operand)) out.push_back(leaf);
    }
    return out;
}

TEST(TirTest, SubstituteExprMapsUnderEveryCompositeKind)
{
    Var n = var("n"), m = var("m");
    Buffer x = makeBuffer("X", DataType::i64(), {intImm(8)});
    Buffer x2 = makeBuffer("X2", DataType::i64(), {intImm(8)});
    VarMap vmap{{n.get(), m}};
    BufferMap bmap{{x.get(), x2}};
    PrimExpr load = bufferLoad(x, {n});
    std::vector<PrimExpr> composites = {
        add(load, n), sub(load, n), mul(load, n), div(load, n),
        floordiv(load, n), floormod(load, n), minExpr(load, n),
        maxExpr(load, n), eq(load, n), ne(load, n), lt(load, n),
        le(load, n), gt(load, n), ge(load, n), logicalAnd(load, n),
        logicalOr(load, n), logicalNot(load), cast(load, DataType::f32()),
        select(load, n, load), callIntrin("pow", {load, n}, DataType::i64()),
        bufferLoad(x, {bufferLoad(x, {n})}),
    };
    for (const PrimExpr& expr : composites) {
        SCOPED_TRACE(toString(makeStore(x, {intImm(0)}, expr)));
        PrimExpr out = substituteExpr(expr, vmap, bmap);
        EXPECT_EQ(out->kind(), expr->kind());
        std::vector<const void*> want;
        for (const void* leaf : leaves(expr)) {
            want.push_back(leaf == x.get()   ? (const void*)x2.get()
                           : leaf == n.get() ? (const void*)m.get()
                                             : leaf);
        }
        EXPECT_EQ(leaves(out), want);
    }
}

// ---------------------------------------------------------------------------
// Traversal helpers
// ---------------------------------------------------------------------------

TEST(TraversalTest, LoadOperandsAreItsIndices)
{
    Var i = var("i"), j = var("j");
    Buffer x = makeBuffer("X", DataType::f32(), {intImm(4), intImm(4)});
    PrimExpr load = bufferLoad(x, {i, j});
    // arith sees a load as a leaf; the tir walk reaches its indices.
    EXPECT_EQ(operands(load).size(), 0u);
    Operands indices = operandsAndIndices(load);
    ASSERT_EQ(indices.size(), 2u);
    EXPECT_EQ(indices[0].get(), i.get());
    EXPECT_EQ(indices[1].get(), j.get());
    PrimExpr sum = add(i, j);
    ASSERT_EQ(operandsAndIndices(sum).size(), 2u);
    EXPECT_EQ(operandsAndIndices(sum)[1].get(), j.get());
}

/** One statement of every kind, with its children in field order. */
struct StmtCase
{
    Stmt stmt;
    std::vector<const void*> children;
};

std::vector<StmtCase>
stmtOfEveryKind()
{
    Var i = var("i"), j = var("j"), n = var("n");
    Buffer y = makeBuffer("Y", DataType::f32(), {n, n});
    Buffer ws = makeBuffer("W", DataType::f32(), {n});
    PrimExpr value = floatImm(1.0);
    Stmt store = makeStore(y, {i, j}, value);
    Stmt other = makeStore(y, {j, i}, value);
    PrimExpr cond = lt(i, j);
    return {
        {makeFor(i, n, store), {n.get(), store.get()}},
        {store, {i.get(), j.get(), value.get()}},
        {makeIf(cond, store, other), {cond.get(), store.get(), other.get()}},
        {makeIf(cond, store), {cond.get(), store.get()}},
        {makeSeq({store, other, store}),
         {store.get(), other.get(), store.get()}},
        {makeAllocBuffer(ws, "global", store), {store.get()}},
    };
}

std::vector<const void*>
childNodes(const Stmt& stmt)
{
    std::vector<const void*> out;
    forEachChild(
        stmt, [&](const PrimExpr& expr) { out.push_back(expr.get()); },
        [&](const Stmt& sub) { out.push_back(sub.get()); });
    return out;
}

TEST(TraversalTest, StmtChildrenOfEveryKindInFieldOrder)
{
    std::set<StmtKind> kinds;
    for (const auto& c : stmtOfEveryKind()) {
        SCOPED_TRACE(toString(c.stmt));
        kinds.insert(c.stmt->kind());
        EXPECT_EQ(childNodes(c.stmt), c.children);
    }
    EXPECT_EQ(kinds.size(), static_cast<size_t>(StmtKind::kAllocBuffer) + 1);
}

TEST(TraversalTest, StmtIdentityRebuildReturnsTheSameNode)
{
    for (const auto& c : stmtOfEveryKind()) {
        SCOPED_TRACE(toString(c.stmt));
        Stmt same = mapChildren(
            c.stmt, [](const PrimExpr& expr) { return expr; },
            [](const Stmt& sub) { return sub; });
        EXPECT_EQ(same.get(), c.stmt.get());
    }
}

TEST(TraversalTest, StmtRebuildKeepsKindAndNonChildFields)
{
    Var k = var("k");
    PrimExpr one = floatImm(2.0);
    Stmt leaf = makeStore(makeBuffer("Z", DataType::f32(), {k}), {k}, one);
    for (const auto& c : stmtOfEveryKind()) {
        SCOPED_TRACE(toString(c.stmt));
        Stmt rebuilt = mapChildren(
            c.stmt, [&](const PrimExpr&) -> PrimExpr { return k; },
            [&](const Stmt&) { return leaf; });
        ASSERT_NE(rebuilt.get(), c.stmt.get());
        EXPECT_EQ(rebuilt->kind(), c.stmt->kind());
        std::vector<const void*> want;
        forEachChild(
            c.stmt, [&](const PrimExpr&) { want.push_back(k.get()); },
            [&](const Stmt&) { want.push_back(leaf.get()); });
        EXPECT_EQ(childNodes(rebuilt), want);
        // Loop vars, buffers and scopes are not children: they are kept.
        EXPECT_EQ(collectLoopVars(rebuilt).empty(),
                  c.stmt->kind() != StmtKind::kFor);
        if (c.stmt->kind() == StmtKind::kFor) {
            EXPECT_EQ(collectLoopVars(rebuilt)[0],
                      collectLoopVars(c.stmt)[0]);
        }
        if (c.stmt->kind() == StmtKind::kAllocBuffer) {
            auto before = collectAllocations(c.stmt);
            auto after = collectAllocations(rebuilt);
            ASSERT_EQ(after.size(), 1u);
            EXPECT_EQ(after[0].buffer, before[0].buffer);
            EXPECT_EQ(after[0].scope, "global");
        }
        if (c.stmt->kind() == StmtKind::kBufferStore) {
            EXPECT_EQ(collectAccesses(rebuilt).writes[0].buffer,
                      collectAccesses(c.stmt).writes[0].buffer);
        }
    }
}

TEST(TirTest, UnifyShapesBindsVariables)
{
    Var n = var("n");
    Var m = var("m");
    Var outer = var("s");
    VarMap binding;
    // Pattern (n, m) against concrete (s, 4): binds n := s, m := 4.
    EXPECT_TRUE(unifyShapes({n, m}, {outer, intImm(4)}, &binding));
    EXPECT_TRUE(structuralEqual(binding[n.get()], outer));
    EXPECT_TRUE(isConstInt(binding[m.get()], 4));
}

TEST(TirTest, UnifyShapesChecksCompositeDims)
{
    Var n = var("n");
    Var outer = var("s");
    VarMap binding;
    // Pattern (n, n*4): second dim must prove equal once n is bound.
    EXPECT_TRUE(unifyShapes({n, mul(n, intImm(4))},
                            {outer, mul(intImm(4), outer)}, &binding));
    VarMap bad;
    EXPECT_FALSE(unifyShapes({n, mul(n, intImm(4))},
                             {outer, mul(intImm(5), outer)}, &bad));
}

TEST(TirTest, UnifyShapesRejectsInconsistentRebinding)
{
    Var n = var("n");
    VarMap binding;
    EXPECT_FALSE(unifyShapes({n, n}, {intImm(3), intImm(4)}, &binding));
    VarMap good;
    EXPECT_TRUE(unifyShapes({n, n}, {intImm(3), intImm(3)}, &good));
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

TEST(InterpreterTest, RunsRelu)
{
    Var n = var("n");
    PrimFunc relu = makeRelu(n);
    NDArray x = NDArray::fromVector({4}, DataType::f32(),
                                    {-1.0, 2.0, -3.0, 4.0});
    NDArray y = NDArray::zeros({4}, DataType::f32());
    run(relu, {x, y});
    EXPECT_EQ(y.data(), (std::vector<double>{0.0, 2.0, 0.0, 4.0}));
}

TEST(InterpreterTest, RunsMatmulWithDynamicDim)
{
    Var n = var("n");
    PrimFunc mm = makeMatmul(n, intImm(2), intImm(2));
    // X = [[1,2],[3,4],[5,6]] (n=3), W = [[1,0],[0,1]] -> Y == X.
    NDArray x = NDArray::fromVector({3, 2}, DataType::f32(),
                                    {1, 2, 3, 4, 5, 6});
    NDArray w = NDArray::fromVector({2, 2}, DataType::f32(), {1, 0, 0, 1});
    NDArray y = NDArray::zeros({3, 2}, DataType::f32());
    run(mm, {x, w, y});
    EXPECT_EQ(y.data(), x.data());
}

TEST(InterpreterTest, SameFuncServesMultipleDynamicShapes)
{
    // The paper compiles once for arbitrary batch sizes; the interpreter
    // mirrors that by re-binding n per call.
    Var n = var("n");
    PrimFunc relu = makeRelu(n);
    for (int64_t size : {1, 5, 17}) {
        NDArray x = NDArray::zeros({size}, DataType::f32());
        for (int64_t i = 0; i < size; ++i) x.set(i, -(double)i);
        NDArray y = NDArray::zeros({size}, DataType::f32());
        run(relu, {x, y});
        for (int64_t i = 0; i < size; ++i) EXPECT_EQ(y.at(i), 0.0);
    }
}

TEST(InterpreterTest, ShapeCheckRejectsMismatch)
{
    Var n = var("n");
    PrimFunc mm = makeMatmul(n, intImm(2), intImm(2));
    NDArray x = NDArray::zeros({3, 2}, DataType::f32());
    NDArray w = NDArray::zeros({5, 2}, DataType::f32()); // K mismatch
    NDArray y = NDArray::zeros({3, 2}, DataType::f32());
    EXPECT_THROW(run(mm, {x, w, y}), ShapeError);
}

TEST(InterpreterTest, ShapeCheckRejectsInconsistentSymbolBinding)
{
    Var n = var("n");
    Buffer a = makeBuffer("A", DataType::f32(), {n});
    Buffer b = makeBuffer("B", DataType::f32(), {n});
    Var i = var("i");
    PrimFunc copy = makePrimFunc(
        "copy", {a, b}, makeFor(i, n, makeStore(b, {i}, bufferLoad(a, {i}))));
    NDArray x = NDArray::zeros({3}, DataType::f32());
    NDArray y = NDArray::zeros({4}, DataType::f32());
    EXPECT_THROW(run(copy, {x, y}), ShapeError);
}

TEST(InterpreterTest, CompositeShapeDimsVerified)
{
    // Output declared (n*2,): passing a wrong-sized output fails the
    // lightweight runtime check of §4.1.
    Var n = var("n");
    Buffer a = makeBuffer("A", DataType::f32(), {n, intImm(2)});
    Buffer b = makeBuffer("B", DataType::f32(), {mul(n, intImm(2))});
    Var i = var("i"), j = var("j");
    Stmt body = nestLoops(
        {i, j}, {n, intImm(2)},
        makeStore(b, {add(mul(i, intImm(2)), j)}, bufferLoad(a, {i, j})));
    PrimFunc flatten_fn = makePrimFunc("flatten", {a, b}, body);

    NDArray x = NDArray::fromVector({3, 2}, DataType::f32(),
                                    {1, 2, 3, 4, 5, 6});
    NDArray good = NDArray::zeros({6}, DataType::f32());
    run(flatten_fn, {x, good});
    EXPECT_EQ(good.data(), x.data());

    NDArray bad = NDArray::zeros({7}, DataType::f32());
    EXPECT_THROW(run(flatten_fn, {x, bad}), ShapeError);
}

TEST(InterpreterTest, SymbolicParamsArePassedExplicitly)
{
    // Fig. 8: a fused function takes an extra symbolic argument s = n.
    Var n = var("n");
    Buffer a = makeBuffer("A", DataType::f32(), {mul(n, intImm(2))});
    Buffer b = makeBuffer("B", DataType::f32(), {mul(n, intImm(2))});
    Var i = var("i");
    Stmt body = makeFor(i, mul(n, intImm(2)),
                        makeStore(b, {i}, add(bufferLoad(a, {i}),
                                              floatImm(1.0))));
    PrimFunc fused = makePrimFunc("fused_addone", {a, b}, body, {n});

    NDArray x = NDArray::fromVector({6}, DataType::f32(),
                                    {0, 1, 2, 3, 4, 5});
    NDArray y = NDArray::zeros({6}, DataType::f32());
    run(fused, {x, y}, {3});
    EXPECT_EQ(y.at(5), 6.0);
    // Wrong symbolic value breaks the shape verification.
    EXPECT_THROW(run(fused, {x, y}, {4}), ShapeError);
}

TEST(InterpreterTest, AllocBufferProvidesScratch)
{
    // B = exp(A) via an intermediate local buffer.
    Var n = var("n");
    Buffer a = makeBuffer("A", DataType::f32(), {n});
    Buffer tmp = makeBuffer("T", DataType::f32(), {n});
    Buffer b = makeBuffer("B", DataType::f32(), {n});
    Var i = var("i"), j = var("j");
    Stmt fill = makeFor(
        i, n, makeStore(tmp, {i}, callIntrin("exp", {bufferLoad(a, {i})},
                                             DataType::f32())));
    Stmt copy = makeFor(j, n, makeStore(b, {j}, bufferLoad(tmp, {j})));
    Stmt body = makeAllocBuffer(tmp, "local", makeSeq({fill, copy}));
    PrimFunc func = makePrimFunc("exp_via_scratch", {a, b}, body);

    NDArray x = NDArray::fromVector({2}, DataType::f32(), {0.0, 1.0});
    NDArray y = NDArray::zeros({2}, DataType::f32());
    run(func, {x, y});
    EXPECT_DOUBLE_EQ(y.at(0), 1.0);
    EXPECT_NEAR(y.at(1), std::exp(1.0), 1e-12);
}

TEST(InterpreterTest, IntegerBitManipulationViaDivMod)
{
    // The q4 decode path: w = (data // 16^k) % 16 - 7, validating that
    // unsigned unpacking is exactly representable.
    Buffer data = makeBuffer("D", DataType::u32(), {intImm(1)});
    Buffer out = makeBuffer("O", DataType::f32(), {intImm(8)});
    PrimExpr word = bufferLoad(data, {intImm(0)});
    std::vector<Stmt> stores;
    int64_t divisor = 1;
    for (int64_t k = 0; k < 8; ++k) {
        stores.push_back(makeStore(
            out, {intImm(k)},
            sub(floormod(floordiv(cast(word, DataType::i64()),
                                  intImm(divisor)),
                         intImm(16)),
                intImm(7))));
        divisor *= 16;
    }
    PrimFunc decode = makePrimFunc("decode1", {data, out},
                                   makeSeq(std::move(stores)));
    // Pack nibbles 0..7 into one u32 word.
    uint64_t packed = 0;
    for (uint64_t k = 0; k < 8; ++k) packed |= (k & 0xF) << (4 * k);
    NDArray d = NDArray::fromVector({1}, DataType::u32(), {(double)packed});
    NDArray o = NDArray::zeros({8}, DataType::f32());
    run(decode, {d, o});
    for (int64_t k = 0; k < 8; ++k) {
        EXPECT_DOUBLE_EQ(o.at(k), (double)k - 7.0) << "nibble " << k;
    }
}

TEST(InterpreterTest, FloorDivisionAgreesWithFolderAndEvalInt)
{
    // Floor semantics: the quotient rounds toward negative infinity and
    // the remainder takes the divisor's sign.
    struct Row
    {
        int64_t a, b, quotient, remainder;
    };
    const Row table[] = {
        {7, 2, 3, 1}, {7, -2, -4, -1}, {-7, 2, -4, 1}, {-7, -2, 3, -1}};
    Var a = var("a"), b = var("b");
    Buffer out = makeBuffer("O", DataType::i64(), {intImm(2)});
    PrimFunc divmod = makePrimFunc(
        "divmod", {out},
        makeSeq({makeStore(out, {intImm(0)}, floordiv(a, b)),
                 makeStore(out, {intImm(1)}, floormod(a, b))}),
        {a, b});
    for (const Row& row : table) {
        SCOPED_TRACE(std::to_string(row.a) + " by " + std::to_string(row.b));
        EXPECT_EQ(floorDiv(row.a, row.b), row.quotient);
        EXPECT_EQ(floorMod(row.a, row.b), row.remainder);

        EXPECT_TRUE(isConstInt(floordiv(intImm(row.a), intImm(row.b)),
                               row.quotient));
        EXPECT_TRUE(isConstInt(floormod(intImm(row.a), intImm(row.b)),
                               row.remainder));

        VarBinding binding{{a.get(), row.a}, {b.get(), row.b}};
        EXPECT_EQ(evalInt(floordiv(a, b), binding), row.quotient);
        EXPECT_EQ(evalInt(floormod(a, b), binding), row.remainder);

        NDArray result = NDArray::zeros({2}, DataType::i64());
        run(divmod, {result}, {row.a, row.b});
        EXPECT_DOUBLE_EQ(result.at(0), (double)row.quotient);
        EXPECT_DOUBLE_EQ(result.at(1), (double)row.remainder);
    }
}

TEST(NDArrayTest, MetadataOnlyTracksShapeNotData)
{
    NDArray meta = NDArray::metaOnly({1024, 4096}, DataType::f16());
    EXPECT_FALSE(meta.hasData());
    EXPECT_EQ(meta.numel(), 1024 * 4096);
    EXPECT_EQ(meta.sizeBytes(), 1024 * 4096 * 2);
    EXPECT_THROW(meta.at(0), InternalError);
}

TEST(NDArrayTest, FlattenIsRowMajorAndBoundsChecked)
{
    NDArray array = NDArray::zeros({2, 3}, DataType::f32());
    EXPECT_EQ(array.flatten({1, 2}), 5);
    EXPECT_THROW(array.flatten({2, 0}), InternalError);
    EXPECT_THROW(array.flatten({0}), InternalError);
}

} // namespace
} // namespace tir
} // namespace relax
