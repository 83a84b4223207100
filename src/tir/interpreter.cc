/**
 * @file
 * The reference interpreter: a direct recursive evaluator over
 * statements and scalar expressions (all dtypes evaluated as double;
 * Euclidean floordiv), with an environment binding buffers and the
 * explicitly-passed symbolic parameters.
 */
#include "tir/interpreter.h"

#include <cmath>
#include <functional>

#include "support/error.h"

namespace relax {
namespace tir {

namespace {

/** Execution environment: scalar bindings plus buffer storage. */
struct Env
{
    VarBinding scalars;
    std::unordered_map<const BufferNode*, NDArray> buffers;
};

double evalExpr(const PrimExpr& expr, Env& env);

int64_t
evalIndex(const PrimExpr& expr, Env& env)
{
    return (int64_t)evalExpr(expr, env);
}

double
evalIntrinsic(const std::string& op, const std::vector<double>& args)
{
    if (op == "exp") return std::exp(args[0]);
    if (op == "log") return std::log(args[0]);
    if (op == "sqrt") return std::sqrt(args[0]);
    if (op == "rsqrt") return 1.0 / std::sqrt(args[0]);
    if (op == "erf") return std::erf(args[0]);
    if (op == "tanh") return std::tanh(args[0]);
    if (op == "sigmoid") return 1.0 / (1.0 + std::exp(-args[0]));
    if (op == "abs") return std::fabs(args[0]);
    if (op == "pow") return std::pow(args[0], args[1]);
    if (op == "pow2") return (double)(int64_t(1) << (int64_t)args[0]);
    if (op == "sin") return std::sin(args[0]);
    if (op == "cos") return std::cos(args[0]);
    RELAX_THROW(RuntimeError) << "unknown intrinsic: " << op;
}

double
evalExpr(const PrimExpr& expr, Env& env)
{
    switch (expr->kind()) {
      case ExprKind::kIntImm:
        return (double)static_cast<const IntImmNode*>(expr.get())->value;
      case ExprKind::kFloatImm:
        return static_cast<const FloatImmNode*>(expr.get())->value;
      case ExprKind::kVar: {
        const auto* v = static_cast<const VarNode*>(expr.get());
        auto it = env.scalars.find(v);
        if (it == env.scalars.end()) {
            RELAX_THROW(RuntimeError) << "unbound variable " << v->name;
        }
        return (double)it->second;
      }
      case ExprKind::kBufferLoad: {
        const auto* node = static_cast<const BufferLoadNode*>(expr.get());
        auto it = env.buffers.find(node->buffer.get());
        if (it == env.buffers.end()) {
            RELAX_THROW(RuntimeError)
                << "unbound buffer " << node->buffer->name;
        }
        std::vector<int64_t> indices;
        indices.reserve(node->indices.size());
        for (const auto& index : node->indices) {
            indices.push_back(evalIndex(index, env));
        }
        return it->second.at(it->second.flatten(indices));
      }
      case ExprKind::kNot:
        return evalExpr(static_cast<const UnaryNode*>(expr.get())->a, env) ==
                       0.0
                   ? 1.0
                   : 0.0;
      case ExprKind::kCast: {
        double value =
            evalExpr(static_cast<const UnaryNode*>(expr.get())->a, env);
        if (expr->dtype().isInt() || expr->dtype().isUInt()) {
            return (double)(int64_t)value;
        }
        return value;
      }
      case ExprKind::kSelect: {
        const auto* node = static_cast<const SelectNode*>(expr.get());
        return evalExpr(node->cond, env) != 0.0
                   ? evalExpr(node->trueValue, env)
                   : evalExpr(node->falseValue, env);
      }
      case ExprKind::kCall: {
        const auto* node = static_cast<const CallNode*>(expr.get());
        std::vector<double> args;
        args.reserve(node->args.size());
        for (const auto& arg : node->args) {
            args.push_back(evalExpr(arg, env));
        }
        return evalIntrinsic(node->op, args);
      }
      default: {
        const auto* node = static_cast<const BinaryNode*>(expr.get());
        double a = evalExpr(node->a, env);
        double b = evalExpr(node->b, env);
        bool integer = node->a->dtype().isInt() || node->a->dtype().isUInt();
        switch (expr->kind()) {
          case ExprKind::kAdd: return a + b;
          case ExprKind::kSub: return a - b;
          case ExprKind::kMul: return a * b;
          case ExprKind::kDiv: return a / b;
          case ExprKind::kFloorDiv:
            if (integer) return (double)floorDiv((int64_t)a, (int64_t)b);
            return std::floor(a / b);
          case ExprKind::kFloorMod:
            if (integer) return (double)floorMod((int64_t)a, (int64_t)b);
            return a - std::floor(a / b) * b;
          case ExprKind::kMin: return std::min(a, b);
          case ExprKind::kMax: return std::max(a, b);
          case ExprKind::kEQ: return a == b;
          case ExprKind::kNE: return a != b;
          case ExprKind::kLT: return a < b;
          case ExprKind::kLE: return a <= b;
          case ExprKind::kGT: return a > b;
          case ExprKind::kGE: return a >= b;
          case ExprKind::kAnd: return (a != 0.0) && (b != 0.0);
          case ExprKind::kOr: return (a != 0.0) || (b != 0.0);
          default:
            RELAX_ICHECK(false) << "unexpected expr kind";
            return 0.0;
        }
      }
    }
}

void
execStmt(const Stmt& stmt, Env& env)
{
    switch (stmt->kind()) {
      case StmtKind::kFor: {
        const auto* node = static_cast<const ForNode*>(stmt.get());
        int64_t extent = evalIndex(node->extent, env);
        for (int64_t i = 0; i < extent; ++i) {
            env.scalars[node->loopVar.get()] = i;
            execStmt(node->body, env);
        }
        env.scalars.erase(node->loopVar.get());
        return;
      }
      case StmtKind::kBufferStore: {
        const auto* node = static_cast<const BufferStoreNode*>(stmt.get());
        auto it = env.buffers.find(node->buffer.get());
        if (it == env.buffers.end()) {
            RELAX_THROW(RuntimeError)
                << "unbound buffer " << node->buffer->name;
        }
        std::vector<int64_t> indices;
        indices.reserve(node->indices.size());
        for (const auto& index : node->indices) {
            indices.push_back(evalIndex(index, env));
        }
        it->second.set(it->second.flatten(indices),
                       evalExpr(node->value, env));
        return;
      }
      case StmtKind::kIfThenElse: {
        const auto* node = static_cast<const IfThenElseNode*>(stmt.get());
        if (evalExpr(node->cond, env) != 0.0) {
            execStmt(node->thenBody, env);
        } else if (node->elseBody) {
            execStmt(node->elseBody, env);
        }
        return;
      }
      case StmtKind::kSeq:
        for (const auto& s : static_cast<const SeqStmtNode*>(stmt.get())->seq) {
            execStmt(s, env);
        }
        return;
      case StmtKind::kAllocBuffer: {
        const auto* node = static_cast<const AllocBufferNode*>(stmt.get());
        std::vector<int64_t> shape;
        for (const auto& dim : node->buffer->shape) {
            shape.push_back(evalInt(dim, env.scalars));
        }
        env.buffers[node->buffer.get()] =
            NDArray::zeros(shape, node->buffer->dtype);
        execStmt(node->body, env);
        return;
      }
    }
}

} // namespace

VarBinding
bindShapes(const PrimFunc& func, const std::vector<NDArray>& args,
           const std::vector<int64_t>& sym_args)
{
    if (args.size() != func->params.size()) {
        RELAX_THROW(ShapeError)
            << func->name << ": expected " << func->params.size()
            << " buffer arguments, got " << args.size();
    }
    if (sym_args.size() != func->symParams.size()) {
        RELAX_THROW(ShapeError)
            << func->name << ": expected " << func->symParams.size()
            << " symbolic arguments, got " << sym_args.size();
    }
    VarBinding binding;
    for (size_t i = 0; i < func->symParams.size(); ++i) {
        binding[func->symParams[i].get()] = sym_args[i];
    }
    // Two rounds: bind bare vars first, then verify composite expressions.
    for (size_t i = 0; i < args.size(); ++i) {
        const Buffer& buffer = func->params[i];
        if (buffer->shape.size() != args[i].shape().size()) {
            RELAX_THROW(ShapeError)
                << func->name << ": rank mismatch for " << buffer->name;
        }
        for (size_t d = 0; d < buffer->shape.size(); ++d) {
            const PrimExpr& dim = buffer->shape[d];
            int64_t concrete = args[i].shape()[d];
            if (dim->kind() == ExprKind::kVar) {
                const auto* v = static_cast<const VarNode*>(dim.get());
                auto [it, inserted] = binding.emplace(v, concrete);
                if (!inserted && it->second != concrete) {
                    RELAX_THROW(ShapeError)
                        << func->name << ": inconsistent binding for "
                        << v->name << ": " << it->second << " vs "
                        << concrete;
                }
            }
        }
    }
    for (size_t i = 0; i < args.size(); ++i) {
        const Buffer& buffer = func->params[i];
        for (size_t d = 0; d < buffer->shape.size(); ++d) {
            auto expected = tryEvalInt(buffer->shape[d], binding);
            if (!expected) {
                RELAX_THROW(ShapeError)
                    << func->name << ": cannot resolve dim "
                    << relax::toString(buffer->shape[d]) << " of "
                    << buffer->name;
            }
            if (*expected != args[i].shape()[d]) {
                RELAX_THROW(ShapeError)
                    << func->name << ": shape check failed for "
                    << buffer->name << " dim " << d << ": expected "
                    << *expected << ", got " << args[i].shape()[d];
            }
        }
    }
    return binding;
}

void
run(const PrimFunc& func, const std::vector<NDArray>& args,
    const std::vector<int64_t>& sym_args)
{
    Env env;
    env.scalars = bindShapes(func, args, sym_args);
    for (size_t i = 0; i < args.size(); ++i) {
        env.buffers[func->params[i].get()] = args[i];
    }
    execStmt(func->body, env);
}

} // namespace tir
} // namespace relax
